"""Task-assignment policies as maps from queue-length distributions to
assignment probabilities.

A queue-length distribution x gives the fraction of servers at each exact
queue length (index 0 = idle); the matching occupancy vector q gives the
fraction at length >= i, with q[0] = 1 by convention. A policy turns x into
a probability vector p where p[i] is the chance the arriving task joins a
queue of current length i.

JSQ(d) - join the shortest of d sampled queues - is the canonical policy:
p[i] = q_i^d - q_{i+1}^d, the law of the minimum of d i.i.d. draws from x.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

DIST_SUM_TOL = 1e-12
PROB_SUM_TOL = 1e-10
PROBE_MAX_SUPPORT = 30  # longest queue-length distribution empirical_lipschitz probes
PROBE_BLOCK = 1024  # probe pairs per evaluation block: 2 x 240 KB of padded rows


def validate_distribution(x) -> np.ndarray:
    """Coerce to a 1-d float array; require entries in [0,1] summing to 1
    within DIST_SUM_TOL. NaN fails both tests."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("distribution must be a non-empty 1-d vector")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("distribution entries must lie in [0, 1]")
    total = float(arr.sum())
    if not abs(total - 1.0) <= DIST_SUM_TOL:
        raise ValueError(f"distribution sums to {total!r}, not 1")
    return arr


def occupancy_from_distribution(x) -> np.ndarray:
    """Tail sums q[..., i] = sum_{j>=i} x[..., j] along the last axis, one
    cell longer than x, with q[..., 0] pinned to exactly 1 and q[..., -1] = 0
    (the implicit zero tail). The right-to-left cumsum adds trailing zero
    cells first, exactly, so zero-padding x leaves every other cell
    bitwise unchanged."""
    arr = np.asarray(x, dtype=float)
    n = arr.shape[-1]
    tails = np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]
    q = np.empty(arr.shape[:-1] + (n + 1,))
    q[..., 0] = 1.0
    q[..., 1:n] = tails[..., 1:]
    q[..., n] = 0.0
    return q


def distribution_from_occupancy(q) -> np.ndarray:
    """Differences x_i = q_i - q_{i+1} with implicit zero tail; q[0] must be 1."""
    arr = np.asarray(q, dtype=float)
    return np.diff(np.concatenate((arr, [0.0]))) * -1.0


def invert_cdf(p: Iterable[float], u: float) -> int:
    """Smallest index i with cum(p)[i] > u; lands only on positive cells.

    Falls back to the last positive cell when u exceeds the accumulated
    total (float shortfall below 1). Raises ValueError when no cell is
    positive.
    """
    cum = 0.0
    last_pos = -1
    for i, pi in enumerate(p):
        if pi > 0.0:
            last_pos = i
            cum += pi
            if u < cum:
                return i
    if last_pos < 0:
        raise ValueError("cannot invert a CDF with no positive cell")
    return last_pos


class AssignmentPolicy:
    """An assignment probability function plus its declared smoothness.

    `evaluator` maps distributions along the last axis: given an array of
    shape (..., L) whose rows are distributions, it returns the probability
    vectors of the same shape, row by row. A trailing zero cell is an empty
    queue length like any other, so zero-padding a row must only pad its
    output with zeros. `declared_lipschitz_bound` is a known constant K
    with sum|p(x)-p(y)| <= K sum|x-y|, or None when unknown. Evaluators are
    pure functions and safe to share across workers.
    """

    def __init__(
        self,
        name: str,
        evaluator: Callable[[np.ndarray], np.ndarray],
        declared_lipschitz_bound: Optional[float] = None,
    ):
        self.name = name
        self.evaluator = evaluator
        self.declared_lipschitz_bound = declared_lipschitz_bound

    def probabilities(self, x, *, validate: bool = True) -> np.ndarray:
        """Evaluate p(x), checking the output is a probability vector that
        puts no mass on empty levels.

        The validated entry takes one 1-d distribution. With validate=False,
        x may also be a block of distributions along the last axis, and
        every row's output gets the same check.
        """
        arr = validate_distribution(x) if validate else np.asarray(x, dtype=float)
        p = self.evaluator(arr)
        self._check_output(arr, p)
        return p

    def _check_output(self, x: np.ndarray, p: np.ndarray) -> None:
        """Raise ValueError unless each row of p sums to 1 within
        PROB_SUM_TOL, has every cell in [-PROB_SUM_TOL, 1 + PROB_SUM_TOL],
        and puts at most PROB_SUM_TOL on each level where x is 0. NaN fails.
        For a block, the message names the sum of the row furthest from 1.
        """
        if p.shape != x.shape:
            raise ValueError(f"policy {self.name!r} returned shape {p.shape} for input shape {x.shape}")
        totals = p.sum(axis=-1)
        off = abs(totals - 1.0)
        if not ((off <= PROB_SUM_TOL).all() and p.min() >= -PROB_SUM_TOL and p.max() <= 1.0 + PROB_SUM_TOL):
            total = float(np.ravel(totals)[np.argmax(off)])
            raise ValueError(f"policy {self.name!r} returned an invalid probability vector (sum={total!r})")
        if not p.max(where=x == 0.0, initial=0.0) <= PROB_SUM_TOL:
            raise ValueError(f"policy {self.name!r} puts mass on an empty queue length")

    def __repr__(self) -> str:
        return f"AssignmentPolicy({self.name!r}, K={self.declared_lipschitz_bound})"


def jsqd_policy(d: int) -> AssignmentPolicy:
    """Join-the-shortest-of-d-samples as an assignment probability function.

    p[i] = q_i^d - q_{i+1}^d along the last axis, so one call evaluates a
    block of distributions; the declared Lipschitz bound is 2 * d! * d^2.
    """
    if d < 1 or d != int(d):
        raise ValueError("d must be a positive integer")
    d = int(d)

    def evaluator(x: np.ndarray) -> np.ndarray:
        qd = occupancy_from_distribution(x) ** d
        p = np.maximum(qd[..., :-1] - qd[..., 1:], 0.0)
        # empty levels carry exactly zero mass; clear the float dust that
        # the q_0 = 1 pinning can leave at level 0
        p[x == 0.0] = 0.0
        return p

    return AssignmentPolicy(
        f"jsq-d:{d}", evaluator, declared_lipschitz_bound=2.0 * math.factorial(d) * d * d
    )


def policy_from_name(name: str) -> AssignmentPolicy:
    """Resolve a config-style policy name; currently "jsq-d:<d>"."""
    if name.startswith("jsq-d:"):
        return jsqd_policy(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown policy name {name!r}")


# ---------------------------------------------------------------------------
# empirical Lipschitz estimation


def _anchor_rows(xs: np.ndarray, ys: np.ndarray) -> int:
    """Write the deterministic extreme pairs - point masses and near-point
    masses - into the first rows of zeroed blocks; return how many.

    Perturbing a deep point mass toward length 0 realizes ratios close to
    the policy's worst direction (for JSQ(d), d - O(eps)); pure uniform
    sampling essentially never finds these corners.
    """
    xs[0, 0] = 1.0
    ys[0, 1] = 1.0
    row = 1
    for k in (1, 5, PROBE_MAX_SUPPORT - 1):
        for eps in (1e-3, 1e-2, 1e-1):
            xs[row, k] = 1.0
            ys[row, k] = 1.0 - eps
            ys[row, 0] = eps
            row += 1
    return row


def _block_max_ratio(policy: AssignmentPolicy, xs: np.ndarray, ys: np.ndarray) -> float:
    """Largest sum|p(x)-p(y)| / sum|x-y| over the row pairs of a block,
    skipping pairs with sum|x-y| < 1e-15; 0.0 when every pair is skipped."""
    den = np.abs(xs - ys).sum(axis=1)
    num = np.abs(policy.probabilities(xs, validate=False) - policy.probabilities(ys, validate=False)).sum(axis=1)
    keep = den >= 1e-15
    return float(np.max(num[keep] / den[keep], initial=0.0))


def empirical_lipschitz(
    policy: AssignmentPolicy,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Largest observed ratio sum|p(x)-p(y)| / sum|x-y| over probe pairs.

    Probes mix (i) independent uniform-simplex pairs and (ii) single-
    coordinate eps-perturbations (eps in 1e-3/1e-2/1e-1) of simplex draws,
    plus a fixed set of point-mass anchor pairs. Identical pairs are
    skipped. The result is a lower bound on the true constant and must stay
    below any declared bound.

    Pairs are drawn one trial at a time and evaluated PROBE_BLOCK at a time,
    zero-padded to PROBE_MAX_SUPPORT cells, through one checked evaluator
    call per side; the anchors are the first block's first rows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    xs = np.zeros((PROBE_BLOCK, PROBE_MAX_SUPPORT))
    ys = np.zeros_like(xs)
    rows = _anchor_rows(xs, ys)
    best = 0.0
    alphas = [np.ones(size) for size in range(PROBE_MAX_SUPPORT + 1)]
    eps_grid = (1e-3, 1e-2, 1e-1)
    n_pert = trials // 2
    for trial in range(trials):
        size = int(rng.integers(1, PROBE_MAX_SUPPORT + 1))
        x = rng.dirichlet(alphas[size])
        if trial < n_pert and size >= 2:
            src = int(rng.integers(size))
            dst = int(rng.integers(size))
            # move min(eps, x[src]) mass from src to dst
            m = min(eps_grid[trial % len(eps_grid)], float(x[src]))
            if m <= 0.0 or src == dst:
                continue
            y = ys[rows]
            y[:size] = x
            y[src] -= m
            y[dst] += m
        else:
            ys[rows, :size] = rng.dirichlet(alphas[size])
        xs[rows, :size] = x
        rows += 1
        if rows == PROBE_BLOCK:
            best = max(best, _block_max_ratio(policy, xs, ys))
            xs.fill(0.0)
            ys.fill(0.0)
            rows = 0
    if rows:
        best = max(best, _block_max_ratio(policy, xs[:rows], ys[:rows]))
    return best
