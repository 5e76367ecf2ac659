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


def validate_distribution(x) -> np.ndarray:
    """Coerce to a 1-d float array; require entries in [0,1] summing to 1
    within DIST_SUM_TOL."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("distribution must be a non-empty 1-d vector")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("distribution entries must lie in [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > DIST_SUM_TOL:
        raise ValueError(f"distribution sums to {total!r}, not 1")
    return arr


def occupancy_from_distribution(x) -> np.ndarray:
    """Tail sums q[i] = sum_{j>=i} x_j, length len(x)+1, with q[0] pinned to
    exactly 1 and q[len(x)] = 0 (the implicit zero tail)."""
    arr = np.asarray(x, dtype=float)
    tails = np.cumsum(arr[::-1])[::-1]
    q = np.empty(arr.size + 1)
    q[0] = 1.0
    q[1 : arr.size] = tails[1:]
    q[arr.size] = 0.0
    return q


def distribution_from_occupancy(q) -> np.ndarray:
    """Differences x_i = q_i - q_{i+1} with implicit zero tail; q[0] must be 1."""
    arr = np.asarray(q, dtype=float)
    return np.diff(np.concatenate((arr, [0.0]))) * -1.0


def invert_cdf(p: Iterable[float], u: float) -> int:
    """Smallest index i with cum(p)[i] > u; lands only on positive cells.

    Falls back to the last positive cell when u exceeds the accumulated
    total (float shortfall below 1).
    """
    cum = 0.0
    last_pos = 0
    for i, pi in enumerate(p):
        if pi > 0.0:
            last_pos = i
            cum += pi
            if u < cum:
                return i
    return last_pos


class AssignmentPolicy:
    """An assignment probability function plus its declared smoothness.

    `evaluator` maps a validated distribution array to a probability vector
    of the same length. `declared_lipschitz_bound` is a known constant K
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
        puts no mass on empty levels."""
        arr = validate_distribution(x) if validate else np.asarray(x, dtype=float)
        p = self.evaluator(arr)
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL or np.any(p < -PROB_SUM_TOL) or np.any(p > 1 + PROB_SUM_TOL):
            raise ValueError(
                f"policy {self.name!r} returned an invalid probability vector (sum={total!r})"
            )
        if np.any((arr == 0.0) & (p > PROB_SUM_TOL)):
            raise ValueError(f"policy {self.name!r} puts mass on an empty queue length")
        return p

    def __repr__(self) -> str:
        return f"AssignmentPolicy({self.name!r}, K={self.declared_lipschitz_bound})"


def jsqd_policy(d: int) -> AssignmentPolicy:
    """Join-the-shortest-of-d-samples as an assignment probability function.

    p[i] = q_i^d - q_{i+1}^d; the declared Lipschitz bound is 2 * d! * d^2.
    """
    if d < 1 or d != int(d):
        raise ValueError("d must be a positive integer")
    d = int(d)

    def evaluator(x: np.ndarray) -> np.ndarray:
        qd = occupancy_from_distribution(x) ** d
        p = np.maximum(qd[:-1] - qd[1:], 0.0)
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


def _perturb_pair(x: np.ndarray, eps: float, src: int, dst: int):
    """Move min(eps, x[src]) mass from src to dst; None if nothing moves."""
    m = min(eps, float(x[src]))
    if m <= 0.0 or src == dst:
        return None
    y = x.copy()
    y[src] -= m
    y[dst] += m
    return y


def _anchor_pairs():
    """Deterministic extreme pairs: point masses and near-point masses.

    Perturbing a deep point mass toward length 0 realizes ratios close to
    the policy's worst direction (for JSQ(d), d - O(eps)); pure uniform
    sampling essentially never finds these corners.
    """
    pairs = []
    e0 = np.zeros(2)
    e0[0] = 1.0
    e1 = np.zeros(2)
    e1[1] = 1.0
    pairs.append((e0, e1))
    for k in (1, 5, PROBE_MAX_SUPPORT - 1):
        base = np.zeros(k + 1)
        base[k] = 1.0
        for eps in (1e-3, 1e-2, 1e-1):
            moved = base.copy()
            moved[k] -= eps
            moved[0] += eps
            pairs.append((base, moved))
    return pairs


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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    best = 0.0

    def consider(x, y):
        nonlocal best
        den = float(np.sum(np.abs(x - y)))
        if den < 1e-15:
            return
        num = float(
            np.sum(np.abs(policy.probabilities(x, validate=False) - policy.probabilities(y, validate=False)))
        )
        ratio = num / den
        if ratio > best:
            best = ratio

    for x, y in _anchor_pairs():
        consider(x, y)

    eps_grid = (1e-3, 1e-2, 1e-1)
    n_pert = trials // 2
    for trial in range(trials):
        size = int(rng.integers(1, PROBE_MAX_SUPPORT + 1))
        x = rng.dirichlet(np.ones(size))
        if trial < n_pert and size >= 2:
            src = int(rng.integers(size))
            dst = int(rng.integers(size))
            y = _perturb_pair(x, eps_grid[trial % len(eps_grid)], src, dst)
            if y is None:
                continue
        else:
            y = rng.dirichlet(np.ones(size))
        consider(x, y)
    return best
