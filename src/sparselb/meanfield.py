"""Mean-field occupancy dynamics of the fully flexible system.

The limiting occupancy (q_1, q_2, ...) under JSQ(d) at arrival rate
lambda < 1 solves

    dq_i/dt = lambda (q_{i-1}^d - q_i^d) - (q_i - q_{i+1}),   q_0 = 1,

and more generally, for a policy with assignment probability function p,

    dq_i/dt = lambda p_{i-1}(x) - (q_i - q_{i+1}),   x_j = q_j - q_{j+1}.

Stationarity forces q_i = lambda * q_{i-1}^d, i.e. q_i = lambda^((d^i-1)/(d-1)):
level-1 flow balance pins q_1 = lambda, and the recursion follows by
tail-summing the balance equations. (An alternative exponent (d^i-d)/(d-1)
occasionally quoted for this fixed point gives q_1 = 1 for every lambda and
fails level-1 flow balance; it is not used here.)

All arrays here carry the occupancy convention q[0] = 1: a state truncated
at depth I is an array of length I+1 with closure q_{I+1} = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .policy import AssignmentPolicy, distribution_from_occupancy
from .records import (INDEX_LIMIT, TrajectoryRecord, require_count, require_finite_positive, require_positive_int,
                      sample_grid)

FIXED_POINT_RESIDUAL_TOL = 1e-12
CLAMP_TOL = 1e-9
MAX_STEP_HALVINGS = 10
PSI_FLOOR = 1e-10


def _require_load(lam: float) -> None:
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")


class ODEStepError(RuntimeError):
    """Raised when step halving cannot keep the state inside the occupancy set."""


def default_depth(lam: float, d: int) -> int:
    """Smallest truncation depth with fixed-point mass below 1e-14, floor 10.

    The fixed point decays doubly exponentially, so deeper levels are
    numerically zero.
    """
    _require_load(lam)
    q = 1.0
    for i in range(1, 200):
        q = lam * q**d
        if q < 1e-14:
            return max(10, i)
    return 200


def fixed_point(lam: float, d: int, depth: int) -> np.ndarray:
    """Stationary occupancy q_i = lambda * q_{i-1}^d, as [1, q_1, ..., q_depth].

    The result satisfies the stationarity equations to within
    FIXED_POINT_RESIDUAL_TOL at every level (asserted).
    """
    _require_load(lam)
    d = require_positive_int("d", d)
    depth = require_count("depth", depth)
    q = np.empty(depth + 1)
    q[0] = 1.0
    for i in range(1, depth + 1):
        q[i] = lam * q[i - 1] ** d
    resid = fixed_point_residual(q, lam, d)
    assert resid <= FIXED_POINT_RESIDUAL_TOL, f"fixed point residual {resid}"
    return q


def fixed_point_residual(q: np.ndarray, lam: float, d: int) -> float:
    """Max |rhs| of the occupancy ODE at q, continuing the recursion one
    level past the truncation instead of forcing a hard zero."""
    depth = len(q) - 1
    qd = q**d
    q_next = np.concatenate((q[2:], [lam * q[depth] ** d]))
    resid = lam * (qd[:-1] - qd[1:]) - (q[1:] - q_next)
    return float(np.max(np.abs(resid))) if depth >= 1 else 0.0


def empty_occupancy(depth: int) -> np.ndarray:
    """Occupancy of an empty system: [1, 0, ..., 0]."""
    depth = require_count("depth", depth)
    q = np.zeros(depth + 1)
    q[0] = 1.0
    return q


@dataclass
class MeanFieldResult:
    """Integrated trajectory plus the terminal state (occupancy convention)."""

    record: TrajectoryRecord
    final_state: np.ndarray
    steps_taken: int
    steps_rejected: int


def _validate_initial(q0, depth: int) -> np.ndarray:
    q = np.asarray(q0, dtype=float)
    if q.shape != (depth + 1,):
        raise ValueError(f"q0 must have length depth+1 = {depth + 1} with q0[0] = 1")
    if abs(q[0] - 1.0) > 1e-12:
        raise ValueError("q0[0] must equal 1 (occupancy convention)")
    if np.any(q < -1e-12) or np.any(q > 1 + 1e-12):
        raise ValueError("q0 entries must lie in [0, 1]")
    if np.any(np.diff(q) > 1e-12):
        raise ValueError("q0 must be non-increasing")
    return q.copy()


def integrate_ode(
    lam: float,
    q0,
    horizon: float,
    depth: int,
    d: int = 2,
    policy: Optional[AssignmentPolicy] = None,
    step: float = 0.01,
    sample_interval: float = 0.1,
) -> MeanFieldResult:
    """Integrate the occupancy ODE with fixed-step classical Runge-Kutta.

    With `policy` unset the JSQ(d) closed form drives the dynamics; passing
    an AssignmentPolicy routes through its probability function instead
    (the two coincide for jsqd_policy(d) up to roundoff). After each step
    the state is clamped back onto the monotone occupancy set; a clamp
    larger than CLAMP_TOL rejects the step and retries at half size, up to
    MAX_STEP_HALVINGS deep.

    Fixed-step integration keeps runs bit-identical across platforms; the
    system is smooth and non-stiff for lambda < 1, so adaptivity buys
    nothing. Each sample interval takes a whole number of steps, so the
    step actually used is sample_interval / round(sample_interval / step);
    a step longer than sample_interval, or one that takes 2^31 steps or
    more, is refused.
    """
    _require_load(lam)
    require_finite_positive("horizon", horizon)
    require_finite_positive("step", step)
    d = require_positive_int("d", d)
    depth = require_count("depth", depth)
    q0 = _validate_initial(q0, depth)

    if policy is not None:
        # One validated call up front catches a malformed policy; the hot
        # loop then uses the raw evaluator (RK4 stages may sit slightly
        # outside the simplex, which the arithmetic tolerates).
        policy.probabilities(distribution_from_occupancy(q0))

    # Preallocated stage buffers: each ufunc writes the elements the
    # allocating expressions made, so the outputs are bitwise the same.
    q = np.zeros(depth + 2)  # [1, y, 0]: q[2:] is q_{i+1} with the closure 0
    q[0] = 1.0
    q_mid, q_lo, q_hi, q_next = q[1:-1], q[:-1], q[1:], q[2:]
    qd, drift = np.empty(depth + 1), np.empty(depth)
    k1, k2, k3, k4, stage = (np.empty(depth) for _ in range(5))

    def rhs(y: np.ndarray, out: np.ndarray) -> None:
        """out = lam * p_{i-1} - (q_i - q_{i+1})."""
        np.copyto(q_mid, y)
        if policy is None:
            np.power(q_lo, d, qd)
            np.multiply(lam, np.subtract(qd[:-1], qd[1:], out), out)
        else:
            x = np.subtract(q_lo, q_hi, qd)  # x_i = q_i - q_{i+1}
            np.multiply(lam, policy.evaluator(x)[:depth], out)
        np.subtract(out, np.subtract(y, q_next, drift), out)

    counters = {"taken": 0, "rejected": 0}

    def clamp(y: np.ndarray) -> tuple[np.ndarray, float]:
        mono = np.minimum.accumulate(np.clip(y, 0.0, 1.0, out=stage))
        gap = np.abs(np.subtract(mono, y, stage), stage)
        return mono, float(np.maximum.reduce(gap))  # np.max without its wrapper

    def advance(y: np.ndarray, h: float, halvings: int) -> np.ndarray:
        rhs(y, k1)
        for k, c, k_next in ((k1, 0.5 * h, k2), (k2, 0.5 * h, k3), (k3, h, k4)):
            rhs(np.add(y, np.multiply(c, k, stage), stage), k_next)
        # raw = y + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), accumulated in k1
        np.add(k1, np.multiply(2.0, k2, k2), k1)
        np.add(k1, np.multiply(2.0, k3, k3), k1)
        np.add(k1, k4, k1)
        np.add(y, np.multiply(h / 6.0, k1, k1), k1)
        clamped, magnitude = clamp(k1)
        if magnitude <= CLAMP_TOL:
            counters["taken"] += 1
            return clamped
        counters["rejected"] += 1
        if halvings >= MAX_STEP_HALVINGS:
            raise ODEStepError(
                f"clamp magnitude {magnitude:.3e} still exceeds {CLAMP_TOL} "
                f"after {MAX_STEP_HALVINGS} halvings"
            )
        y = advance(y, 0.5 * h, halvings + 1)
        return advance(y, 0.5 * h, halvings + 1)

    sample_times = sample_grid(horizon, sample_interval)
    if step > sample_interval:
        raise ValueError(f"step must be at most sample_interval {sample_interval}, not {step}")
    n_samples = len(sample_times) - 1
    if not math.isfinite(sample_interval / step):
        raise ValueError(f"sample_interval / step must be finite, not {sample_interval} / {step}")
    substeps = round(sample_interval / step)
    if substeps * n_samples >= INDEX_LIMIT:  # the bound sample_grid puts on samples
        raise ValueError(f"step {step} is too short: horizon {horizon} would take 2^31 steps or more")
    h = sample_interval / substeps

    y = q0[1:].copy()
    occupancy = np.empty((n_samples + 1, depth))
    occupancy[0] = y
    for s in range(1, n_samples + 1):
        for _ in range(substeps):
            y = advance(y, h, 0)
        occupancy[s] = y

    record = TrajectoryRecord(
        sample_times=sample_times,
        occupancy=occupancy,
        overflow=np.zeros(n_samples + 1, dtype=np.int64),
        n_servers=None,
    )
    final = np.concatenate(([1.0], y))
    return MeanFieldResult(
        record=record,
        final_state=final,
        steps_taken=counters["taken"],
        steps_rejected=counters["rejected"],
    )


# ---------------------------------------------------------------------------
# weighted-l1 stability certificates


@dataclass
class StabilityWeights:
    """Weights omega making the weighted l1 distance to the JSQ(2) fixed
    point contract: strictly increasing, geometric with ratio r past level i0.

    omega[0] = 0 and omega[1] = 1; for i > i0, omega[i] = omega[i0] * r^(i-i0)
    with 1 < r < 2/(1+lambda).
    """

    omega: np.ndarray
    r: float
    i0: int
    delta: float
    lam: float

    @property
    def depth(self) -> int:
        return len(self.omega) - 1


def crossover_index(lam: float, q_star: np.ndarray) -> int:
    """First level where lambda (2 q*_i + 1) drops below (1+lambda)/2."""
    threshold = (1.0 + lam) / 2.0
    for i in range(1, len(q_star)):
        if lam * (2.0 * q_star[i] + 1.0) < threshold:
            return i
    raise RuntimeError("crossover index not found; extend the fixed-point depth")


def _geometric_ratio(lam: float, delta: float) -> Optional[float]:
    """Smaller root of (1+lam) r^2 - r ((1+lam) + 2(1-delta)) + 2 = 0, or
    None when the roots are complex."""
    s = 1.0 + (2.0 - 2.0 * delta) / (1.0 + lam)
    disc = s * s - 8.0 / (1.0 + lam)
    if disc < 0.0:
        return None
    return 0.5 * (s - math.sqrt(disc))


def master_inequality_margin(
    weights: "StabilityWeights", q_star: np.ndarray
) -> float:
    """Smallest slack of omega_{i+1} <= omega_i + (omega_i (1-delta) -
    omega_{i-1}) / (lambda (2 q*_i + 1)) over all built levels."""
    om, lam, delta = weights.omega, weights.lam, weights.delta
    worst = math.inf
    for i in range(1, len(om) - 1):
        qi = q_star[i] if i < len(q_star) else 0.0
        bound = om[i] + (om[i] * (1.0 - delta) - om[i - 1]) / (lam * (2.0 * qi + 1.0))
        worst = min(worst, bound - om[i + 1])
    return worst


@np.errstate(over="ignore")  # at a subnormal lambda the slack ratios overflow to +-inf, their limits
def stability_weights(lam: float, depth: int) -> StabilityWeights:
    """Construct contraction weights for the JSQ(2) dynamics at rate lam.

    The master inequality (`master_inequality_margin`), its crossover
    factor lambda (2 q*_i + 1) and the pre-crossover divisor 3 are written
    for the JSQ(2) drift lambda (q_{i-1}^2 - q_i^2), around the JSQ(2) fixed
    point, so the weights certify no other d.

    The slack delta is searched over decreasing powers of two (the largest
    feasible value maximizes the certified margin); a candidate is feasible
    when the pre-crossover recursion stays increasing, the geometric ratio
    r(delta) is real with 1 < r < min(2/(1+lam), R(delta)), and the master
    inequality holds numerically at every built level. Failure below
    2^-40 signals lambda too close to 1 for double precision.
    """
    _require_load(lam)
    depth = require_count("depth", depth)
    q_star = fixed_point(lam, 2, max(depth + 1, default_depth(lam, 2)))
    i0 = crossover_index(lam, q_star)
    build_depth = max(depth, i0 + 1)
    threshold_rate = 2.0 / (1.0 + lam)

    for k in range(1, 41):
        delta = 2.0**-k
        om = np.zeros(build_depth + 1)
        om[1] = 1.0
        for i in range(1, i0):
            om[i + 1] = om[i] + (om[i] * (1.0 - delta) - om[i - 1]) / 3.0
        if np.any(np.diff(om[1 : i0 + 1]) <= 0.0):
            continue
        r = _geometric_ratio(lam, delta)
        if r is None or not 1.0 < r < threshold_rate:
            continue
        cap = 1.0 + (om[i0] * (1.0 - delta) - om[i0 - 1]) / (
            om[i0] * lam * (2.0 * q_star[i0] + 1.0)
        )
        if cap <= 1.0 + 1e-9 or r > cap:
            continue
        for i in range(i0 + 1, build_depth + 1):
            om[i] = om[i0] * r ** (i - i0)
        candidate = StabilityWeights(omega=om[: depth + 1], r=r, i0=i0, delta=delta, lam=lam)
        full = StabilityWeights(omega=om, r=r, i0=i0, delta=delta, lam=lam)
        if master_inequality_margin(full, q_star) < -1e-12:
            continue
        return candidate
    raise RuntimeError(
        f"no feasible delta above 2^-40 for lambda={lam}; "
        f"the rate is too close to 1 for double precision"
    )


# ---------------------------------------------------------------------------
# weighted distance along a trajectory


@dataclass
class PsiSeries:
    """Weighted l1 distance from the fixed point per sample, with the
    least-squares slope of its log over samples above PSI_FLOOR."""

    times: np.ndarray
    values: np.ndarray
    decay_rate: Optional[float]
    converged: bool


def psi_series(
    record: TrajectoryRecord, weights: StabilityWeights, q_star: np.ndarray
) -> PsiSeries:
    """Psi(t) = sum_i omega_i |q_i(t) - q*_i| along a trajectory.

    The fitted decay rate is the slope of ln Psi vs t restricted to samples
    with Psi > PSI_FLOOR; when no (or only one) sample clears the floor the
    series is reported as converged with no rate.
    """
    k = min(record.depth, weights.depth, len(q_star) - 1)
    diffs = np.abs(record.occupancy[:, :k] - q_star[1 : k + 1])
    values = diffs @ weights.omega[1 : k + 1]
    mask = values > PSI_FLOOR
    if mask.sum() < 2:
        return PsiSeries(record.sample_times, values, None, True)
    slope = float(np.polyfit(record.sample_times[mask], np.log(values[mask]), 1)[0])
    return PsiSeries(record.sample_times, values, slope, False)
