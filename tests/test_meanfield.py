import math

import numpy as np
import pytest
from oracles import time_limit

from sparselb.meanfield import (
    CLAMP_TOL,
    ODEStepError,
    crossover_index,
    default_depth,
    empty_occupancy,
    fixed_point,
    fixed_point_residual,
    integrate_ode,
    master_inequality_margin,
    psi_series,
    stability_weights,
)
from sparselb.policy import jsqd_policy

# frozen by iterating q_i = 0.8 * q_{i-1}^2 from q_0 = 1
FP_08_D2 = [0.8, 0.512, 0.2097152, 0.035184372088832, 0.0009903520314283065]
MEAN_QLEN_08_D2 = 1.5578907087584704


def test_fixed_point_values():
    q = fixed_point(0.8, 2, 10)
    assert q[0] == 1.0
    assert np.allclose(q[1:6], FP_08_D2, rtol=0, atol=1e-15)
    assert abs(q[1:].sum() - MEAN_QLEN_08_D2) <= 1e-12


def test_fixed_point_closed_form():
    # q_i = lambda^((d^i - 1)/(d - 1))
    for lam, d in ((0.8, 2), (0.5, 3), (0.9, 2)):
        q = fixed_point(lam, d, 6)
        for i in range(1, 7):
            assert q[i] == pytest.approx(lam ** ((d**i - 1) / (d - 1)), rel=1e-12)


def test_fixed_point_d1_geometric():
    q = fixed_point(0.5, 1, 12)
    assert np.allclose(q[1:], [0.5**i for i in range(1, 13)], rtol=1e-14)


def test_fixed_point_residual_tiny():
    for lam, d in ((0.8, 2), (0.5, 2), (0.95, 3)):
        q = fixed_point(lam, d, default_depth(lam, d))
        assert fixed_point_residual(q, lam, d) <= 1e-12


def test_default_depth():
    assert default_depth(0.8, 2) == 10  # floor kicks in (true crossing at 8)
    d1 = default_depth(0.5, 1)
    assert 0.5**d1 < 1e-14 <= 0.5 ** (d1 - 1)


@pytest.mark.parametrize("d", [-1, 0, float("nan"), 2.5])
def test_default_depth_refuses_a_d_that_is_not_a_positive_integer(d):
    # as fixed_point does; d = -1, 0 and NaN once gave depth 200, and 2.5 gave 10
    with pytest.raises(ValueError, match=f"^d must be a positive integer, not {d}$"):
        default_depth(0.5, d)


def test_fixed_point_is_stationary_under_integration():
    q = fixed_point(0.8, 2, 12)
    result = integrate_ode(0.8, q, 10.0, depth=12)
    assert np.max(np.abs(result.record.occupancy - q[1:])) <= 1e-8


def test_empty_start_converges_to_fixed_point():
    q_star = fixed_point(0.8, 2, 10)
    res50 = integrate_ode(0.8, empty_occupancy(10), 50.0, depth=10)
    assert np.sum(np.abs(res50.final_state - q_star)) <= 1e-3
    res100 = integrate_ode(0.8, empty_occupancy(10), 100.0, depth=10)
    assert np.sum(np.abs(res100.final_state - q_star)) <= 1e-6


def test_generic_policy_route_matches_closed_form():
    q0 = empty_occupancy(10)
    closed = integrate_ode(0.8, q0, 5.0, depth=10)
    generic = integrate_ode(0.8, q0, 5.0, depth=10, policy=jsqd_policy(2))
    assert np.max(np.abs(closed.record.occupancy - generic.record.occupancy)) <= 1e-10


def test_d1_limit_matches_geometric_fixed_point():
    depth = default_depth(0.5, 1)
    q_star = fixed_point(0.5, 1, depth)
    res = integrate_ode(0.5, empty_occupancy(depth), 300.0, depth=depth, d=1)
    assert np.sum(np.abs(res.final_state - q_star)) <= 1e-6


def test_monotone_order_preserved():
    res = integrate_ode(0.9, empty_occupancy(15), 30.0, depth=15)
    occ = res.record.occupancy
    full = np.hstack([np.ones((len(occ), 1)), occ])
    assert np.all(np.diff(full, axis=1) <= 1e-12)
    assert np.all(occ >= 0.0)


def test_mass_flow_identity():
    # d/dt sum q_i = lambda (1 - q_depth^d) - q_1 under the zero closure;
    # central differences at a fine grid meet it to 1e-6
    depth, d, lam = 10, 2, 0.8
    dt = 5e-4
    res = integrate_ode(lam, empty_occupancy(depth), 2.0, depth=depth, d=d,
                        step=dt, sample_interval=dt)
    occ = res.record.occupancy
    total = occ.sum(axis=1)
    deriv = (total[2:] - total[:-2]) / (2 * dt)
    expect = lam * (1.0 - occ[1:-1, depth - 1] ** d) - occ[1:-1, 0]
    assert np.max(np.abs(deriv - expect)) <= 1e-6


def test_initial_state_validation():
    with pytest.raises(ValueError, match="q0\\[0\\] must equal 1"):
        integrate_ode(0.8, np.zeros(11), 1.0, depth=10)
    with pytest.raises(ValueError, match="q0\\[0\\] must equal 1"):
        integrate_ode(0.8, np.linspace(1, 0.9, 11)[::-1].copy(), 1.0, depth=10)
    with pytest.raises(ValueError, match="^q0 entries must lie in \\[0, 1\\]$"):
        integrate_ode(0.8, [1.0, 0.5, -0.1], 1.0, depth=2)
    with pytest.raises(ValueError, match="^q0 must be non-increasing$"):
        integrate_ode(0.8, [1.0, 0.2, 0.5], 1.0, depth=2)
    bad = empty_occupancy(10)
    with pytest.raises(ValueError, match="q0 must have length"):
        integrate_ode(0.8, bad, 1.0, depth=12)  # length mismatch


def test_depth_has_no_default_and_the_certificate_no_d():
    # q0 fixes the depth; the weights are built for JSQ(2) alone
    with pytest.raises(TypeError):
        integrate_ode(0.8, empty_occupancy(10), 1.0)
    with pytest.raises(TypeError):
        stability_weights(0.8, 10, d=3)
    assert not hasattr(stability_weights(0.8, 10), "d")


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 1.5, float("nan")])
@pytest.mark.parametrize("call", [
    lambda lam: fixed_point(lam, 2, 5),
    lambda lam: stability_weights(lam, 5),
    lambda lam: integrate_ode(lam, empty_occupancy(5), 1.0, depth=5),
    lambda lam: default_depth(lam, 2),
], ids=["fixed_point", "stability_weights", "integrate_ode", "default_depth"])
def test_lambda_outside_unit_interval_is_refused(call, lam):
    with pytest.raises(ValueError, match=rf"^lambda must lie in \(0, 1\), not {lam}$"):
        call(lam)


def test_step_rejection_cascade_recovers():
    # a violently coarse step on a steep start halves until the clamp
    # passes; the result stays a valid occupancy (accuracy is the caller's
    # business via the step choice)
    res = integrate_ode(0.95, empty_occupancy(10), 2.0, depth=10, step=2.0,
                        sample_interval=2.0)
    assert res.steps_rejected >= 1
    q = res.final_state
    assert q[0] == 1.0 and np.all(np.diff(q) <= 1e-12) and np.all(q >= 0.0)


@pytest.mark.parametrize("step", [0.15, 50.0])
def test_step_longer_than_sample_interval_is_refused(step):
    # round(0.1 / step) is 1 or 0 here, so the run would take steps of 0.1
    with pytest.raises(ValueError, match=rf"^step must be at most sample_interval 0\.1, not {step}$"):
        integrate_ode(0.8, empty_occupancy(5), 1.0, depth=5, step=step, sample_interval=0.1)


def test_sample_interval_over_step_must_be_finite():
    with pytest.raises(ValueError, match=r"^sample_interval / step must be finite, not 1e\+308 / 0\.01$"):
        integrate_ode(0.8, empty_occupancy(5), 1.0, depth=5, sample_interval=1e308)


@pytest.mark.parametrize("step", [1e-308, 1e-12])
def test_step_that_takes_2_31_steps_or_more_is_refused(step):
    # refused before the first step: 1e-308 would take about 1e308 steps
    message = rf"^step {step} is too short: horizon 1\.0 would take 2\^31 steps or more$"
    with time_limit(2), pytest.raises(ValueError, match=message):
        integrate_ode(0.8, empty_occupancy(5), 1.0, depth=5, step=step)


def _reference_ode(lam, q0, horizon, depth, d, policy, step, sample_interval):
    """Occupancy rows of integrate_ode's RK4 written with allocating numpy
    expressions (np.concatenate per stage), the reference for the
    integrator's preallocated stage buffers."""
    if policy is None:

        def rhs(y):
            q = np.concatenate(([1.0], y))
            qd = q**d
            q_next = np.concatenate((y[1:], [0.0]))
            return lam * (qd[:-1] - qd[1:]) - (y - q_next)

    else:

        def rhs(y):
            q = np.concatenate(([1.0], y, [0.0]))
            p = policy.evaluator(q[:-1] - q[1:])
            q_next = np.concatenate((y[1:], [0.0]))
            return lam * p[:depth] - (y - q_next)

    def advance(y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        raw = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mono = np.minimum.accumulate(np.clip(raw, 0.0, 1.0))
        if float(np.max(np.abs(mono - raw))) <= CLAMP_TOL:
            return mono
        return advance(advance(y, 0.5 * h), 0.5 * h)

    n_samples = int(math.floor(horizon / sample_interval + 1e-9))
    substeps = max(1, round(sample_interval / step))
    y, rows = q0[1:].copy(), [q0[1:].copy()]
    for _ in range(n_samples):
        for _ in range(substeps):
            y = advance(y, sample_interval / substeps)
        rows.append(y)
    return np.array(rows)


@pytest.mark.parametrize("use_policy", [False, True], ids=["closed", "policy"])
@pytest.mark.parametrize(
    "lam,d,start,horizon,step,interval,rejects",
    [
        (0.9, 2, "empty", 8.0, 0.01, 0.1, False),
        (0.8, 3, "ramp", 5.0, 0.05, 0.37, False),
        (0.95, 2, "empty", 2.0, 2.0, 2.0, True),  # halved stages reuse the buffers
    ],
)
def test_rk4_buffers_bitwise_equal_to_allocating_stages(
    use_policy, lam, d, start, horizon, step, interval, rejects
):
    depth = 12
    q0 = empty_occupancy(depth) if start == "empty" else np.linspace(1.0, 0.0, depth + 1)
    policy = jsqd_policy(d) if use_policy else None
    res = integrate_ode(lam, q0, horizon, depth=depth, d=d, policy=policy, step=step,
                        sample_interval=interval)
    ref = _reference_ode(lam, q0, horizon, depth, d, policy, step, interval)
    assert (res.steps_rejected > 0) == rejects
    assert res.record.occupancy.shape == ref.shape
    for got, want in zip(res.record.occupancy, ref):
        assert np.array_equal(got, want)
    n = len(ref) - 1
    assert np.array_equal(res.record.sample_times, np.arange(n + 1) * interval)


def test_step_rejection_exhaustion_fails():
    from sparselb.policy import AssignmentPolicy

    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] == 1:  # pass the up-front validation, then go bad
            return jsqd_policy(2).evaluator(x)
        return np.full_like(x, np.nan)

    with pytest.raises(ODEStepError):
        integrate_ode(0.8, empty_occupancy(5), 1.0, depth=5,
                      policy=AssignmentPolicy("flaky", flaky))


def test_crossover_index_examples():
    q8 = fixed_point(0.8, 2, 20)
    assert crossover_index(0.8, q8) == 4
    values = [0.8 * (2 * q8[i] + 1) for i in range(1, 5)]
    assert np.allclose(values, [2.08, 1.6192, 1.13554432, 0.85629500], atol=1e-6)
    q5 = fixed_point(0.5, 2, 20)
    assert crossover_index(0.5, q5) == 2


def test_stability_weights_structure():
    for lam in (0.5, 0.8):
        w = stability_weights(lam, 25)
        assert w.omega[0] == 0.0 and w.omega[1] == 1.0
        assert np.all(np.diff(w.omega[1:]) > 0)
        assert 1.0 < w.r < 2.0 / (1.0 + lam)
        for i in range(w.i0 + 1, 26):
            assert w.omega[i] == pytest.approx(w.omega[w.i0] * w.r ** (i - w.i0), rel=1e-12)


def test_stability_weights_master_inequality():
    for lam in (0.5, 0.8):
        w = stability_weights(lam, 30)
        q_star = fixed_point(lam, 2, 40)
        assert master_inequality_margin(w, q_star) >= -1e-12


def test_stability_weights_near_saturation_fails():
    with pytest.raises(RuntimeError):
        stability_weights(1 - 1e-9, 10)


def test_psi_series_at_fixed_point_is_zero():
    q_star = fixed_point(0.8, 2, 10)
    res = integrate_ode(0.8, q_star, 5.0, depth=10)
    w = stability_weights(0.8, 10)
    psi = psi_series(res.record, w, q_star)
    assert psi.converged
    assert np.all(psi.values <= 1e-8)
    assert np.all(psi.values >= 0.0)


def test_psi_series_decays_from_empty():
    q_star = fixed_point(0.8, 2, 10)
    res = integrate_ode(0.8, empty_occupancy(10), 50.0, depth=10)
    w = stability_weights(0.8, 10)
    psi = psi_series(res.record, w, q_star)
    assert not psi.converged
    assert psi.decay_rate < -0.01
    assert np.all(psi.values >= 0.0)
    mask = (psi.times >= 1.0) & (psi.values > 1e-10)
    assert np.all(np.diff(psi.values[mask]) < 0.0)


def test_depth_beyond_the_index_limit_is_named():
    depth = 99999999999999999999  # 20 digits: refused before any depth-sized array exists
    q0 = np.array([1.0, 0.0])
    for call in (lambda: fixed_point(0.5, 2, depth), lambda: empty_occupancy(depth),
                 lambda: integrate_ode(0.5, q0, 1.0, depth=depth, d=2),
                 lambda: stability_weights(0.5, depth)):
        with pytest.raises(ValueError, match=rf"^depth must be below 2\^31, not {depth}$"):
            call()
