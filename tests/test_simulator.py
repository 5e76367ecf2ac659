import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselb.graph import (
    BipartiteGraph,
    braess_example,
    complete_bipartite,
    generate_fixed_server_degree,
    perfect_matching,
)
from sparselb.meanfield import fixed_point
from sparselb.records import TrajectoryRecord
from sparselb.simulator import (
    ServiceDistribution,
    choose_shortest,
    coupled_simulate,
    lyapunov_series,
    simulate,
    steady_state,
    tail_moment_margin,
)


def test_mm1_busy_fraction():
    # single M/M/1 queue at rho = 0.5: P(busy) = rho
    rec = simulate(complete_bipartite(1, 1), 1, 0.5, 1e4, seed=1, debug=True)
    assert abs(rec.level(1).mean() - 0.5) <= 0.02


def test_mm1_mean_queue_length():
    # M/M/1: E[tasks in system] = rho / (1 - rho) = 1
    summary = steady_state(
        complete_bipartite(1, 1), 1, 0.5, warmup=20, measure=4000, replicas=3, seed=2
    )
    assert abs(summary.mean_qlen - 1.0) <= 0.05


def test_md1_mean_queue_length():
    # Pollaczek-Khinchine, deterministic service: L = rho + rho^2/(2(1-rho))
    summary = steady_state(
        complete_bipartite(1, 1), 1, 0.5, warmup=20, measure=4000, replicas=3,
        service="deterministic", seed=3,
    )
    assert abs(summary.mean_qlen - 0.75) <= 0.04


def test_mg1_pareto_mean_queue_length():
    # Pareto(shape 3, scale 2/3): mean 1, variance 1/3, so
    # L = rho + rho^2 (1 + 1/3) / (2 (1 - rho)) = 0.8333...
    summary = steady_state(
        complete_bipartite(1, 1), 1, 0.5, warmup=20, measure=6000, replicas=3,
        service="pareto", seed=4,
    )
    assert abs(summary.mean_qlen - 5.0 / 6.0) <= 0.05


def test_service_distribution_parameters():
    rng = random.Random(0)
    det = ServiceDistribution("deterministic")
    assert all(det.draw(rng) == 1.0 for _ in range(10))
    par = ServiceDistribution("pareto")
    draws = np.array([par.draw(rng) for _ in range(200_000)])
    assert draws.min() >= 2.0 / 3.0  # scale parameter
    assert abs(draws.mean() - 1.0) <= 0.01
    with pytest.raises(ValueError):
        ServiceDistribution("uniform")


def test_arrival_count_concentration():
    rec = simulate(complete_bipartite(100, 100), 2, 0.7, 1000.0, seed=3)
    expected = 0.7 * 100 * 1000
    assert abs(rec.arrival_count - expected) <= 4 * math.sqrt(expected)


def test_task_conservation():
    for service in ("exponential", "pareto"):
        rec = simulate(
            complete_bipartite(50, 30), 2, 0.8, 50.0, service=service, seed=9, debug=True
        )
        assert rec.arrival_count - rec.departure_count == rec.final_queue_lengths.sum()


def test_determinism_bit_for_bit():
    for service in ("exponential", "deterministic", "pareto"):
        a = simulate(complete_bipartite(40, 40), 2, 0.8, 20.0, service=service, seed=7)
        b = simulate(complete_bipartite(40, 40), 2, 0.8, 20.0, service=service, seed=7)
        assert np.array_equal(a.occupancy, b.occupancy)
        assert np.array_equal(a.final_queue_lengths, b.final_queue_lengths)
        assert a.event_count == b.event_count


def test_occupancy_counts_match_state_incrementally():
    # debug mode recomputes Q from the raw queue lengths as the run goes
    simulate(generate_fixed_server_degree(60, 60, 8, seed=1), 2, 0.9, 100.0, seed=5, debug=True)


def test_occupancy_rows_monotone():
    rec = simulate(complete_bipartite(60, 60), 2, 0.9, 30.0, seed=6)
    full = np.hstack([np.ones((len(rec.occupancy), 1)), rec.occupancy])
    assert np.all(np.diff(full, axis=1) <= 1e-12)


def test_initial_state_respected():
    init = [3] * 10
    rec = simulate(complete_bipartite(10, 10), 2, 0.5, 5.0, initial_lengths=init, seed=8, debug=True)
    assert rec.occupancy[0, 0] == 1.0  # q_1 = 1 at t=0
    assert rec.occupancy[0, 2] == 1.0  # q_3 = 1
    assert rec.occupancy[0, 3] == 0.0


def test_choose_shortest_never_picks_longer():
    rng = random.Random(0)
    lengths = [5, 2, 2, 7, 0, 3]
    for _ in range(200):
        sampled = random.Random(rng.random()).sample(range(6), 3)
        pick = choose_shortest(sampled, lengths, rng)
        assert lengths[pick] == min(lengths[v] for v in sampled)


def test_choose_shortest_tie_uniform():
    rng = random.Random(1)
    lengths = [1, 1, 4]
    picks = [choose_shortest([0, 1, 2], lengths, rng) for _ in range(20000)]
    frac = picks.count(0) / len(picks)
    assert abs(frac - 0.5) <= 0.02
    assert 2 not in picks


def test_assignment_never_beats_sampled_minimum():
    failures = []

    def hook(target, pre_len, sampled, lengths):
        best = min(lengths[v] for v in sampled)
        if pre_len != best:
            failures.append((target, pre_len, best))

    simulate(generate_fixed_server_degree(50, 50, 10, seed=2), 2, 0.9, 50.0,
             seed=10, on_assign=hook)
    assert not failures


def test_full_sampling_realizes_ordinary_jsq():
    # d >= every neighborhood on the complete graph: the assigned server's
    # queue was a global minimum at assignment time
    failures = []

    def hook(target, pre_len, sampled, lengths):
        if pre_len != min(lengths):
            failures.append((target, pre_len))

    simulate(complete_bipartite(25, 25), 25, 0.9, 40.0, seed=11, on_assign=hook)
    assert not failures


def test_jsq2_complete_tracks_fixed_point():
    # midsize sanity: N=500 at lambda=0.8 stays near the limiting value
    summary = steady_state(
        complete_bipartite(500, 500), 2, 0.8, warmup=30, measure=60, replicas=2, seed=12
    )
    target = float(fixed_point(0.8, 2, 10)[1:].sum())
    assert abs(summary.mean_qlen - target) <= 0.08


def test_lambda_validation_and_override():
    g = complete_bipartite(4, 4)
    with pytest.raises(ValueError):
        simulate(g, 2, 1.2, 1.0)
    with pytest.raises(ValueError):
        simulate(g, 2, 0.0, 1.0)
    with pytest.warns(UserWarning):
        simulate(g, 2, 1.2, 1.0, allow_overload=True, seed=1)


def test_disconnected_needs_override():
    g = perfect_matching(4)
    with pytest.raises(ValueError):
        simulate(g, 1, 0.5, 1.0)
    rec = simulate(g, 1, 0.5, 5.0, allow_disconnected=True, seed=1)
    assert rec.event_count > 0


def test_steady_state_replica_stream_isolation():
    g = complete_bipartite(20, 20)
    s1 = steady_state(g, 2, 0.8, warmup=5, measure=20, replicas=2, seed=0)
    s2 = steady_state(g, 2, 0.8, warmup=5, measure=20, replicas=2, seed=0)
    assert np.array_equal(s1.replica_mean_qlen, s2.replica_mean_qlen)
    assert s1.replica_mean_qlen[0] != s1.replica_mean_qlen[1]  # distinct streams


# ---------------------------------------------------------------------------
# coupled runs


def test_coupled_complete_graph_no_mismatch():
    coupled = coupled_simulate(complete_bipartite(30, 25), 2, 0.8, 50.0, seed=5)
    assert coupled.mismatch_count == 0
    assert coupled.margin_min == 0
    assert np.array_equal(coupled.g_record.occupancy, coupled.k_record.occupancy)


def test_coupled_margin_nonnegative_and_delta_monotone():
    g = generate_fixed_server_degree(100, 100, 8, seed=3)
    coupled = coupled_simulate(g, 2, 0.85, 40.0, seed=6)
    assert coupled.margin_min >= 0
    assert np.all(np.diff(coupled.delta_series) >= 0)
    assert coupled.mismatch_count == coupled.delta_series[-1]


def test_coupled_braess_runs():
    coupled = coupled_simulate(braess_example(), 2, 0.8, 200.0, seed=7)
    assert coupled.margin_min >= 0
    assert coupled.event_count > 0


def test_coupled_mismatch_fraction_moderate_degree():
    # ln^2(1000) ~ 48 neighbors already keep most local views near global
    g = generate_fixed_server_degree(1000, 1000, 48, seed=1)
    coupled = coupled_simulate(g, 2, 0.8, 10.0, seed=1)
    frac = coupled.mismatch_count / coupled.arrival_count
    assert frac <= 0.15
    assert coupled.margin_min >= 0


@st.composite
def _small_graphs(draw):
    """Random bipartite graphs with N, M <= 8; every dispatcher keeps at
    least one server, servers may be isolated."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    rows = [
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)) for _ in range(m)
    ]
    return BipartiteGraph(n, m, rows)


@settings(max_examples=150, deadline=None)
@given(
    g=_small_graphs(),
    d=st.integers(1, 3),
    lam=st.floats(0.05, 0.95),
    horizon=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupling_margin_nonnegative_on_small_graphs(g, d, lam, horizon, seed):
    # coupled_simulate asserts the inequality after every event; a violation
    # raises InvariantViolation before the margin is ever returned
    coupled = coupled_simulate(g, d, lam, horizon, seed=seed, allow_disconnected=True)
    assert coupled.margin_min >= 0
    assert np.all(coupled.margin_series >= 0)
    assert np.all(np.diff(coupled.delta_series) >= 0)


def test_coupled_task_conservation():
    coupled = coupled_simulate(perfect_matching(20), 2, 0.6, 30.0, seed=8,
                               allow_disconnected=True)
    for rec in (coupled.g_record, coupled.k_record):
        assert rec.arrival_count == coupled.arrival_count


def test_coupled_rejects_bad_lambda():
    with pytest.raises(ValueError):
        coupled_simulate(complete_bipartite(4, 4), 2, 1.5, 1.0)


# ---------------------------------------------------------------------------
# diagnostics


def _record_from_counts(counts_rows, n):
    counts = np.asarray(counts_rows, dtype=float)
    return TrajectoryRecord(
        sample_times=np.arange(len(counts), dtype=float),
        occupancy=counts / n,
        overflow=np.zeros(len(counts), dtype=np.int64),
        n_servers=n,
    )


def lyapunov_double_sum(q_counts, k):
    """Direct double tail sum over occupancy counts (independent oracle)."""
    total = 0
    for i in range(k, len(q_counts) + 1):
        total += sum(q_counts[i - 1 :])
    return total


def test_lyapunov_single_server_examples():
    # one server holding three tasks: Q = (1,1,1,0,...)
    rec = _record_from_counts([[1, 1, 1, 0, 0]], n=1)
    assert lyapunov_series(rec, 1)[0] == 6.0
    assert lyapunov_series(rec, 2)[0] == 3.0
    assert lyapunov_series(rec, 4)[0] == 0.0  # beyond the longest queue
    rec0 = _record_from_counts([[0, 0, 0, 0, 0]], n=1)
    assert np.all(lyapunov_series(rec0, 1) == 0.0)


def test_lyapunov_closed_form_matches_double_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        lengths = rng.integers(0, 7, size=n)
        counts = [int((lengths >= i).sum()) for i in range(1, 9)]
        rec = _record_from_counts([counts], n=n)
        for k in (1, 2, 3):
            assert lyapunov_series(rec, k)[0] == lyapunov_double_sum(counts, k)


def test_lyapunov_rejects_overflowed_records():
    rec = _record_from_counts([[1, 1]], n=1)
    rec.overflow = np.array([1])
    with pytest.raises(ValueError):
        lyapunov_series(rec, 1)


def test_tail_moment_prefactor():
    assert tail_moment_margin([0.0], 0.8, 1) == pytest.approx(9.0 * 1.0, abs=1e-12)
    assert (1 + 0.8) / (1 - 0.8) == pytest.approx(9.0, abs=1e-12)


def test_tail_moment_margin_at_fixed_point():
    q = fixed_point(0.8, 2, 12)[1:]
    # k=2: 9 * q_1 - sum_{i>=2} q_i, hugely positive at the fixed point
    assert tail_moment_margin(q, 0.8, 2) > 0
    # lambda=0.5, k=1: margin = 3 - mean queue length
    q5 = fixed_point(0.5, 2, 12)[1:]
    assert tail_moment_margin(q5, 0.5, 1) == pytest.approx(3.0 - q5.sum(), abs=1e-12)


def test_simulation_tail_bound_small_system():
    summary = steady_state(complete_bipartite(50, 50), 2, 0.8, warmup=30,
                           measure=150, replicas=2, seed=13)
    for k in range(1, 5):
        assert tail_moment_margin(summary.occupancy_mean, 0.8, k) >= 0.0
