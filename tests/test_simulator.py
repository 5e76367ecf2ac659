import itertools
import math
import random
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from sparselb import simulator
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
    _min_rank,
    _rank_tables,
    _replica_stream,
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
    assert abs(rec.occupancy[:, 0].mean() - 0.5) <= 0.02


def test_mm1_mean_queue_length():
    # M/M/1: E[tasks in system] = rho / (1 - rho) = 1. The time average over T
    # has variance 2 rho (1 + rho) / (1 - rho)^4 / T = 24 / T, so 4 replicas of
    # 50000 give a standard error of 0.011 and the tolerance is 4.5 of them.
    summary = steady_state(
        complete_bipartite(1, 1), 1, 0.5, warmup=20, measure=50000, replicas=4, seed=2
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
    gen = np.random.default_rng(0)
    det = ServiceDistribution("deterministic")
    assert np.all(det.draw(gen, 10) == 1.0)
    par = ServiceDistribution("pareto")
    draws = par.draw(gen, 200_000)
    assert draws.min() >= 2.0 / 3.0  # scale parameter
    assert abs(draws.mean() - 1.0) <= 0.01
    with pytest.raises(ValueError):
        ServiceDistribution("uniform")
    # the runs take the kind's name only
    with pytest.raises(ValueError, match="service kind"):
        simulate(complete_bipartite(1, 1), 1, 0.5, 1.0, service=par)
    with pytest.raises(ValueError, match="service kind"):
        steady_state(complete_bipartite(1, 1), 1, 0.5, warmup=1.0, measure=1.0, service=par)


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


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("service", ["exponential", "deterministic"])
def test_recording_does_not_perturb_stream(service, d):
    g = generate_fixed_server_degree(40, 30, 3, seed=2)
    runs = [simulate(g, d, 0.9, 20.0, service=service, sample_interval=s, seed=5)
            for s in (None, 0.1, 0.37)]
    assert len(runs[0].sample_times) == 0 and runs[0].occupancy.shape == (0, 30)
    for rec in runs[1:]:
        assert np.array_equal(rec.final_queue_lengths, runs[0].final_queue_lengths)
        assert (rec.event_count, rec.arrival_count, rec.departure_count) == (
            runs[0].event_count, runs[0].arrival_count, runs[0].departure_count)


@pytest.mark.parametrize("service", ServiceDistribution.KINDS)
def test_block_seams_do_not_perturb_the_run(monkeypatch, service):
    # blocks of 7 events put a seam inside almost every segment between samples
    monkeypatch.setattr(simulator, "BLOCK", 7)
    g = generate_fixed_server_degree(40, 30, 3, seed=2)
    runs = [simulate(g, 3, 0.9, 20.0, service=service, sample_interval=s, seed=5, debug=True)
            for s in (None, 0.1, 0.37)]
    for rec in runs:
        assert np.array_equal(rec.final_queue_lengths, runs[0].final_queue_lengths)
        assert (rec.event_count, rec.arrival_count, rec.departure_count) == (
            runs[0].event_count, runs[0].arrival_count, runs[0].departure_count)
        assert rec.arrival_count - rec.departure_count == rec.final_queue_lengths.sum()
    assert runs[0].event_count > 100 * simulator.BLOCK


def test_coupled_block_seams_and_recording_do_not_perturb_the_run(monkeypatch):
    # blocks of 7 events put a seam inside almost every segment; sampling at
    # 0.1, 0.37 or only at 0 and the horizon must not move the run
    monkeypatch.setattr(simulator, "BLOCK", 7)
    g = generate_fixed_server_degree(40, 30, 3, seed=2)
    runs = [coupled_simulate(g, 2, 0.9, 20.0, sample_interval=s, seed=5) for s in (0.1, 0.37, 20.0)]
    assert len(runs[2].g_record.sample_times) == 2
    for rec in runs:
        assert (rec.event_count, rec.arrival_count, rec.mismatch_count, rec.margin_min) == (
            runs[0].event_count, runs[0].arrival_count, runs[0].mismatch_count, runs[0].margin_min)
    assert runs[0].mismatch_count > 0
    assert runs[0].event_count > 100 * simulator.BLOCK


@pytest.mark.parametrize("kernel, names", [
    (simulator._simulate_core, ("lengths", "Q", "tw", "top", "heap", "due", "c", "v", "w", "pair", "next_service",
                                "logged", "log", "i", "a", "b", "l", "lb")),
    (coupled_simulate, ("lengths", "Q_g", "Q_k", "top", "D", "delta", "margin_min")),
])
def test_event_loop_state_is_no_closure_cell(kernel, names):
    # a local that a nested function or comprehension reads becomes a closure
    # cell, which turns every per-event read or write into LOAD_DEREF/STORE_DEREF
    code = kernel.__code__
    assert set(names) <= set(code.co_varnames) | set(code.co_cellvars)
    assert not set(names) & set(code.co_cellvars)


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


def test_fractional_initial_lengths_are_refused():
    g = complete_bipartite(2, 2)
    with pytest.raises(ValueError, match=r"^queue length of server 0 must be an integer, not 1\.9$"):
        simulate(g, 2, 0.5, 1.0, initial_lengths=[1.9, 2.5])
    with pytest.raises(ValueError, match=r"^queue length of server 1 must be an integer, not 2\.0$"):
        simulate(g, 2, 0.5, 1.0, initial_lengths=[1, 2.0])
    from_numpy = simulate(g, 2, 0.5, 1.0, initial_lengths=np.array([1, 2]), seed=3)
    assert np.array_equal(from_numpy.occupancy, simulate(g, 2, 0.5, 1.0, initial_lengths=[1, 2], seed=3).occupancy)


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


@pytest.mark.parametrize("d, horizon, interval, depth", [
    (2, 60.0, 0.003, 30),  # several samples between two events: the later ones replay no event
    (1, 40.7, 0.1, 3),  # overflow, and samples within rounding past the horizon
    (2, 1000.0, 230.0, 2),  # samples blocks apart
])
@pytest.mark.parametrize("block", [simulator.BLOCK, 7])
def test_pair_kernel_records_match_list_kernel(monkeypatch, block, d, horizon, interval, depth):
    # a hook sends a pair run through the list kernel, which updates Q per
    # event and writes each sample's row at once; the draws are the same
    monkeypatch.setattr(simulator, "BLOCK", block)
    g = generate_fixed_server_degree(12, 9, 3, seed=4)
    pair, listed = [simulate(g, d, 0.95, horizon, sample_interval=interval, seed=7, depth=depth, on_assign=hook)
                    for hook in (None, lambda *args: None)]
    np.testing.assert_array_equal(pair.occupancy, listed.occupancy)
    np.testing.assert_array_equal(pair.overflow, listed.overflow)
    np.testing.assert_array_equal(pair.final_queue_lengths, listed.final_queue_lengths)
    assert (pair.event_count, pair.arrival_count) == (listed.event_count, listed.arrival_count)


# A row of five servers and a row of two: d = 3 samples three of five, and
# all of a shorter row. Both layouts: positions read through the CSR view,
# and a complete graph's positions taken as the servers themselves.
_SAMPLING_GRAPHS = {
    "rows": BipartiteGraph(5, 2, [[0, 1, 2, 3, 4], [1, 3]]),
    "complete": complete_bipartite(5, 1),
}
_SAMPLING_DRAWS = 20_000
_CHI2_P_MIN = 1e-3


@pytest.fixture(scope="module", params=sorted(_SAMPLING_GRAPHS))
def assignments(request):
    """(graph, the first _SAMPLING_DRAWS assignments of an empty-start d = 3
    run as (sampled servers in sample order, their queue lengths, target,
    target's queue length))."""
    g = _SAMPLING_GRAPHS[request.param]
    seen = []

    def hook(target, pre_len, sampled, lengths):
        if len(seen) < _SAMPLING_DRAWS:
            seen.append((tuple(sampled), tuple(lengths[v] for v in sampled), target, pre_len))

    simulate(g, 3, 0.5, 10_000.0, sample_interval=None, seed=31, on_assign=hook)
    assert len(seen) == _SAMPLING_DRAWS
    return g, seen


def _uniform_chi2_p(counts):
    counts = np.asarray(list(counts), dtype=float)
    return chi2.sf(((counts - counts.mean()) ** 2 / counts.mean()).sum(), len(counts) - 1)


def test_kernel_never_picks_longer_than_sampled_minimum(assignments):
    g, seen = assignments
    rows = [set(row) for row in g.adjacency]
    for sampled, lens, target, pre_len in seen:
        assert len(set(sampled)) == len(sampled)
        assert any(set(sampled) <= row and len(sampled) == min(3, len(row)) for row in rows)
        assert target in sampled and pre_len == min(lens)


def test_kernel_breaks_ties_uniformly(assignments):
    # rank of the target among the tied servers, per number of ties
    ranks = {2: Counter(), 3: Counter()}
    for sampled, lens, target, _ in assignments[1]:
        ties = sorted(v for v, l in zip(sampled, lens) if l == min(lens))
        if len(ties) > 1:
            ranks[len(ties)][ties.index(target)] += 1
    for k, counts in ranks.items():
        assert sum(counts.values()) >= 1000
        assert _uniform_chi2_p(counts[r] for r in range(k)) >= _CHI2_P_MIN


def test_kernel_samples_uniform_arrangements_of_a_row(assignments):
    # three of the five-server row: each of its 5*4*3 ordered samples alike
    counts = Counter(sampled for sampled, _, _, _ in assignments[1] if len(sampled) == 3)
    assert set(counts) == set(itertools.permutations(range(5), 3))
    assert _uniform_chi2_p(counts.values()) >= _CHI2_P_MIN


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
    # an allowed overload warns only once every other argument has passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would escape as UserWarning, not ValueError
        for lam in (1.0, 1.5):
            with pytest.raises(ValueError, match="warmup must be given"):
                steady_state(g, 2, lam, allow_overload=True)
            with pytest.raises(ValueError, match="measure"):
                steady_state(g, 2, lam, warmup=1.0, measure=0.0, allow_overload=True)
            with pytest.raises(ValueError, match="horizon"):
                simulate(g, 2, lam, 0.0, allow_overload=True)


def test_disconnected_needs_override():
    g = perfect_matching(4)
    with pytest.raises(ValueError):
        simulate(g, 1, 0.5, 1.0)
    rec = simulate(g, 1, 0.5, 5.0, allow_disconnected=True, seed=1)
    assert rec.event_count > 0


def test_distinct_seeds_give_distinct_replica_sets():
    g = complete_bipartite(50, 50)
    sets = [steady_state(g, 2, 0.8, warmup=5, measure=20, replicas=8, seed=s).replica_mean_qlen
            for s in range(8)]
    assert len({x for replicas in sets for x in replicas}) == 64


def test_replica_zero_is_not_the_graph_stream():
    # graph generators draw from default_rng(seed); simulate(seed) must not
    for seed in range(4):
        ours = _replica_stream(seed, 0).integers(0, 2**62, 4)
        assert not np.array_equal(ours, np.random.default_rng(seed).integers(0, 2**62, 4))


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_seed_is_named(seed):
    g = complete_bipartite(4, 4)
    for run in (lambda: simulate(g, 2, 0.5, 1.0, seed=seed),
                lambda: steady_state(g, 2, 0.5, warmup=1.0, measure=1.0, seed=seed),
                lambda: coupled_simulate(g, 2, 0.5, 1.0, seed=seed)):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, not {seed}$"):
            run()


def test_depth_beyond_the_index_limit_is_named():
    g = complete_bipartite(4, 4)
    depth = 99999999999999999999  # 20 digits: refused before any recording array exists
    for run in (lambda: simulate(g, 2, 0.5, 1.0, depth=depth),
                lambda: steady_state(g, 2, 0.5, warmup=1.0, measure=1.0, depth=depth),
                lambda: coupled_simulate(g, 2, 0.5, 1.0, depth=depth)):
        with pytest.raises(ValueError, match=rf"^depth must be below 2\^31, not {depth}$"):
            run()


def test_replicas_beyond_the_index_limit_are_named():
    replicas = 99999999999999999999  # refused before the per-replica arrays exist
    with pytest.raises(ValueError, match=rf"^replicas must be below 2\^31, not {replicas}$"):
        steady_state(complete_bipartite(4, 4), 2, 0.5, warmup=1.0, measure=1.0, replicas=replicas)


def test_steady_state_replica_stream_isolation():
    g = complete_bipartite(20, 20)
    s1 = steady_state(g, 2, 0.8, warmup=5, measure=20, replicas=2, seed=0)
    s2 = steady_state(g, 2, 0.8, warmup=5, measure=20, replicas=2, seed=0)
    assert np.array_equal(s1.replica_mean_qlen, s2.replica_mean_qlen)
    assert s1.replica_mean_qlen[0] != s1.replica_mean_qlen[1]  # distinct streams


@pytest.mark.parametrize("d, service", [(2, "exponential"), (3, "exponential"), (2, "deterministic")])
def test_steady_state_integer_times_give_the_float_bits(d, service):
    # the window integrals start from Q_i * warmup: integer times must not
    # make them integers, which would truncate every event time added later
    g = generate_fixed_server_degree(40, 30, 2, seed=4)
    ints, floats = (steady_state(g, d, 0.9, warmup=w, measure=m, replicas=2, service=service,
                                 seed=23, depth=8)
                    for w, m in ((5, 20), (5.0, 20.0)))
    assert ints.replica_mean_qlen.tobytes() == floats.replica_mean_qlen.tobytes()
    assert ints.replica_occupancy.tobytes() == floats.replica_occupancy.tobytes()


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


@settings(max_examples=100, deadline=None)
@given(
    g=_small_graphs(),
    d=st.integers(1, 3),
    lam=st.floats(0.1, 0.9),
    service=st.sampled_from(ServiceDistribution.KINDS),
    samples=st.integers(1, 40),
    depth=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_recorded_rows_match_the_state(g, d, lam, service, samples, depth, data, seed):
    # the horizon lies on the binary sample grid, so the last row is
    # recorded at it and holds the final state
    initial = data.draw(st.lists(st.integers(0, 6), min_size=g.n_servers, max_size=g.n_servers))
    rec = simulate(g, d, lam, samples / 4, service=service, initial_lengths=initial,
                   sample_interval=0.25, seed=seed, depth=depth, allow_disconnected=True, debug=True)
    final = rec.final_queue_lengths
    assert rec.sample_times[-1] == samples / 4
    levels = [np.count_nonzero(final >= i) / g.n_servers for i in range(1, depth + 1)]
    assert rec.occupancy[-1].tolist() == levels
    assert rec.overflow[-1] == np.count_nonzero(final > depth)
    assert 0 <= rec.departure_count <= rec.arrival_count + sum(initial)
    assert rec.arrival_count + sum(initial) - rec.departure_count == final.sum()


def _reference_min_rank(s, d, u):
    """The smallest p with C(s-1-p, d)/C(s, d) < 1 - u, from exact binomials
    and one rounded quotient each."""
    return next(p for p in range(s - d + 1) if math.comb(s - 1 - p, d) / math.comb(s, d) < 1 - u)


# a decimal grid, a binary one (it meets the table's exact quotients), and
# the two ends of the uniform draw
_U = np.unique(np.concatenate([
    np.linspace(0.0, 1.0, 1001)[:-1], np.arange(256) / 256, [math.nextafter(1.0, 0.0)],
]))


def test_min_rank_matches_exact_binomials():
    sizes = list(range(1, 9))
    for d in range(1, 9):
        table, bounds = _rank_tables(sizes, d)
        want = {s: [_reference_min_rank(s, min(d, s), u) for u in _U.tolist()] for s in sizes}
        for k, s in enumerate(sizes):  # one slice for every u
            got = _min_rank(table, bounds, k, _U)
            assert got.tolist() == want[s], (s, d)
        # every size at once, each u in its own slice
        k = np.repeat(np.arange(len(sizes)), len(_U))
        got = _min_rank(table, bounds, k, np.tile(_U, len(sizes)))
        assert got.tolist() == [r for s in sizes for r in want[s]], d


def test_coupled_constrained_tasks_stay_in_their_rows():
    # the one dispatcher reaches server 0 only, so at most 1 of 10 is ever busy
    coupled = coupled_simulate(BipartiteGraph(10, 1, [[0]]), 2, 0.5, 20.0, seed=3,
                               allow_disconnected=True)
    assert coupled.g_record.occupancy[:, 0].max() <= 0.1


def test_coupled_complete_graph_memory_stays_linear():
    # rows of K_{N,M} are one shared range; an index tuple per dispatcher
    # would take about 144 MB here
    g = complete_bipartite(2000, 2000)
    tracemalloc.start()
    try:
        coupled_simulate(g, 2, 0.8, 0.01, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


_GRID = 1.0 / 512  # binary: the windows below fall on sample times exactly


@settings(max_examples=30, deadline=None)
@given(
    g=_small_graphs(),
    d=st.integers(1, 3),
    lam=st.floats(0.1, 0.9),
    warmup=st.integers(0, 40).map(lambda k: k / 8),
    measure=st.integers(1, 80).map(lambda k: k / 8),
    service=st.sampled_from(ServiceDistribution.KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_area_equals_integrated_path(g, d, lam, warmup, measure, service, seed):
    # steady_state(replicas=1) and simulate share one stream, so a finely
    # recorded path of the same run integrates to the window areas; each
    # event moves one level by one, so it shifts a left Riemann sum by at
    # most one grid step
    s = steady_state(g, d, lam, warmup=warmup, measure=measure, replicas=1, service=service,
                     seed=seed, depth=64, allow_disconnected=True)
    rec = simulate(g, d, lam, warmup + measure, service=service, sample_interval=_GRID,
                   seed=seed, depth=64, allow_disconnected=True)
    assert not rec.overflow.any()
    window = rec.occupancy[round(warmup / _GRID) : round((warmup + measure) / _GRID)]
    riemann = window.sum(axis=0) * _GRID * g.n_servers
    area = s.replica_occupancy[0] * g.n_servers * measure
    bound = rec.event_count * _GRID + 1e-9
    assert np.all(np.abs(area - riemann) <= bound)
    assert abs(s.mean_qlen * g.n_servers * measure - riemann.sum()) <= bound


def test_coupled_task_conservation():
    coupled = coupled_simulate(perfect_matching(20), 2, 0.6, 30.0, seed=8,
                               allow_disconnected=True)
    for rec in (coupled.g_record, coupled.k_record):
        assert rec.arrival_count == coupled.arrival_count
        # tasks left at the horizon: sum_i Q_i, all of them within depth
        assert not rec.overflow.any()
        left = round(rec.n_servers * rec.occupancy[-1].sum())
        assert left > 0
        assert rec.departure_count == rec.arrival_count - left


@pytest.mark.parametrize("service", ServiceDistribution.KINDS)
def test_sample_past_the_horizon_holds_the_final_state(service):
    # 7 * 0.1 rounds to 0.7000000000000001: the last sample lies just past
    # the horizon and records the state at it
    rec = simulate(complete_bipartite(50, 50), 2, 0.9, 0.7, service=service, seed=4)
    assert rec.sample_times[-1] > 0.7 and len(rec.sample_times) == 8
    final = rec.final_queue_lengths
    assert final.sum() > 0
    levels = [np.count_nonzero(final >= i) / 50 for i in range(1, rec.depth + 1)]
    assert rec.occupancy[-1].tolist() == levels


def test_coupled_sample_past_the_horizon_holds_the_final_state():
    coupled = coupled_simulate(generate_fixed_server_degree(40, 30, 3, seed=2), 2, 0.9, 0.7, seed=4)
    for rec in (coupled.g_record, coupled.k_record):
        assert rec.sample_times[-1] > 0.7 and len(rec.sample_times) == 8
        assert not rec.overflow.any()
        left = round(rec.n_servers * rec.occupancy[-1].sum())
        assert left > 0
        assert left == rec.arrival_count - rec.departure_count


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
