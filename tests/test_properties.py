import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import row_lists

from sparselb.graph import (
    BipartiteGraph,
    braess_example,
    complete_bipartite,
    generate_fixed_server_degree,
    generate_geometric,
    generate_inhomogeneous,
    log_squared_degree_family,
    perfect_matching,
)
from sparselb.properties import (
    EnumerationCapError,
    _enumerate_pairs,
    _exact_deficiency,
    _pair_flow,
    _pair_network,
    _sampled_deficiency,
    bad_dispatcher_count,
    optimal_subcriticality_load,
    sparsity_deficiency,
    sparsity_trend,
    uniform_subcriticality_metric,
)


def linprog_min_max_load(graph, d):
    """Independent oracle: the min-max load as an explicit LP."""
    from scipy.optimize import linprog

    n, m = graph.n_servers, graph.n_dispatchers
    pairs = []
    for w, row in enumerate(graph.adjacency):
        dw = min(d, len(row))
        supply = (n / m) / math.comb(len(row), dw)
        for subset in itertools.combinations(row, dw):
            pairs.append((subset, supply))
    # variables: gamma entries per (pair, member), then t
    index = {}
    for k, (subset, _) in enumerate(pairs):
        for v in subset:
            index[(k, v)] = len(index)
    t_idx = len(index)
    n_vars = t_idx + 1
    c = np.zeros(n_vars)
    c[t_idx] = 1.0
    a_eq = np.zeros((len(pairs), n_vars))
    for k, (subset, _) in enumerate(pairs):
        for v in subset:
            a_eq[k, index[(k, v)]] = 1.0
    b_eq = np.ones(len(pairs))
    a_ub = np.zeros((n, n_vars))
    for k, (subset, supply) in enumerate(pairs):
        for v in subset:
            a_ub[v, index[(k, v)]] = supply
    a_ub[:, t_idx] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n_vars, method="highs")
    assert res.success
    return res.x[t_idx]


def test_uniform_metric_complete_exact():
    for n, m in ((4, 4), (8, 5), (3, 11)):
        value, _ = uniform_subcriticality_metric(complete_bipartite(n, m))
        assert value == 1.0


def test_uniform_metric_matching():
    value, _ = uniform_subcriticality_metric(perfect_matching(6))
    assert value == 1.0


def test_uniform_metric_braess():
    value, argmax = uniform_subcriticality_metric(braess_example())
    assert abs(value - 7 / 3) <= 1e-12
    assert argmax in (0, 1)


def _loop_uniform_metric(graph):
    """The uniform metric summed one dispatcher row at a time."""
    n, m = graph.n_servers, graph.n_dispatchers
    loads = np.zeros(n)
    for row in graph.adjacency:
        loads[np.asarray(row, dtype=np.int64)] += 1.0 / len(row)
    loads *= n / m
    argmax = int(np.argmax(loads))
    return float(loads[argmax]), argmax


@pytest.mark.parametrize(
    "build",
    [
        braess_example,
        lambda: perfect_matching(7),
        lambda: generate_fixed_server_degree(300, 200, 9, seed=2),
        lambda: generate_inhomogeneous(300, 40, 0.005, seed=3),  # most servers isolated
        lambda: generate_inhomogeneous(200, 150, np.linspace(0.01, 0.6, 150), seed=4),
        lambda: generate_geometric(400, 300, 0.09, seed=5),
    ],
)
def test_uniform_metric_matches_row_loop(build):
    # same additions in the same order, so equal to the last bit
    g = build()
    assert uniform_subcriticality_metric(g) == _loop_uniform_metric(g)


def test_optimal_load_oracles():
    rep = optimal_subcriticality_load(braess_example(), 2)
    assert abs(rep.optimal_load - 5 / 3) <= 1e-6
    assert rep.uniform_metric >= rep.optimal_load - 1e-9
    assert optimal_subcriticality_load(perfect_matching(6), 2).optimal_load == pytest.approx(1.0, abs=1e-9)
    assert optimal_subcriticality_load(complete_bipartite(4, 4), 2).optimal_load == pytest.approx(1.0, abs=1e-9)


def _small_instances():
    """Braess plus six small random graphs."""
    rng = np.random.default_rng(5)
    instances = [braess_example()]
    for k in range(6):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(3, 8))
        instances.append(generate_inhomogeneous(n, m, 0.5, seed=int(rng.integers(1e6))))
    return instances


def test_optimal_load_matches_lp_oracle():
    pytest.importorskip("scipy")
    for g in _small_instances():
        flow = optimal_subcriticality_load(g, 2).optimal_load
        lp = linprog_min_max_load(g, 2)
        assert abs(flow - lp) <= 2e-5, (g, flow, lp)


def test_optimal_load_is_tight():
    """The returned load carries all N units of supply, and 1e-7 less does
    not: the value is the optimum, not an upper bracket of it."""
    for g in _small_instances():
        t = optimal_subcriticality_load(g, 2).optimal_load
        n = g.n_servers
        net, capacities = _pair_network(_enumerate_pairs(g, 2), n)
        assert _pair_flow(net, capacities, n, t)[0] >= n - 1e-9, (g, t)
        assert _pair_flow(net, capacities, n, t - 1e-7)[0] < n - 1e-9, (g, t)


def test_optimal_load_on_a_600_server_chain():
    """Residual paths here run the length of the chain: a recursive walk
    of them passed Python's recursion limit."""
    g = BipartiteGraph(600, 600, [[w, w + 1] for w in range(599)] + [[0]])
    assert optimal_subcriticality_load(g, 2).optimal_load == 1.0


class _RecursiveDinic:
    """The max flow as `_Dinic` was before it walked paths on an arc stack:
    a full BFS per phase, then a recursive DFS over every arc."""

    def __init__(self, n_nodes):
        self.n = n_nodes
        self.head = [[] for _ in range(n_nodes)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, capacity):
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return idx

    def _bfs(self, s):
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 1e-12 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _dfs(self, u, t, pushed, level, it):
        if u == t:
            return pushed
        while it[u] < len(self.head[u]):
            idx = self.head[u][it[u]]
            v = self.to[idx]
            if self.cap[idx] > 1e-12 and level[v] == level[u] + 1:
                got = self._dfs(v, t, min(pushed, self.cap[idx]), level, it)
                if got > 1e-12:
                    self.cap[idx] -= got
                    self.cap[idx ^ 1] += got
                    return got
            it[u] += 1
        return 0.0

    def max_flow(self, s, t):
        total = 0.0
        while True:
            level = self._bfs(s)
            if level[t] < 0:
                return total, level
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, math.inf, level, it)
                if pushed <= 1e-12:
                    break
                total += pushed


def _reference_optimal_load(graph, d):
    """(optimal_load, gamma_support_size) as `optimal_subcriticality_load`
    computed them before it reused one network: the pair network rebuilt
    and solved by `_RecursiveDinic` at every Newton step."""
    pairs = _enumerate_pairs(graph, d)
    n, n_pairs = graph.n_servers, len(pairs)
    sink = 1 + n_pairs + n
    t = 1.0
    while True:
        net = _RecursiveDinic(sink + 1)
        pair_edges = []
        for k, (_, subset, supply) in enumerate(pairs):
            net.add_edge(0, 1 + k, supply)
            pair_edges.append([net.add_edge(1 + k, 1 + n_pairs + v, supply) for v in subset])
        for v in range(n):
            net.add_edge(1 + n_pairs + v, sink, t)
        flow, level = net.max_flow(0, sink)
        if flow >= n - 1e-9:
            break
        t += (n - flow) / sum(1 for v in range(n) if level[1 + n_pairs + v] >= 0)
    support = sum(
        1
        for (_, _, supply), edges in zip(pairs, pair_edges)
        for idx in edges
        if net.cap[idx ^ 1] > 1e-12 * max(1.0, supply)
    )
    return t, support


@pytest.mark.parametrize("d", [1, 2, 3])
def test_optimal_load_matches_recursive_rebuilt_reference(d):
    ramp = np.linspace(0.06, 0.5, 20)
    graphs = [generate_inhomogeneous(30, 20, ramp, s) for s in range(10)] + _small_instances()
    for g in graphs:
        rep = optimal_subcriticality_load(g, d)
        assert (rep.optimal_load, rep.gamma_support_size) == _reference_optimal_load(g, d), g


def test_optimal_load_invariants_random():
    rng = np.random.default_rng(9)
    for k in range(10):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, 9))
        g = generate_inhomogeneous(n, m, 0.6, seed=int(rng.integers(1e6)))
        rep = optimal_subcriticality_load(g, 2)
        assert rep.optimal_load >= 1.0 - 1e-9
        assert rep.uniform_metric >= rep.optimal_load - 1e-9


def test_enumeration_cap_refused():
    with pytest.raises(EnumerationCapError):
        optimal_subcriticality_load(complete_bipartite(60, 40), 20)


def test_gamma_support_reported():
    rep = optimal_subcriticality_load(braess_example(), 2)
    assert rep.gamma_support_size >= 6  # at least one route per dispatcher


def test_sparsity_complete_zero():
    g = complete_bipartite(8, 5)
    for eps in (0.01, 0.1, 0.3, 0.9):
        assert sparsity_deficiency(g, eps, mode="exact").deficiency == 0.0


def test_sparsity_matching_fixture():
    rep = sparsity_deficiency(perfect_matching(4), 0.4, mode="exact")
    assert rep.deficiency == 1.0
    assert len(rep.witness_subset) == 2


def test_sampled_equals_exact_on_reference_instance():
    g = generate_fixed_server_degree(12, 12, 6, seed=1)
    exact = sparsity_deficiency(g, 0.25, mode="exact")
    sampled = sparsity_deficiency(g, 0.25, mode="sampled", budget=4096)
    assert sampled.deficiency == exact.deficiency
    assert sampled.mode == "sampled"


def test_sampled_lower_bounds_exact():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(4, 15))
        m = int(rng.integers(3, 12))
        kind = trial % 3
        seed = int(rng.integers(1e6))
        if kind == 0:
            g = generate_inhomogeneous(n, m, 0.4, seed=seed)
        elif kind == 1:
            c = max(1, min(m, math.ceil(2 * m / n) + 1))
            g = generate_fixed_server_degree(n, m, c, seed=seed)
        else:
            g = generate_geometric(n, m, 0.6, seed=seed)
        eps = float(rng.uniform(0.05, 0.5))
        exact = sparsity_deficiency(g, eps, mode="exact").deficiency
        sampled = sparsity_deficiency(g, eps, mode="sampled", budget=64, seed=trial).deficiency
        assert sampled <= exact + 1e-15


def test_deficiency_monotone_in_epsilon():
    g = generate_fixed_server_degree(10, 10, 4, seed=2)
    values = [sparsity_deficiency(g, e, mode="exact").deficiency for e in (0.1, 0.2, 0.3, 0.45)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_complement_symmetry():
    g = generate_fixed_server_degree(10, 8, 3, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(40):
        size = int(rng.integers(1, 10))
        subset = rng.choice(10, size=size, replace=False).tolist()
        complement = [v for v in range(10) if v not in subset]
        for eps in (0.1, 0.25, 1 / 3):
            assert bad_dispatcher_count(g, subset, eps) == bad_dispatcher_count(
                g, complement, eps
            )


def test_exact_mode_refused_above_limit():
    g = generate_fixed_server_degree(23, 10, 3, seed=0)
    with pytest.raises(ValueError):
        sparsity_deficiency(g, 0.1, mode="exact")
    with pytest.raises(ValueError, match="^mode must be 'exact' or 'sampled', not 'bogus'$"):
        sparsity_deficiency(g, 0.1, mode="bogus")


def test_report_fields():
    g = perfect_matching(4)
    rep = sparsity_deficiency(g, 0.4, mode="sampled", budget=8, seed=1)
    assert rep.mode == "sampled"
    assert rep.subsets_probed >= 8
    assert 0.0 <= rep.deficiency <= 1.0
    count = bad_dispatcher_count(g, rep.witness_subset, 0.4)
    assert count / g.n_dispatchers == rep.deficiency


def test_trend_rows_and_csv():
    rows = sparsity_trend(log_squared_degree_family(), [0.1, 0.2], [32, 64], [0, 1], budget=32)
    assert len(rows) == 8
    assert {r.n for r in rows} == {32, 64}


def _reference_sampled_deficiency(graph, epsilon, budget, seed):
    """The sampled search written with one O(M) trial per flip probe, as
    `_sampled_deficiency` was before it scored flips from gain tables."""
    n = graph.n_servers
    rng = np.random.default_rng(seed)
    indptr, indices = graph.csr()
    degs = graph.dispatcher_degrees()
    thresholds = epsilon * (degs * n)

    def counts_of(member):
        return np.add.reduceat(member[indices].astype(np.int64), indptr[:-1])

    def bad_of(counts, size):
        return int(np.sum(np.abs(counts * n - size * degs) >= thresholds))

    rev = [np.asarray(row, dtype=np.int64) for row in row_lists(graph.reverse_csr())]
    probed = 0
    starts = []
    for _ in range(budget):
        size = int(rng.integers(1, n)) if n > 1 else 1
        member = np.zeros(n, dtype=bool)
        member[rng.choice(n, size=size, replace=False)] = True
        probed += 1
        starts.append((bad_of(counts_of(member), size), member))

    starts.sort(key=lambda item: -item[0])
    n_starts = 8 if n <= 512 else 2
    seen = set()
    basins = []
    for bad, member in starts:
        for cand in (member, ~member):
            if 0 < cand.sum() < n:
                key = cand.tobytes()
                if key not in seen:
                    seen.add(key)
                    basins.append(cand)
        if len(basins) >= 2 * n_starts:
            break

    best_bad, best_member = starts[0]
    for start in basins:
        member = start.copy()
        counts = counts_of(member)
        size = int(member.sum())
        current = bad_of(counts, size)
        improved = True
        while improved:
            improved = False
            for v in rng.permutation(n):
                delta = -1 if member[v] else 1
                if size + delta == 0 or size + delta == n:
                    continue
                trial = counts.copy()
                trial[rev[v]] += delta
                probed += 1
                bad = bad_of(trial, size + delta)
                if bad > current:
                    current = bad
                    member[v] = not member[v]
                    counts = trial
                    size += delta
                    improved = True
        if current > best_bad:
            best_bad, best_member = current, member
    return best_bad, best_member, probed


_SEARCH_CASES = {
    "fixed-degree-200": (lambda: generate_fixed_server_degree(200, 200, 12, seed=1), 0.1, 64, 0),
    "fixed-degree-120x90": (lambda: generate_fixed_server_degree(120, 90, 6, seed=2), 0.25, 32, 5),
    "log2-600": (lambda: log_squared_degree_family().build(600, 0), 0.1, 16, 0),  # N > 512
    "log2-700": (lambda: log_squared_degree_family().build(700, 3), 0.2, 8, 3),
    "inhomogeneous-isolated-servers": (
        lambda: generate_inhomogeneous(300, 40, 0.005, seed=3), 0.2, 32, 1
    ),
    "inhomogeneous-ramp": (
        lambda: generate_inhomogeneous(80, 60, np.linspace(0.02, 0.5, 60), seed=6), 0.15, 32, 2
    ),
    "geometric-isolated-servers": (lambda: generate_geometric(300, 60, 0.04, seed=4), 0.2, 32, 2),
    "geometric-150": (lambda: generate_geometric(150, 150, 0.15, seed=7), 0.1, 32, 4),
    "matching-5": (lambda: perfect_matching(5), 0.1, 4, 0),  # climbs sit at size 1 or N-1
    "matching-40": (lambda: perfect_matching(40), 0.3, 16, 1),
    "complete-30x20": (lambda: complete_bipartite(30, 20), 0.1, 16, 0),
    "complete-9x14": (lambda: complete_bipartite(9, 14), 0.05, 8, 2),
    "budget-1-fixed-degree": (lambda: generate_fixed_server_degree(100, 80, 6, seed=8), 0.1, 1, 6),
    "budget-1-inhomogeneous": (lambda: generate_inhomogeneous(50, 30, 0.2, seed=9), 0.3, 1, 0),
    # starts of exactly N/2 servers, where the count switches sides
    "half-size-starts": (lambda: generate_fixed_server_degree(6, 6, 3, seed=0), 0.2, 32, 0),
}


@pytest.mark.parametrize("case", sorted(_SEARCH_CASES))
def test_sampled_search_matches_one_flip_reference(case):
    build, epsilon, budget, seed = _SEARCH_CASES[case]
    g = build()
    expected = _reference_sampled_deficiency(g, epsilon, budget, seed)
    best, member, probed = _sampled_deficiency(g, epsilon, budget, seed)
    assert (best, probed) == (expected[0], expected[2])
    assert np.array_equal(member, expected[1])


def _reference_exact_deficiency(graph, epsilon):
    """Full enumeration written as a Python bitmask loop, one dispatcher at a
    time, as `_exact_deficiency` was before it scored blocks of masks through
    `_SubsetScorer`. Returns (best bad count, witness membership, probed)."""
    n, m = graph.n_servers, graph.n_dispatchers
    masks = [0] * m
    degs = [len(row) for row in graph.adjacency]
    for w, row in enumerate(graph.adjacency):
        acc = 0
        for v in row:
            acc |= 1 << v
        masks[w] = acc
    thresholds = [epsilon * (deg * n) for deg in degs]
    best, witness = 0, 0
    half = 1 << (n - 1) if n > 1 else 1
    for u in range(half):
        size = u.bit_count()
        if size == 0:
            continue
        bad = 0
        for w in range(m):
            if abs((masks[w] & u).bit_count() * n - size * degs[w]) >= thresholds[w]:
                bad += 1
        if bad > best:
            best, witness = bad, u
    return best, np.array([witness >> v & 1 == 1 for v in range(n)]), half


def _assert_exact_matches_reference(g, epsilon):
    best, member, probed = _exact_deficiency(g, epsilon)
    expected = _reference_exact_deficiency(g, epsilon)
    assert (best, probed) == (expected[0], expected[2])
    assert np.array_equal(member, expected[1])


_EXACT_CASES = {
    "n1": (lambda: complete_bipartite(1, 1), (0.1, 0.9)),
    "n2": (lambda: BipartiteGraph(2, 3, [[0], [0, 1], [1]]), (0.1, 0.5, 0.9)),
    "matching-4": (lambda: perfect_matching(4), (0.1, 0.4, 0.75)),
    "complete-8x5": (lambda: complete_bipartite(8, 5), (0.01, 0.3)),
    "braess": (braess_example, (0.1, 0.25, 1 / 3, 0.6)),
    # 2^19 masks in blocks of 1638; the witnesses lie past the first block
    "fixed-degree-20": (lambda: generate_fixed_server_degree(20, 10, 3, seed=2), (0.25, 0.6)),
    # counts up to 18, so count * N overflows a uint8 popcount
    "dense-18": (lambda: generate_inhomogeneous(18, 6, 0.9, seed=1), (0.05, 0.3)),
}


@pytest.mark.parametrize("case", sorted(_EXACT_CASES))
def test_exact_enumeration_matches_bitmask_reference(case):
    build, epsilons = _EXACT_CASES[case]
    g = build()
    for epsilon in epsilons:
        _assert_exact_matches_reference(g, epsilon)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 10))
    rows = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1).map(sorted), min_size=m, max_size=m
        )
    )
    return BipartiteGraph(n, m, rows)


@settings(max_examples=150, deadline=None)
@given(
    g=_small_graphs(),
    epsilon=st.floats(0.01, 0.99),
    budget=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_never_exceeds_exact(g, epsilon, budget, seed):
    # below 2^(N-1) probes the sampled mode searches rather than enumerates
    budget = min(budget, (1 << (g.n_servers - 1)) - 1)
    sampled = sparsity_deficiency(g, epsilon, mode="sampled", budget=budget, seed=seed)
    exact = sparsity_deficiency(g, epsilon, mode="exact")
    assert sampled.deficiency <= exact.deficiency
    _assert_exact_matches_reference(g, epsilon)
    count = bad_dispatcher_count(g, sampled.witness_subset, epsilon)
    assert count / g.n_dispatchers == sampled.deficiency


def test_refused_certifier_arguments_are_named():
    g = braess_example()
    for call, message in [
        (lambda: sparsity_deficiency(g, 0.1, seed=-1), "seed must be a non-negative integer, not -1"),
        (lambda: sparsity_deficiency(g, 2.0), "epsilon must be at most 1, not 2.0"),
        (lambda: sparsity_deficiency(g, 1e308), "epsilon must be at most 1, not 1e+308"),
        (lambda: optimal_subcriticality_load(g, 0), "d must be a positive integer, not 0"),
        (lambda: optimal_subcriticality_load(g, -1), "d must be a positive integer, not -1"),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    assert sparsity_deficiency(g, 1.0).deficiency == 0.0  # no deviation reaches 1
