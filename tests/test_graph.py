import io
import itertools
import math
import re
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import row_lists

from sparselb import graph as graph_module
from sparselb.graph import (
    FAMILIES,
    GENERATION_RETRIES,
    BipartiteGraph,
    GraphFormatError,
    GraphGenerationError,
    GraphSpec,
    braess_example,
    complete_bipartite,
    floyd_sample,
    generate_fixed_server_degree,
    generate_geometric,
    generate_inhomogeneous,
    perfect_matching,
    radius_for_mean_degree,
    read_graph,
    write_graph,
)
from sparselb.properties import bad_dispatcher_count, sparsity_deficiency
from sparselb.simulator import simulate, steady_state


def test_complete_bipartite_small():
    g = complete_bipartite(2, 3)
    assert g.n_edges == 6
    assert g.dispatcher_degrees().tolist() == [2, 2, 2]
    assert g.server_degrees().tolist() == [3, 3]
    g1 = complete_bipartite(1, 1)
    assert g1.n_edges == 1
    assert row_lists(g1.reverse_csr()) == [[0]]


def test_complete_bipartite_large_is_implicit():
    # must not materialize 10^8 edges: the degrees read the indptr arrays alone
    g = complete_bipartite(10**4, 10**4)
    with mock.patch.object(graph_module, "_dense", side_effect=AssertionError("index array built")):
        assert (g.dispatcher_degrees() == 10**4).all() and len(g.dispatcher_degrees()) == 10**4
        assert (g.server_degrees() == 10**4).all() and len(g.server_degrees()) == 10**4
        assert g.n_edges == 10**8
        assert g.is_complete and g.is_connected


def test_perfect_matching():
    g = perfect_matching(4)
    assert row_lists(g.reverse_csr()) == [[i] for i in range(4)]
    assert perfect_matching(1) == complete_bipartite(1, 1)
    g6 = perfect_matching(6)
    assert g6.n_edges == 6
    assert not g6.is_connected  # six components


def test_braess_example():
    g = braess_example()
    assert g.n_servers == g.n_dispatchers == 6
    assert g.n_edges == 14
    # server 0: own dispatcher plus the four sharing dispatchers
    assert g.server_degrees().tolist() == [5, 5, 1, 1, 1, 1]
    assert all(w in row for w, row in enumerate(row_lists(g.reverse_csr())))  # the matching edges
    assert g.is_connected


def test_adjacency_reverse_consistency(tmp_path):
    # re-derive one direction from the other on every builder, and check
    # both against the validating constructor fed the dispatcher rows
    write_graph(generate_fixed_server_degree(20, 30, 8, seed=6), tmp_path / "g.bpg")
    gs = [
        braess_example(),
        complete_bipartite(7, 5),
        perfect_matching(6),
        generate_fixed_server_degree(30, 20, 5, seed=3),
        generate_inhomogeneous(25, 15, 0.3, seed=4),
        generate_inhomogeneous(15, 25, 0.3, seed=4),
        generate_geometric(40, 30, 0.4, seed=5),
        generate_geometric(30, 40, 0.4, seed=5),
        read_graph(tmp_path / "g.bpg"),
    ]
    for g in gs:
        ref = BipartiteGraph(g.n_servers, g.n_dispatchers, g.adjacency)
        rows, reverse_rows = row_lists(g.csr()), row_lists(g.reverse_csr())
        assert [list(r) for r in g.adjacency] == rows == row_lists(ref.csr())
        assert reverse_rows == row_lists(ref.reverse_csr())
        rederived = [[] for _ in range(g.n_servers)]
        for w, row in enumerate(rows):
            for v in row:
                rederived[v].append(w)
        assert reverse_rows == rederived
        rederived_adj = [[] for _ in range(g.n_dispatchers)]
        for v, row in enumerate(reverse_rows):
            for w in row:
                rederived_adj[w].append(v)
        assert rows == rederived_adj
        assert g.server_degrees().tolist() == [len(row) for row in reverse_rows]
        assert g.dispatcher_degrees().tolist() == [len(row) for row in rows]


def test_degree_zero_dispatcher_rejected():
    with pytest.raises(ValueError):
        BipartiteGraph(3, 2, [[0, 1], []])


def test_duplicate_and_range_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(3, 1, [[0, 0]])
    with pytest.raises(ValueError):
        BipartiteGraph(3, 1, [[0, 3]])


@pytest.mark.parametrize("row, bad", [([1.5, 0.2], "1.5"), ([0, "1"], "'1'"), ([np.float64(1.0)], "np.float64(1.0)")])
def test_list_constructor_refuses_a_server_index_that_is_not_an_integer(row, bad):
    # refused, not truncated into the int32 indices, where [1.5, 0.2] would be the row [0, 1]
    message = f"server index of dispatcher 0 must be an integer, not {bad}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        BipartiteGraph(3, 1, [row])
    assert BipartiteGraph(3, 1, [[np.int64(2), 0]]).csr()[1].tolist() == [0, 2]


_HUGE = 99999999999999999999  # 20 digits: refused before anything is allocated or drawn


@pytest.mark.parametrize("n, m", [(_HUGE, 3), (3, _HUGE)])
@pytest.mark.parametrize("build", [
    complete_bipartite,
    lambda n, m: generate_fixed_server_degree(n, m, 1, seed=0),
    lambda n, m: generate_inhomogeneous(n, m, 0.5, seed=0),
    lambda n, m: generate_geometric(n, m, 0.5, seed=0),
], ids=["complete", "fixed-degree", "inhomogeneous", "geometric"])
def test_sizes_beyond_the_index_limit_are_refused(build, n, m):
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match=rf"^N={n} M={m} too large; N and M must be below 2\^31$"):
            build(n, m)


def test_fixed_degree_forced_cases():
    assert generate_fixed_server_degree(4, 4, 4, seed=0) == complete_bipartite(4, 4)
    g = generate_fixed_server_degree(4, 4, 2, seed=1)
    assert g.n_edges == 8
    assert (g.server_degrees() == 2).all()


def test_fixed_degree_rejects_bad_c():
    with pytest.raises(ValueError):
        generate_fixed_server_degree(4, 4, 5, seed=0)
    with pytest.raises(ValueError):
        generate_fixed_server_degree(4, 4, 0, seed=0)


def test_fixed_degree_impossible_regime_errors():
    # 2 servers of degree 1 cannot cover 3 dispatchers
    with pytest.raises(GraphGenerationError):
        generate_fixed_server_degree(2, 3, 1, seed=0)


def test_fixed_degree_every_seed_exact_degree():
    for seed in range(20):
        g = generate_fixed_server_degree(50, 37, 9, seed=seed)
        assert g.server_degrees().tolist() == [9] * 50
        assert g.n_edges == 450


def _reference_fixed_degree(n, m, c, seed):
    """The fixed-degree generator written one scalar draw per Floyd step,
    as `generate_fixed_server_degree` was before it drew in blocks."""
    rng = np.random.default_rng(seed)
    randbelow = lambda k: int(rng.integers(k))
    for attempt in range(GENERATION_RETRIES):
        rows = [[] for _ in range(m)]
        for v in range(n):
            for w in floyd_sample(m, c, randbelow):
                rows[w].append(v)
        if all(rows):
            meta = {"generator": "fixed-degree", "c": c, "seed": seed, "retries": attempt}
            return BipartiteGraph(n, m, [sorted(row) for row in rows], meta=meta)
    raise GraphGenerationError(
        f"fixed-degree generation left an isolated dispatcher in all "
        f"{GENERATION_RETRIES} attempts (N={n}, M={m}, c={c}); "
        f"the c/M regime is too sparse"
    )


@pytest.mark.parametrize(
    "n, m, c, seed, retries",
    [
        (1000, 1000, 7, 1, 1),
        (200, 50, 3, 5, 1),
        (1000, 1000, 4, 0, None),  # fails every attempt
        (30, 30, 1, 4, None),  # fails every attempt
        (4, 4, 4, 0, 0),  # c = M: the first draw has one value and consumes nothing
        (50, 37, 9, 3, 0),
        (300, 300, 20, 8, 0),
        (40, 3, 2, 2, 0),
    ],
)
def test_fixed_degree_matches_scalar_reference(n, m, c, seed, retries):
    expected = _assert_matches_reference(n, m, c, seed)
    if retries is None:
        assert expected is None
    else:
        assert expected.meta["retries"] == retries
        assert expected.n_edges == n * c


def _assert_matches_reference(*args, reference=_reference_fixed_degree, generator=generate_fixed_server_degree):
    """Assert that `generator(*args)` builds the scalar reference's graph
    and meta, or raises its error; return the reference graph, or None when
    both raise."""
    try:
        expected = reference(*args)
    except GraphGenerationError as error:
        with pytest.raises(GraphGenerationError) as raised:
            generator(*args)
        assert str(raised.value) == str(error)
        return None
    g = generator(*args)
    assert g.adjacency == expected.adjacency
    assert row_lists(g.reverse_csr()) == row_lists(expected.reverse_csr())
    assert _same_meta(g, expected)
    assert g.n_edges == expected.n_edges
    return expected


def _same_meta(a, b) -> bool:
    """Equal meta, array entries compared by value."""
    return a.meta.keys() == b.meta.keys() and all(np.array_equal(a.meta[k], b.meta[k]) for k in a.meta)


@st.composite
def _fixed_degree_case(draw):
    """(n, m, c, seed) with m <= 12; c = m and c = m - 1, where a server's
    draws often chain through replaced ones, are drawn often."""
    m = draw(st.integers(1, 12))
    c = draw(st.one_of(st.sampled_from([m, max(1, m - 1)]), st.integers(1, m)))
    return draw(st.integers(1, 12)), m, c, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=_fixed_degree_case())
def test_fixed_degree_matches_scalar_reference_on_random_cases(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize("chunk", [1, 5, 13])
def test_fixed_degree_matches_scalar_reference_across_chunk_seams(chunk):
    with mock.patch.object(graph_module, "_CHUNK", chunk):
        for n, m, c, seed in ((30, 12, 12, 0), (30, 12, 11, 1), (25, 40, 3, 2), (17, 9, 5, 3)):
            _assert_matches_reference(n, m, c, seed)


def _reference_inhomogeneous(n, m, p, seed):
    """The inhomogeneous generator's definition with Python lists: a fresh
    `rng.random(n)` per row, each row a list, the graph built from them."""
    p = np.broadcast_to(np.asarray(p, dtype=float), (m,))
    rng = np.random.default_rng(seed)
    rows, retries = [], 0
    for w in range(m):
        for attempt in range(GENERATION_RETRIES + 1):
            row = np.flatnonzero(rng.random(n) < p[w]).tolist()
            if row:
                break
        else:
            raise GraphGenerationError(
                f"dispatcher {w} stayed isolated after {GENERATION_RETRIES} resamples (p={p[w]:g}, N={n})"
            )
        retries += attempt
        rows.append(row)
    return BipartiteGraph(n, m, rows, meta={"generator": "inhomogeneous", "seed": seed, "retries": retries})


def _reference_geometric(n, m, radius, seed):
    """The geometric generator's definition with Python lists: all positions
    drawn up front, an isolated dispatcher moved, each row a list."""
    rng = np.random.default_rng(seed)
    sxy = rng.random((n, 2))
    dxy = rng.random((m, 2))
    rows, retries = [], 0
    for w in range(m):
        for attempt in range(GENERATION_RETRIES + 1):
            if attempt:
                dxy[w] = rng.random(2)
            diff = sxy - dxy[w]
            row = np.flatnonzero(diff[:, 0] ** 2 + diff[:, 1] ** 2 <= radius * radius).tolist()
            if row:
                break
        else:
            raise GraphGenerationError(
                f"dispatcher {w} found no server within radius {radius:g} "
                f"after {GENERATION_RETRIES} placements"
            )
        retries += attempt
        rows.append(row)
    meta = {"generator": "geometric", "radius": radius, "seed": seed, "retries": retries,
            "server_xy": sxy, "dispatcher_xy": dxy}
    return BipartiteGraph(n, m, rows, meta=meta)


_seeds = st.integers(0, 2**32 - 1)


@st.composite
def _inhomogeneous_case(draw):
    """(n, m, p, seed): a few servers and low edge probabilities among the
    rest, so that rows are often isolated and drawn again, and some
    dispatcher often stays isolated."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    probability = st.floats(0.005, 1.0)
    p = draw(st.one_of(probability, st.lists(probability, min_size=m, max_size=m)))
    return n, m, p, draw(_seeds)


@settings(max_examples=150, deadline=None)
@given(case=_inhomogeneous_case())
def test_inhomogeneous_matches_row_reference(case):
    _assert_matches_reference(*case, reference=_reference_inhomogeneous, generator=generate_inhomogeneous)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 12), radius=st.floats(0.02, 1.5), seed=_seeds)
def test_geometric_matches_row_reference(n, m, radius, seed):
    _assert_matches_reference(n, m, radius, seed, reference=_reference_geometric, generator=generate_geometric)


def test_fixed_degree_dispatcher_degree_statistics():
    # each dispatcher degree is a sum of N indicators with mean c/M
    n = m = 1000
    c = 48
    degs = []
    for seed in range(100):
        g = generate_fixed_server_degree(n, m, c, seed=seed)
        degs.append(g.dispatcher_degrees())
    degs = np.concatenate(degs).astype(float)
    se = degs.std(ddof=1) / math.sqrt(len(degs))
    assert abs(degs.mean() - c * n / m) <= 3 * se + 1e-12


def test_fixed_degree_dispatcher_degree_variance():
    # Each dispatcher degree is Binomial(N, c/M) marginally, and the degrees
    # of one graph sum to c*N exactly, so that graph's sample variance
    # (ddof=1, about the exact mean c*N/M) has expectation
    # N p (1-p) * M/(M-1). Graphs are independent: the tolerance is 4
    # standard errors of the per-graph variances' own spread. At c=20 an
    # isolated dispatcher (a retry, which conditions the law) has
    # probability below 1e-6 per graph.
    n = m = 200
    c = 20
    p = c / m
    variances = np.array([
        generate_fixed_server_degree(n, m, c, seed=seed).dispatcher_degrees().var(ddof=1)
        for seed in range(100)
    ])
    expected = n * p * (1 - p) * m / (m - 1)
    se = variances.std(ddof=1) / math.sqrt(len(variances))
    assert abs(variances.mean() - expected) <= 4 * se


def test_inhomogeneous_p_one_is_complete():
    assert generate_inhomogeneous(5, 3, 1.0, seed=0) == complete_bipartite(5, 3)


def test_inhomogeneous_rejects_bad_p():
    # NaN fails every comparison, so it is refused before any draw
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        for p in (0.0, [0.5, 1.2, 0.5], float("nan"), [0.5, float("nan"), 0.5]):
            with pytest.raises(ValueError, match=r"^edge probabilities must lie in \(0, 1\]$"):
                generate_inhomogeneous(5, 3, p, seed=0)


def test_inhomogeneous_refuses_an_int_past_the_float_range():
    for p in (10**400, [0.5, 10**400, 0.5]):
        with pytest.raises(ValueError, match=r"^edge probabilities must lie in \(0, 1\], not "):
            generate_inhomogeneous(5, 3, p, seed=0)


def test_inhomogeneous_degree_statistics():
    n = m = 1000
    p = 0.048
    degs = []
    for seed in range(100):
        g = generate_inhomogeneous(n, m, p, seed=seed)
        degs.append(g.dispatcher_degrees())
    degs = np.concatenate(degs).astype(float)
    se = degs.std(ddof=1) / math.sqrt(len(degs))
    assert abs(degs.mean() - n * p) <= 3 * se


def test_inhomogeneous_heterogeneous_groups():
    n = m = 500
    p = np.where(np.arange(m) < m // 2, 0.1, 0.5)
    lo, hi = [], []
    for seed in range(20):
        g = generate_inhomogeneous(n, m, p, seed=seed)
        degs = g.dispatcher_degrees().astype(float)
        lo.append(degs[: m // 2])
        hi.append(degs[m // 2 :])
    for group, target in ((np.concatenate(lo), 50.0), (np.concatenate(hi), 250.0)):
        se = group.std(ddof=1) / math.sqrt(len(group))
        assert abs(group.mean() - target) <= 3 * se


def test_inhomogeneous_edge_count_concentration():
    n, m, p = 200, 200, 0.1
    counts = np.array(
        [generate_inhomogeneous(n, m, p, seed=s).n_edges for s in range(100)], dtype=float
    )
    sd_single = math.sqrt(n * m * p * (1 - p))
    assert abs(counts.mean() - n * m * p) <= 4 * sd_single / math.sqrt(len(counts))


def test_geometric_full_radius_is_complete():
    g = generate_geometric(6, 4, math.sqrt(2), seed=0)
    assert g.is_complete


def test_geometric_rejects_nonpositive_radius():
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        for radius in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="^radius must be positive$"):
                generate_geometric(5, 5, radius, seed=0)


def test_geometric_refuses_a_radius_past_the_float_range():
    # a float radius past the unit square's diagonal gives the complete graph, inf too
    assert generate_geometric(4, 3, math.inf, seed=0).is_complete
    with pytest.raises(ValueError, match=f"^radius must lie within the float range, not {10**400}$"):
        generate_geometric(4, 3, 10**400, seed=0)


def test_geometric_positions_kept_and_consistent():
    g = generate_geometric(30, 20, 0.35, seed=8)
    sxy = g.meta["server_xy"]
    dxy = g.meta["dispatcher_xy"]
    for w, row in enumerate(g.adjacency):
        dist2 = ((sxy - dxy[w]) ** 2).sum(axis=1)
        assert sorted(np.flatnonzero(dist2 <= 0.35**2).tolist()) == list(row)


def test_geometric_mean_degree():
    # radius tuned so pi r^2 N = ln^2 N; boundary effects covered by the 10%
    n = 2000
    target = math.log(n) ** 2
    radius = radius_for_mean_degree(n, target)
    means = []
    for seed in range(50):
        g = generate_geometric(n, n, radius, seed=seed)
        means.append(g.dispatcher_degrees().mean())
    assert abs(np.mean(means) - target) <= 0.10 * target


def test_generator_determinism():
    specs = [
        GraphSpec("fixed-degree", n=40, m=30, c=6, seed=11),
        GraphSpec("inhomogeneous", n=40, m=30, p=0.2, seed=11),
        GraphSpec("geometric", n=40, m=30, radius=0.3, seed=11),
    ]
    for spec in specs:
        assert spec.build() == spec.build()


def test_different_seeds_differ():
    a = generate_fixed_server_degree(50, 50, 5, seed=0)
    b = generate_fixed_server_degree(50, 50, 5, seed=1)
    assert a != b


def test_floyd_sample_uniformity():
    # all 2-subsets of range(4) equally likely
    import random

    rng = random.Random(0)
    counts = {}
    for _ in range(60000):
        key = frozenset(floyd_sample(4, 2, rng.randrange))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - 10000) < 500  # ~4 sigma


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec("nonsense", n=4, m=4).build()
    with pytest.raises(ValueError):
        GraphSpec("fixed-degree", n=4, m=4).build()  # c missing
    with pytest.raises(ValueError):
        GraphSpec("geometric", n=4, m=4, radius=5.0).build()
    with pytest.raises(ValueError, match="^inhomogeneous spec needs p$"):
        GraphSpec("inhomogeneous", n=4, m=4).build()
    with pytest.raises(ValueError, match="^geometric spec needs radius$"):
        GraphSpec("geometric", n=4, m=4).build()
    for kind in ("complete", "matching", "fixed-degree"):  # n before any other field
        with pytest.raises(ValueError, match=f"^{kind} spec needs n$"):
            GraphSpec(kind).build()
    assert GraphSpec("braess").build() == braess_example()


def test_graph_spec_refuses_fields_its_kind_does_not_read():
    for spec, unread in [
        (GraphSpec("complete", n=5, m=5, c=3, p=0.5, radius=0.2), "c, p, radius"),
        (GraphSpec("braess", c=2), "c"),
        (GraphSpec("matching", n=4, radius=0.2), "radius"),
        (GraphSpec("matching", n=4, m=9), "m"),
        (GraphSpec("braess", n=40, m=7), "n, m"),
        (GraphSpec("complete", n=5, m=5, seed=3), "seed"),
        (GraphSpec("braess", n=6, c=2, seed=0), "n, c, seed"),
        (GraphSpec("fixed-degree", n=6, m=6, c=2, p=0.5), "p"),
        (GraphSpec("inhomogeneous", n=6, m=6, p=0.5, radius=0.3), "radius"),
        (GraphSpec("geometric", n=6, m=6, radius=0.5, c=2), "c"),
    ]:
        with pytest.raises(ValueError, match=f"^a {spec.kind} graph does not read {unread}$"):
            spec.build()


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_bad_generator_seed_is_named(seed):
    for build in (lambda: generate_fixed_server_degree(6, 6, 2, seed),
                  lambda: generate_inhomogeneous(6, 6, 0.5, seed),
                  lambda: generate_geometric(6, 6, 0.5, seed)):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, not {seed}$"):
            build()


# the documented member of each family at N = 1, 40 and 250 (M = N):
# ln 40 = 3.69, ln^2 40 = 13.6, ln 250 = 5.52, ln^2 250 = 30.5
_FAMILY_MEMBERS = [
    *(("fixed-degree-4", n, {"kind": "fixed-degree", "c": 4}) for n in (1, 40, 250)),
    ("fixed-degree-log", 1, {"kind": "fixed-degree", "c": 1}),
    ("fixed-degree-log", 40, {"kind": "fixed-degree", "c": 4}),
    ("fixed-degree-log", 250, {"kind": "fixed-degree", "c": 6}),
    ("fixed-degree-log2", 1, {"kind": "fixed-degree", "c": 1}),
    ("fixed-degree-log2", 40, {"kind": "fixed-degree", "c": 14}),
    ("fixed-degree-log2", 250, {"kind": "fixed-degree", "c": 31}),
    *(("errg-log2", n, {"kind": "inhomogeneous", "p": math.log(n) ** 2 / n}) for n in (1, 40, 250)),
    *(("geometric-log2", n, {"kind": "geometric", "radius": math.sqrt(math.log(n) ** 2 / (math.pi * n))})
      for n in (1, 40, 250)),
]


def test_families_registry_names():
    assert sorted(FAMILIES) == sorted({name for name, _, _ in _FAMILY_MEMBERS})
    for name, family in FAMILIES.items():
        assert family.name == name


@pytest.mark.parametrize("name, n, fields", _FAMILY_MEMBERS)
def test_family_spec_is_documented(name, n, fields):
    for seed in (0, 7):
        assert FAMILIES[name].spec(n, seed) == GraphSpec(n=n, m=n, seed=seed, **fields)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_build_is_spec_build(name):
    family = FAMILIES[name]
    for seed in (0, 1):
        graph = family.build(40, seed)
        assert graph == family.spec(40, seed).build()
        assert graph.n_servers == graph.n_dispatchers == 40


def test_io_round_trips(tmp_path):
    for g in (perfect_matching(2), braess_example(), generate_inhomogeneous(9, 7, 0.5, seed=2)):
        path = tmp_path / "g.bpg"
        write_graph(g, path)
        assert read_graph(path) == g


def test_io_braess_edge_count(tmp_path):
    path = tmp_path / "braess.bpg"
    write_graph(braess_example(), path)
    assert read_graph(path).n_edges == 14


def test_io_canonical_order(tmp_path):
    path = tmp_path / "g.bpg"
    write_graph(braess_example(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "BPG v1"
    edges = [tuple(map(int, ln.split())) for ln in lines[2:]]
    assert edges == sorted(edges)


def test_io_accepts_any_order(tmp_path):
    path = tmp_path / "g.bpg"
    path.write_text("BPG v1\n2 2 3\n1 1\n0 0\n0 1\n")
    g = read_graph(path)
    assert row_lists(g.reverse_csr()) == [[0, 1], [1]]


@pytest.mark.parametrize(
    "content",
    [
        "BGP v1\n2 2 1\n0 0\n",  # bad magic
        "BPG v1\n2 2\n",  # missing edge count
        "BPG v1\n4 1 1\n5 0\n",  # server index out of range
        "BPG v1\n2 2 2\n0 0\n0 0\n",  # duplicate
        "BPG v1\n2 2 2\n0 0\n",  # count mismatch
        "BPG v1\n2 2 1\n0 0 0\n",  # malformed edge line
        "BPG v1\n12 1 2\n0 0\n1_0 0\n",  # int() would read 10
        "BPG v1\n12 1 2\n0 0\n+5 0\n",  # int() would read 5
        "BPG v1\n12 1 2\n0 0\n\u0663 0\n",  # Arabic-Indic three
        "BPG v1\n1_2 1 2\n0 0\n1 0\n",  # dimension line
        "BPG v1\n2 2 1\n0 0\n",  # dispatcher 1 has no edge
        b"BPG v1\n2 1 2\n0 0\n\xff 0\n",  # not UTF-8 on line 4
        b"BPG\xff v1\n2 1 2\n0 0\n1 0\n",  # not UTF-8 in the header
        "BPG v1\n2 1 2\n0\x1c0\n1 0\n",  # str.split() separator, not ASCII whitespace
        "BPG v1\n2 1 1\n0\n0\n",  # an edge split over two lines
        "BPG v1\n11 1 1\n 10\n",  # a space, then one index
        "BPG v1\n2 2 2\n0 \n01 1\n",  # one index, then a space
        "BPG v1\n2 2 2\n0 0 1 1\n",  # two edges on a line
        "BPG v1\n2 1 2\n0 0\n1 0 0\n",  # three tokens on a line
        "BPG v1\n2 1 2\n0 0\n1 0 0",  # three tokens on a last line with no line ending
        "BPG v1\n2 1 2\n0 0\n18446744073709551617 0\n",  # 20 digits: 2^64 + 1 would wrap to 1
        "BPG v1\n0 1 0\n",  # no server
    ],
)
def test_io_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.bpg"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(GraphFormatError) as raised:
        read_graph(path)
    with mock.patch.object(graph_module, "_streamed_csr", return_value=None):
        with pytest.raises(GraphFormatError) as by_lines:
            read_graph(path)
    assert str(raised.value) == str(by_lines.value)  # the line reader's message


def test_io_reads_leading_zeros_as_decimal(tmp_path):
    path = tmp_path / "g.bpg"
    path.write_text("BPG v1\n11 8 8\n" + "".join(f"0 {w}\n" for w in range(7)) + "010 7\n")
    with mock.patch.object(graph_module, "_edge_lines", side_effect=AssertionError("line reader")):
        g = read_graph(path)
    assert row_lists(g.reverse_csr())[10] == [7] and g.adjacency[7] == [10]


def test_io_valid_file_takes_the_bulk_path(tmp_path):
    # over 2^18 bytes: the default read size meets several seams; reads of
    # 1, 2 and 7 bytes put a seam on every token and line end of a small file
    large = generate_fixed_server_degree(3000, 3000, 10, seed=7)
    assert large.n_edges >= 10_000
    small = generate_fixed_server_degree(12, 10, 3, seed=7)
    for chunk, g in ((graph_module._BODY_CHUNK, large), (1, small), (2, small), (7, small)):
        path = tmp_path / "g.bpg"
        write_graph(g, path)
        with mock.patch.object(graph_module, "_BODY_CHUNK", chunk), \
                mock.patch.object(graph_module, "_edge_lines", side_effect=AssertionError("line reader")):
            assert read_graph(path) == g


def test_io_streamed_read_cuts_at_line_ends(tmp_path):
    # every read size up to the file's: each byte of the body, digits of
    # two-digit indices too, falls at the end of a read at some size
    g = generate_fixed_server_degree(12, 11, 2, seed=7)
    path = tmp_path / "g.bpg"
    write_graph(g, path)
    for chunk in range(1, path.stat().st_size + 1):
        with mock.patch.object(graph_module, "_BODY_CHUNK", chunk), \
                mock.patch.object(graph_module, "_edge_lines", side_effect=AssertionError("line reader")):
            assert read_graph(path) == g, chunk


def _csr_fields(csr):
    return [(array.dtype, array.tolist()) for array in csr]


def test_io_fast_path_takes_the_writer_form_only(tmp_path):
    # the writer's form, leading zeros allowed, takes the fast path; each
    # single deviation from it reads to the same CSR through the line reader
    g = generate_fixed_server_degree(5, 4, 2, seed=1)
    path = tmp_path / "g.bpg"
    write_graph(g, path)
    lines = path.read_text().splitlines(keepends=True)
    head, first, second, rest = "".join(lines[:2]), lines[2], lines[3], "".join(lines[4:])
    body = first + second + rest
    cases = {
        "writer": (head + body, True),
        "leading-zero": (head + "0" + body, True),
        "crlf": (head + body.replace("\n", "\r\n", 1), False),
        "lone-cr": (head + body.replace("\n", "\r", 1), False),
        "all-lone-cr": ((head + body).replace("\n", "\r"), False),
        "tab": (head + body.replace(" ", "\t", 1), False),
        "two-spaces": (head + body.replace(" ", "  ", 1), False),
        "leading-space": (head + " " + body, False),
        "trailing-space": (head + body.replace("\n", " \n", 1), False),
        "blank-line": (head + "\n" + body, False),
        "swapped": (head + second + first + rest, False),
        "unended": (head + body[:-1], False),
    }
    for name, (text, fast) in cases.items():
        path.write_bytes(text.encode("ascii"))
        with mock.patch.object(graph_module, "_edge_lines", wraps=graph_module._edge_lines) as slow:
            assert _csr_fields(read_graph(path).reverse_csr()) == _csr_fields(g.reverse_csr()), name
        assert slow.called != fast, name


@pytest.mark.parametrize(
    "content, where, message",
    [
        ("BGP v1\n2 2 1\n0 0\n", ", line 1", "bad header 'BGP v1'; expected 'BPG v1'"),
        ("BPG v1\n2 1 2\n0 0\n1 x\n", ", line 4", "non-integer edge"),
        ("BPG v1\r\n2 1 2\r\n0 0\r\n\r\n1 0 0\r\n", ", line 5", "expected '<server> <dispatcher>'"),
        ("BPG v1\r4 1 2\r0 0\r5 0\r", ", line 4", "server index 5 out of range"),
        ("BPG v1\n4 2 2\n4 0\n0 1\n", ", line 3", "server index 4 out of range"),
        ("BPG v1\n4 2 2\n0 0\n0 2\n", ", line 4", "dispatcher index 2 out of range"),
        ("BPG v1\n4 1 1\n0 99999999999999999999999\n", ", line 3",
         "dispatcher index 99999999999999999999999 out of range"),
        ("BPG v1\n4 2 2\n0 0\n00 0\n", ", line 4", "duplicate edge (0, 0)"),
        # the first bad line in file order, whichever check finds it
        ("BPG v1\n4 2 3\n1 0\n1 00\n7 0\n1 x\n", ", line 4", "duplicate edge (1, 0)"),
        ("BPG v1\n4 2 3\n0 0\n7 0\n1 x\n", ", line 4", "server index 7 out of range"),
        # N and M stay below 2^31, checked before anything is allocated
        ("BPG v1\n1 99999999999999999999 1\n0 0\n", ", line 2",
         "dimensions N=1 M=99999999999999999999 too large; N and M must be below 2^31"),
        ("BPG v1\n2147483648 1 1\n0 0\n", ", line 2",
         "dimensions N=2147483648 M=1 too large; N and M must be below 2^31"),
        ("BPG v1\n1 2147483648 1\n0 0\n", ", line 2",
         "dimensions N=1 M=2147483648 too large; N and M must be below 2^31"),
        # int() refuses over 4300 digits: an index or dimension that long is out of range
        pytest.param("BPG v1\n2 1 1\n0 " + "1" * 5000 + "\n", ", line 3",
                     "dispatcher index " + "1" * 20 + "... (5000 digits) out of range", id="long-index"),
        pytest.param("BPG v1\n2 1 1\n" + "0" * 5000 + "2 0\n", ", line 3",
                     "server index 2 out of range", id="long-zero-padded-index"),
        pytest.param("BPG v1\n" + "9" * 5000 + " 1 1\n0 0\n", ", line 2",
                     "dimensions N=" + "9" * 20 + "... (5000 digits) M=1 too large; N and M must be below 2^31",
                     id="long-N"),
        pytest.param("BPG v1\n2 1 " + "1" * 5000 + "\n0 0\n", ", line 2",
                     "edge count E=" + "1" * 20 + "... (5000 digits) too large; E is at most N*M < 2^62",
                     id="long-E"),
        # a long header or dimension token is shown by its start and length
        pytest.param("BPG v2" + "y" * 5000 + "\n", ", line 1",
                     "bad header 'BPG v2" + "y" * 14 + "... (5006 bytes)'; expected 'BPG v1'", id="long-header"),
        pytest.param("BPG v1\n1 2 " + "1" * 5000 + "x\n", ", line 2",
                     "non-integer dimensions: ['1', '2', '" + "1" * 20 + "... (5001 bytes)']",
                     id="long-non-integer-dimension"),
        ("BPG v1\n2 2 2\n0 0\n", "", "edge count mismatch: header says 2, found 1"),
        ("BPG v1\n2 2 1\n0 0\n", "", "dispatcher 1 has no compatible server"),
    ],
)
def test_io_errors_name_file_and_line(tmp_path, content, where, message):
    path = tmp_path / "bad.bpg"
    path.write_bytes(content.encode("ascii"))
    with pytest.raises(GraphFormatError) as raised:
        read_graph(path)
    assert str(raised.value) == f"{path}{where}: {message}"


@st.composite
def _bpg_text(draw):
    """(graph from the list constructor, a BPG v1 file holding it in any
    order, with blank lines, tabs, leading zeros and mixed line endings)."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7))
    rows = [
        sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        for _ in range(m)
    ]
    edges = draw(st.permutations([(v, w) for w, row in enumerate(rows) for v in row]))
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    gap = st.text(alphabet=" \t", min_size=0, max_size=3)
    sep = st.text(alphabet=" \t", min_size=1, max_size=3)
    index = lambda i: draw(st.sampled_from(["", "0", "00"])) + str(i)
    lines = ["BPG v1" + draw(ending), f"{n} {m} {len(edges)}" + draw(ending)]
    for v, w in edges:
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(gap) + draw(ending))
        lines.append(draw(gap) + index(v) + draw(sep) + index(w) + draw(gap) + draw(ending))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line ending at the end of the file
    return BipartiteGraph(n, m, rows), text


@settings(max_examples=150, deadline=None)
@given(case=_bpg_text())
def test_io_bulk_reader_matches_list_constructor(tmp_path_factory, case):
    expected, text = case
    path = tmp_path_factory.mktemp("bpg") / "g.bpg"
    path.write_bytes(text.encode("ascii"))
    g = read_graph(path)
    assert (g.n_servers, g.n_dispatchers, g.n_edges) == (
        expected.n_servers, expected.n_dispatchers, expected.n_edges
    )
    assert g.adjacency == expected.adjacency
    assert row_lists(g.reverse_csr()) == row_lists(expected.reverse_csr())


@st.composite
def _mutated_bpg(draw):
    """A small BPG file from `_bpg_text` with one to three bytes replaced,
    inserted or deleted, or its graph in the writer's form with up to three
    digits, spaces or LFs. Nearly every mutation takes a body out of the
    writer's form (an edge count, a range or the edge order breaks), so the
    unmutated writer's form is what reaches the fast path's accepting branch."""
    g, text = draw(_bpg_text())
    alphabet, least = b"0123456789 \t\n\r\x0b\x0c\x1cx+\xff", 1
    if draw(st.booleans()):
        text = f"BPG v1\n{g.n_servers} {g.n_dispatchers} {g.n_edges}\n" + "".join(
            f"{v} {w}\n" for v, row in enumerate(row_lists(g.reverse_csr())) for w in row)
        alphabet, least = b"0123456789 \n", 0
    data = bytearray(text.encode("ascii"))
    for _ in range(draw(st.integers(least, 3))):
        i = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            data.insert(i, byte)
        elif i < len(data):
            data[i : i + 1] = bytes([byte]) if op == "replace" else b""
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(data=_mutated_bpg())
def test_io_bulk_reader_matches_line_reader(data):
    def outcome():
        try:
            n, m, indptr, indices = graph_module._parse_bpg(io.BytesIO(data), "g.bpg")
        except GraphFormatError as exc:
            return str(exc)
        return n, m, indptr.tolist(), indices.tolist()

    with mock.patch.object(graph_module, "_streamed_csr", return_value=None):
        by_lines = outcome()  # every body through the line reader
    # reads of 1, 2 and 7 bytes put a token or a line end on every seam
    for chunk in (graph_module._BODY_CHUNK, 1, 2, 7):
        with mock.patch.object(graph_module, "_BODY_CHUNK", chunk), \
                mock.patch.object(graph_module, "_edge_lines", wraps=graph_module._edge_lines) as slow:
            assert outcome() == by_lines
        assert not (slow.called and _in_writer_form(data, by_lines))


def _in_writer_form(data: bytes, outcome) -> bool:
    """Whether the line reader read `data` to a graph, and its body after
    two LF-ended header lines is in the writer's form: lines of two digit
    runs split by one space and ended by LF, the edges strictly ascending."""
    parts = data.split(b"\n", 2)
    if not isinstance(outcome, tuple) or len(parts) < 3 or b"\r" in parts[0] + parts[1]:
        return False
    edges = [tuple(map(int, line.split())) for line in parts[2].splitlines()]
    return re.fullmatch(rb"(\d+ \d+\n)*", parts[2]) is not None and edges == sorted(set(edges))


def test_csr_is_cached_and_read_only():
    # each generator supplies one direction; the other is sorted on first use
    for g in (generate_fixed_server_degree(30, 20, 5, seed=3), generate_inhomogeneous(30, 20, 0.3, seed=3)):
        for csr, degrees in ((g.csr, g.dispatcher_degrees), (g.reverse_csr, g.server_degrees)):
            indptr, indices = csr()
            assert csr()[1] is indices
            assert not indptr.flags.writeable and not indices.flags.writeable
            assert indptr.tolist() == [0, *np.cumsum(degrees()).tolist()]
        assert row_lists(g.csr()) == g.adjacency
        rederived = sorted((v, w) for w, row in enumerate(g.adjacency) for v in row)
        assert [(v, w) for v, row in enumerate(row_lists(g.reverse_csr())) for w in row] == rederived


def test_flip_keys_past_2_31_are_int64():
    # N * M = 2^32: keys v * M + w would wrap in int32
    n = 2**16
    g = BipartiteGraph(n, n, [[(w + 1) % n] for w in range(n)])
    indptr, indices = g.reverse_csr()
    assert indptr.tolist() == list(range(n + 1)) and indices.dtype == np.int32
    assert indices.tolist() == [(v - 1) % n for v in range(n)]


def test_generated_and_written_graph_sorts_no_edge_keys(tmp_path):
    # the writer reads the server-major CSR that the fixed-degree generator supplies
    g = generate_fixed_server_degree(300, 200, 4, seed=1)
    with mock.patch.object(graph_module, "_flip", side_effect=AssertionError("edge keys sorted")):
        write_graph(g, tmp_path / "g.bpg")
        assert (g.server_degrees() == 4).all()
    assert read_graph(tmp_path / "g.bpg") == g


def test_row_lists_are_cached_views(tmp_path):
    write_graph(generate_fixed_server_degree(60, 50, 6, seed=1), tmp_path / "g.bpg")
    for g in (generate_inhomogeneous(40, 30, 0.1, seed=2), read_graph(tmp_path / "g.bpg")):
        assert g.adjacency is g.adjacency
        assert all(type(row) is list for row in g.adjacency)
    g = complete_bipartite(10**4, 10**4)
    assert g.adjacency[0] == range(10**4) and g.adjacency[-1] == range(10**4)


def test_array_consumers_on_a_read_graph_build_no_row_lists(tmp_path):
    write_graph(generate_fixed_server_degree(60, 50, 6, seed=1), tmp_path / "g.bpg")
    g = read_graph(tmp_path / "g.bpg")
    with mock.patch.object(graph_module, "_row_lists", side_effect=AssertionError("row lists built")):
        assert g.is_connected
        steady_state(g, 2, 0.8, warmup=5, measure=20, replicas=2, seed=3)
        steady_state(g, 3, 0.8, warmup=5, measure=20, replicas=1, seed=3)
        simulate(g, 3, 0.8, 10.0, service="pareto", seed=4)
        report = sparsity_deficiency(g, 0.1, budget=16, seed=2)
        bad_dispatcher_count(g, report.witness_subset, 0.1)
        write_graph(g, tmp_path / "h.bpg")


def _write_per_edge(graph, path):
    """The BPG writer with one write per edge, from the row lists."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("BPG v1\n")
        fh.write(f"{graph.n_servers} {graph.n_dispatchers} {graph.n_edges}\n")
        for v, row in enumerate(row_lists(graph.reverse_csr())):
            for w in row:
                fh.write(f"{v} {w}\n")


def test_write_graph_matches_per_edge_writer(tmp_path):
    graphs = [
        complete_bipartite(7, 5),
        perfect_matching(6),
        braess_example(),
        BipartiteGraph(5, 2, [[3], [1, 3]]),  # servers 0, 2 and 4 isolated
        generate_fixed_server_degree(300, 200, 4, seed=1),
        generate_inhomogeneous(120, 80, 0.02, seed=2),
        generate_geometric(150, 100, 0.1, seed=3),
        BipartiteGraph(4, 100_003, [[w % 4] for w in range(100_003)]),  # six-digit dispatchers
        BipartiteGraph(6, 5000, [[1] if w % 3 else [1, 4] for w in range(5000)]),  # M >> N, servers isolated
    ]
    for k, g in enumerate(graphs):
        write_graph(g, tmp_path / f"{k}.bpg")
        _write_per_edge(g, tmp_path / f"{k}.ref")
        assert (tmp_path / f"{k}.bpg").read_bytes() == (tmp_path / f"{k}.ref").read_bytes()
        assert read_graph(tmp_path / f"{k}.bpg") == g


def _bfs_connected(g) -> bool:
    """Breadth-first search over the row lists from dispatcher 0."""
    seen_d, seen_s = {0}, set()
    queue = deque([0])
    reverse_rows = row_lists(g.reverse_csr())
    while queue:
        for v in g.adjacency[queue.popleft()]:
            if v not in seen_s:
                seen_s.add(v)
                for w in reverse_rows[v]:
                    if w not in seen_d:
                        seen_d.add(w)
                        queue.append(w)
    return len(seen_s) == g.n_servers and len(seen_d) == g.n_dispatchers


@st.composite
def _small_graph(draw):
    """Up to 14 servers and dispatchers with rows of 1-3 servers: isolated
    servers and several components are common."""
    n, m = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))) for _ in range(m)]
    return BipartiteGraph(n, m, rows)


@settings(max_examples=300, deadline=None)
@given(g=_small_graph())
def test_connectivity_matches_plain_bfs(g):
    assert g.is_connected == _bfs_connected(g)


def _two_chains(k: int, joined: bool) -> BipartiteGraph:
    """Even and odd servers, each chained by its own dispatchers; the last
    dispatcher holds server 0, and server 2k-1 too if `joined`."""
    rows = [[v, v + 2] for v in range(2 * k - 2)]
    rows.append([0, 2 * k - 1] if joined else [0])
    return BipartiteGraph(2 * k, len(rows), rows)


def _random_path(n: int, seed: int, cut: bool = False) -> BipartiteGraph:
    """A path through all n servers in a random order, one dispatcher per
    step; `cut` drops the middle dispatcher."""
    order = np.random.default_rng(seed).permutation(n).tolist()
    rows = [sorted(order[i : i + 2]) for i in range(n - 1) if not (cut and i == n // 2)]
    return BipartiteGraph(n, len(rows), rows)


def test_connectivity_explicit_cases():
    assert perfect_matching(1).is_connected
    assert not any(perfect_matching(n).is_connected for n in (2, 3, 50))
    for k in (2, 3, 40):
        assert _two_chains(k, joined=True).is_connected
        assert not _two_chains(k, joined=False).is_connected
    path = _random_path(4000, seed=1)
    assert path.is_connected and _bfs_connected(path)
    assert not _random_path(4000, seed=1, cut=True).is_connected


def test_connectivity_flag_matches_bfs():
    g = braess_example()
    assert g.is_connected
    # two disjoint stars: dispatchers {0} -> {0,1}, {1} -> {2}
    g2 = BipartiteGraph(3, 2, [[0, 1], [2]])
    assert not g2.is_connected


def _traced_peak(run) -> int:
    """The peak bytes traced by tracemalloc while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Traced peaks of the bulk graph paths at N = 4000, measured before they were
# rebuilt from blocks (numpy 2.4.6): each may grow by at most 1 MB.
BULK_PEAKS = {
    "fixed-degree": (lambda: generate_fixed_server_degree(4000, 4000, 69, 0), 5_620_000),
    "errg-log2": (lambda: FAMILIES["errg-log2"].build(4000, 0), 6_520_000),
    "geometric-log2": (lambda: FAMILIES["geometric-log2"].build(4000, 0), 6_320_000),
}


@pytest.mark.parametrize("name", sorted(BULK_PEAKS))
def test_generator_peak_memory(name):
    build, before = BULK_PEAKS[name]
    assert _traced_peak(build) <= before + 10**6


def test_write_graph_peak_memory(tmp_path):
    g = generate_fixed_server_degree(4000, 4000, 69, 0)
    assert _traced_peak(lambda: write_graph(g, tmp_path / "g.bpg")) <= 180_000 + 10**6


def test_read_graph_and_flip_peak_memory(tmp_path):
    # the reader holds its int32 indices, the indptr and a few reads' worth
    # of temporaries, never the whole file; the flip holds two int32 arrays
    g = generate_fixed_server_degree(2000, 2000, 40, seed=5)
    e = g.n_edges
    path = tmp_path / "g.bpg"
    write_graph(g, path)
    for chunk in (2**14, graph_module._BODY_CHUNK):
        with mock.patch.object(graph_module, "_BODY_CHUNK", chunk):
            assert _traced_peak(lambda: read_graph(path)) <= 12 * e + 8 * chunk
    read = read_graph(path)
    assert _traced_peak(read.csr) <= 8 * e + 16 * (g.n_servers + g.n_dispatchers + 2)  # the first csr()
    assert read == g


def test_header_edge_count_beyond_the_file_allocates_nothing(tmp_path):
    # 4 bytes an edge line: E = 10^9 cannot fit in 30 bytes, so the line
    # reader gives the count mismatch and no E-sized array is made
    path = tmp_path / "g.bpg"
    path.write_text("BPG v1\n2 2 1000000000\n0 0\n1 1\n")

    def refused():
        with pytest.raises(GraphFormatError, match=r"edge count mismatch: header says 1000000000, found 2$"):
            read_graph(path)

    with mock.patch.object(graph_module, "_streamed_csr", side_effect=AssertionError("E-sized array")):
        assert _traced_peak(refused) <= 10**6
