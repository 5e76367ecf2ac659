"""Certification of compatibility graphs against two sufficient conditions.

Proportional sparsity: for every server subset U, all but a vanishing
fraction of dispatchers see U in their neighborhood in proportion |U|/N.
The checker reports the worst deviation found: exactly (full enumeration,
small N) or as a certified lower bound (random probing plus greedy local
search). No efficient upper-bound certificate is known for the sup over
2^N subsets, so sampled mode never claims one.

Subcriticality: some static randomized split of each dispatcher's load
keeps every server's normalized load at most 1 in the limit. The uniform
split gives the closed-form metric max_v (N/M) sum_{w ~ v} 1/deg(w); the
exact finite-N min-max load is the smallest server capacity t at which a
max flow carries all N units of supply. That flow is concave and piecewise
linear in t, so Newton steps along its minimum cut reach the optimum
exactly after at most N + 1 max-flow solves (no LP, no tolerance).

Both conditions are asymptotic statements about graph sequences; at a
single finite N these routines report the finite-N quantities and leave
threshold interpretation to the caller.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, pairwise
from typing import Sequence

import numpy as np

from .graph import BipartiteGraph, GraphFamily
from .records import require_finite_positive, require_positive_int, require_seed

ENUMERATION_CAP = 10**6
EXACT_MAX_SERVERS = 22
_FLOW_EPS = 1e-12


class EnumerationCapError(ValueError):
    """Raised when the exact min-max would enumerate too many (w, U) pairs."""


# ---------------------------------------------------------------------------
# subcriticality


@dataclass
class SubcriticalityReport:
    """Finite-N load diagnostics for one graph and sample size d."""

    uniform_metric: float
    argmax_server: int
    optimal_load: float
    gamma_support_size: int


def uniform_subcriticality_metric(graph: BipartiteGraph) -> tuple[float, int]:
    """Max over servers of (N/M) sum_{w ~ v} 1/deg(w), with its argmax.

    Under the uniform split each dispatcher contributes 1/deg(w) to every
    neighbor regardless of d, so the value does not depend on d.
    """
    n, m = graph.n_servers, graph.n_dispatchers
    if graph.is_complete:
        # (N/M) * M * (1/N) without float accumulation error
        return 1.0, 0
    # bincount adds each server's terms in dispatcher order, as a loop would
    degs = graph.dispatcher_degrees()
    loads = np.bincount(graph.csr()[1], weights=np.repeat(1.0 / degs, degs), minlength=n)
    loads *= n / m
    argmax = int(np.argmax(loads))
    return float(loads[argmax]), argmax


class _Dinic:
    """Max flow on float capacities by Dinic's blocking flows (Dinic 1970).

    Each phase labels the nodes by BFS distance from the source and lists,
    per node, its arcs into the next level in the order they were added.
    Augmenting paths are walked along these current arcs on an explicit
    arc stack, not by recursion, so a path may be as long as the network.
    """

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, capacity: float) -> None:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0.0)

    def _levels(self, s: int, t: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """(level, arcs, first, end): BFS levels from s, and node u's arcs
        into the next level as arcs[first[u]:end[u]]. Stops once t is
        labelled and every node short of its level is expanded: no node at
        t's level or beyond lies on a shortest path to t."""
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        first, end = [0] * self.n, [0] * self.n
        arcs: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            next_level = level[u] + 1
            if next_level > level[t] >= 0:
                break
            first[u] = len(arcs)
            for idx in head[u]:
                if cap[idx] > _FLOW_EPS:
                    v = to[idx]
                    if level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
                    if level[v] == next_level:
                        arcs.append(idx)
            end[u] = len(arcs)
        return level, arcs, first, end

    def max_flow(self, s: int, t: int) -> tuple[float, list[int]]:
        """(flow value, final BFS levels): nodes with level >= 0 are the
        source side of a minimum cut. Solves from the flow held in `cap`."""
        to, cap = self.to, self.cap
        total = 0.0
        while True:
            level, arcs, it, end = self._levels(s, t)
            if level[t] < 0:
                return total, level
            # it[u] is u's current arc. A pushed arc's reverse points a level
            # down, so within a phase arcs only leave the lists, by saturating.
            path: list[int] = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    pushed = min([cap[idx] for idx in path])
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    total += pushed
                    # back up to the tail of the first arc left saturated:
                    # a walk from s would retrace the arcs before it
                    for k, idx in enumerate(path):
                        if cap[idx] <= _FLOW_EPS:
                            break
                    u = to[idx ^ 1]
                    del path[k:]
                    continue
                i, stop = it[u], end[u]
                while i < stop and cap[arcs[i]] <= _FLOW_EPS:
                    i += 1
                it[u] = i
                if i < stop:
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:  # dead end: retreat and skip the arc that led here
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break


def _enumerate_pairs(graph: BipartiteGraph, d: int):
    """All (dispatcher, server-subset) pairs with per-pair supply."""
    n, m = graph.n_servers, graph.n_dispatchers
    total = 0
    for row in graph.adjacency:
        total += math.comb(len(row), min(d, len(row)))
        if total > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"exact min-max needs {total}+ (dispatcher, subset) pairs "
                f"(cap {ENUMERATION_CAP}); use uniform_subcriticality_metric instead"
            )
    pairs = []
    for w, row in enumerate(graph.adjacency):
        dw = min(d, len(row))
        supply = (n / m) / math.comb(len(row), dw)
        for subset in combinations(row, dw):
            pairs.append((w, subset, supply))
    return pairs


def _pair_network(pairs, n: int) -> tuple[_Dinic, list[float]]:
    """The pair network: source 0 -> each (w, U) pair with its supply ->
    member servers -> sink, whose n arcs come last.

    Returns (net, capacities): the arc capacities at zero flow, with the
    server -> sink arcs at 0 until `_pair_flow` sets them to t.
    """
    n_pairs = len(pairs)
    sink = 1 + n_pairs + n
    net = _Dinic(sink + 1)
    for k, (_, subset, supply) in enumerate(pairs):
        net.add_edge(0, 1 + k, supply)
        for v in subset:
            net.add_edge(1 + k, 1 + n_pairs + v, supply)
    for v in range(n):
        net.add_edge(1 + n_pairs + v, sink, 0.0)
    return net, net.cap.copy()


def _pair_flow(net: _Dinic, capacities: list[float], n: int, t: float) -> tuple[float, int]:
    """Max flow of the pair network at server capacity t, solved from zero
    flow. Returns (flow, cut): `cut` counts the servers on the source side
    of the minimum cut, the slope of the max flow in t there.
    """
    net.cap[:] = capacities
    net.cap[len(capacities) - 2 * n :: 2] = [t] * n
    sink = net.n - 1
    flow, level = net.max_flow(0, sink)
    cut = sum(1 for lv in level[sink - n : sink] if lv >= 0)
    return flow, cut


def optimal_subcriticality_load(graph: BipartiteGraph, d: int) -> SubcriticalityReport:
    """Exact finite-N min over static splits gamma of the max server load.

    The max flow F(t) of the pair network is concave and piecewise linear
    in the server capacity t, and the total supply is N, so the optimum is
    the smallest t with F(t) = N. Newton steps from t = 1 along the minimum
    cut's slope k (t += (N - F(t)) / k) never overshoot it, and k strictly
    decreases, so the loop ends after at most N + 1 solves of one network.
    gamma is read off the flow at the optimum.
    """
    d = require_positive_int("d", d)
    uniform, argmax = uniform_subcriticality_metric(graph)
    pairs = _enumerate_pairs(graph, d)
    n = graph.n_servers
    net, capacities = _pair_network(pairs, n)
    t, last_cut = 1.0, n + 1
    while True:
        flow, cut = _pair_flow(net, capacities, n, t)
        if flow >= n - 1e-9:
            break
        assert 0 < cut < last_cut, "min-cut slope must strictly decrease"
        t += (n - flow) / cut
        last_cut = cut

    # gamma from the flow at the optimum: fraction of each pair's supply
    # sent to each member server. Pair k's arcs, as `_pair_network` added
    # them, are its source arc and then one per member, each followed by its
    # reverse arc, whose capacity is the routed flow.
    support, first = 0, 0
    for _, subset, supply in pairs:
        sent = net.cap[first + 3 : first + 2 + 2 * len(subset) : 2]
        support += sum(1 for f in sent if f > 1e-12 * max(1.0, supply))
        first += 2 + 2 * len(subset)

    assert t <= uniform + 1e-9, "uniform split must be feasible"
    return SubcriticalityReport(
        uniform_metric=uniform,
        argmax_server=argmax,
        optimal_load=t,
        gamma_support_size=support,
    )


# ---------------------------------------------------------------------------
# proportional sparsity


@dataclass
class SparsityReport:
    """Worst observed fraction of dispatchers whose view of some server
    subset deviates from proportionality by at least epsilon.

    In sampled mode the deficiency is a certified lower bound on the true
    sup over subsets, never an upper bound.
    """

    epsilon: float
    deficiency: float
    witness_subset: tuple[int, ...]
    mode: str
    subsets_probed: int


def bad_dispatcher_count(graph: BipartiteGraph, subset: Sequence[int], epsilon: float) -> int:
    """Number of dispatchers w with ||N_w & U|/deg(w) - |U|/N| >= epsilon.

    The boundary uses >= exactly, tested as |count*N - size*deg| >=
    eps*(deg*N): the left side is an exact integer, invariant under
    complementing U, so every checker mode agrees bit-for-bit and the
    complement symmetry of the deviation is preserved through floats.
    """
    members = set(subset)
    n = graph.n_servers
    size = len(members)
    bad = 0
    indptr, servers = graph.csr()
    for a, b in pairwise(indptr.tolist()):  # CSR slices: never builds the cached `adjacency` lists
        deg = b - a
        inter = sum(1 for v in servers[a:b].tolist() if v in members)
        if abs(inter * n - size * deg) >= epsilon * (deg * n):
            bad += 1
    return bad


class _SubsetScorer:
    """Vectorized bad-dispatcher counting over one graph; `flags` is the
    only place the search code (exact scan, random starts, flip gains)
    applies the bad-dispatcher rule.

    Holds a CSR view, so a subset counts in O(E) numpy work, and each
    server's dispatchers as one row of `rev`, an (N, max server degree)
    int32 matrix padded with the sentinel M.
    """

    def __init__(self, graph: BipartiteGraph, epsilon: float):
        self.n = graph.n_servers
        self.m = graph.n_dispatchers
        self.indptr, self.indices = graph.csr()
        self.degs = graph.dispatcher_degrees()
        self.thresholds = epsilon * (self.degs * self.n)
        server_degs = graph.server_degrees()
        self.rev = np.full((self.n, int(server_degs.max())), self.m, dtype=np.int32)
        self.rev[np.arange(self.rev.shape[1]) < server_degs[:, None]] = graph.reverse_csr()[1]

    def counts(self, member: np.ndarray) -> np.ndarray:
        sel = member[self.indices].astype(np.int64)
        return np.add.reduceat(sel, self.indptr[:-1])

    def counts_from_rev(
        self, member: np.ndarray, size: int, drawn: np.ndarray | None = None
    ) -> np.ndarray:
        """Same as `counts`, from the reverse rows of the smaller side of
        the subset: O(min(|U|, N-|U|) * max server degree + M). `drawn`,
        if given, lists the members in any order."""
        inside = 2 * size <= self.n
        if inside:
            rows = np.flatnonzero(member) if drawn is None else drawn
        else:
            rows = np.flatnonzero(~member)
        hits = np.bincount(self.rev.take(rows, axis=0).ravel(), minlength=self.m + 1)[: self.m]
        return hits if inside else self.degs - hits

    def flags(self, counts: np.ndarray, size) -> np.ndarray:
        """Each dispatcher's bad flag, as in `bad_dispatcher_count`;
        broadcasts over a batch of (..., M) int64 counts and sizes."""
        return np.abs(counts * self.n - size * self.degs) >= self.thresholds

    def bad(self, counts: np.ndarray, size):
        return np.count_nonzero(self.flags(counts, size), axis=-1)

    def flip_tables(self, counts: np.ndarray, size: int) -> tuple[int, int, np.ndarray]:
        """(B+, B-, gain): the bad totals at sizes size+1 and size-1 with
        every count unchanged, and the gain table, laid out [g+ | 0 | g- | 0]
        with M+1 slots per half. g[w] is the change in w's bad flag when
        w's count also moves with the size; the zero slots absorb the
        sentinel M.

        Flipping server v into (out of) the subset then makes exactly
        B+ + sum(g+[rev[v]]) (B- + sum(g-[rev[v]])) dispatchers bad.
        """
        gain = np.zeros(2 * (self.m + 1), dtype=np.int64)
        totals = []
        for delta, half in ((1, gain[: self.m]), (-1, gain[self.m + 1 : -1])):
            base = self.flags(counts, size + delta)
            half[:] = self.flags(counts + delta, size + delta)
            half -= base
            totals.append(int(np.count_nonzero(base)))
        return totals[0], totals[1], gain


# mask x dispatcher entries per block of the exact scan (~128 KB of int64)
_EXACT_BLOCK_ENTRIES = 1 << 14


def _exact_deficiency(graph: BipartiteGraph, epsilon: float) -> tuple[int, np.ndarray, int]:
    """(best bad count, witness membership, subsets probed) by full enumeration.

    The bad set of U equals the bad set of its complement (the deviation is
    invariant), so only masks with the top server bit clear are scanned --
    half the work; the symmetry is asserted on the witness. A block of masks
    counts by popcount against each dispatcher's packed servers and scores
    in one `_SubsetScorer.bad` call; the witness is the first mask with the
    largest count (the empty mask scores 0, as epsilon > 0).
    """
    scorer = _SubsetScorer(graph, epsilon)
    n = scorer.n
    masks = np.bitwise_or.reduceat(1 << scorer.indices.astype(np.int64), scorer.indptr[:-1])
    half = 1 << (n - 1) if n > 1 else 1
    rows = max(1, _EXACT_BLOCK_ENTRIES // scorer.m)
    best, witness = 0, 0
    for lo in range(0, half, rows):
        u = np.arange(lo, min(lo + rows, half), dtype=np.int64)
        # popcounts come out uint8: widen them before count * N can wrap
        counts = np.bitwise_count(u[:, None] & masks).astype(np.int64)
        sizes = np.bitwise_count(u).astype(np.int64)
        bad = scorer.bad(counts, sizes[:, None])
        j = int(np.argmax(bad))
        if bad[j] > best:
            best, witness = int(bad[j]), int(u[j])
    member = ((witness >> np.arange(n)) & 1).astype(bool)
    assert (
        bad_dispatcher_count(graph, np.flatnonzero(~member).tolist(), epsilon) == best
    ), "complement symmetry violated"
    return best, member, half


# Flips scored per gather: small after a flip is taken, when the next one
# tends to come soon; capped so the (chunk, max server degree) gather stays small.
_CHUNK_MIN, _CHUNK_MAX = 32, 512


def _sampled_deficiency(
    graph: BipartiteGraph, epsilon: float, budget: int, seed: int
) -> tuple[int, np.ndarray, int]:
    """(best bad count, witness membership, subsets probed).

    Probes `budget` random subsets uniform over sizes 1..N-1, then runs
    greedy single-server flips (strict improvement only) from the best
    random starts and their complements; complements score identically but
    climb differently, so they come free as extra basins. Starts are kept
    bit-packed; only the basins and the best one are unpacked.

    Each sweep walks one random permutation of the servers and takes the
    first valid flip that beats the current count. Flips are scored a chunk
    of the permutation at a time from the gain tables of
    `_SubsetScorer.flip_tables`, rebuilt in O(M) only after a flip is taken,
    so a probe costs O(server degree), not O(M). The decisions, the RNG
    calls and the probe count (valid flips up to and including each taken
    one) are those of scoring one flip at a time.
    """
    n, m = graph.n_servers, graph.n_dispatchers
    rng = np.random.default_rng(seed)
    scorer = _SubsetScorer(graph, epsilon)
    rev = scorer.rev
    probed = 0
    starts: list[tuple[int, np.ndarray]] = []  # (bad count, packed membership)
    for _ in range(budget):
        size = int(rng.integers(1, n)) if n > 1 else 1
        drawn = rng.choice(n, size=size, replace=False)
        member = np.zeros(n, dtype=bool)
        member[drawn] = True
        probed += 1
        counts = scorer.counts_from_rev(member, size, drawn)
        starts.append((int(scorer.bad(counts, size)), np.packbits(member)))

    starts.sort(key=lambda item: -item[0])
    n_starts = 8 if n <= 512 else 2  # each climb rebuilds O(M) tables per flip taken
    seen: set[bytes] = set()
    basins: list[np.ndarray] = []
    for bad, packed in starts:
        member = np.unpackbits(packed, count=n).view(bool)
        for cand in (member, ~member):
            if 0 < cand.sum() < n:
                key = cand.tobytes()
                if key not in seen:
                    seen.add(key)
                    basins.append(cand)
        if len(basins) >= 2 * n_starts:
            break

    best_bad, best_member = starts[0][0], np.unpackbits(starts[0][1], count=n).view(bool)
    for start in basins:
        member = start.copy()
        size = int(member.sum())
        counts = scorer.counts_from_rev(member, size)
        current = int(scorer.bad(counts, size))
        b_plus, b_minus, gain = scorer.flip_tables(counts, size)
        improved = True
        while improved:
            improved = False
            order = rng.permutation(n)
            i, chunk = 0, _CHUNK_MIN
            while i < n:
                vs = order[i : i + chunk]
                leaving = member[vs]  # flip delta -1, else +1
                valid = np.where(leaving, size > 1, size < n - 1)
                scores = np.where(leaving, b_minus, b_plus) + gain[
                    rev[vs] + (m + 1) * leaving[:, None]
                ].sum(axis=1)
                hits = np.flatnonzero(valid & (scores > current))
                if hits.size == 0:
                    probed += int(np.count_nonzero(valid))
                    i += chunk
                    chunk = min(2 * chunk, _CHUNK_MAX)
                    continue
                j = int(hits[0])
                probed += int(np.count_nonzero(valid[: j + 1]))
                v = int(vs[j])
                delta = -1 if leaving[j] else 1
                member[v] = not member[v]
                row = rev[v]
                counts[row[row < m]] += delta
                size += delta
                current = int(scores[j])
                b_plus, b_minus, gain = scorer.flip_tables(counts, size)
                improved = True
                i += j + 1
                chunk = _CHUNK_MIN
        if current > best_bad:
            best_bad, best_member = current, member
    # the certificate: re-count the witness from scratch, not incrementally
    assert (
        scorer.bad(scorer.counts(best_member), int(best_member.sum())) == best_bad
    ), "incremental flip scores drifted from the witness's count"
    return best_bad, best_member, probed


def sparsity_deficiency(
    graph: BipartiteGraph,
    epsilon: float,
    mode: str = "sampled",
    budget: int = 2048,
    seed: int = 0,
) -> SparsityReport:
    """Worst-case bad-dispatcher fraction over server subsets.

    mode="exact" enumerates all subsets (refused above 22 servers);
    mode="sampled" returns a lower bound from `budget` random subsets plus
    greedy local search, deterministic given `seed`.
    """
    require_finite_positive("epsilon", epsilon)
    if epsilon > 1:  # no deviation exceeds 1, and eps*(deg*N) must stay finite
        raise ValueError(f"epsilon must be at most 1, not {epsilon}")
    budget = require_positive_int("budget", budget)
    seed = require_seed(seed)
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', not {mode!r}")
    n = graph.n_servers
    if mode == "exact" and n > EXACT_MAX_SERVERS:
        raise ValueError(
            f"exact enumeration limited to N <= {EXACT_MAX_SERVERS} "
            f"(got N={n}); use mode='sampled'"
        )
    # a sampled budget that covers exhaustive enumeration is spent there:
    # the lower bound becomes tight by construction
    if n <= EXACT_MAX_SERVERS and (mode == "exact" or budget >= (1 << max(0, n - 1))):
        best, member, probed = _exact_deficiency(graph, epsilon)
    else:
        best, member, probed = _sampled_deficiency(graph, epsilon, budget, seed)
    return SparsityReport(
        epsilon=epsilon,
        deficiency=best / graph.n_dispatchers,
        witness_subset=tuple(int(v) for v in np.flatnonzero(member)),
        mode=mode,
        subsets_probed=probed,
    )


# ---------------------------------------------------------------------------
# statistical trends over graph families


@dataclass
class TrendRow:
    family: str
    n: int
    m: int
    seed: int
    epsilon: float
    deficiency_lb: float
    uniform_metric: float


def sparsity_trend(
    family: GraphFamily,
    epsilons: Sequence[float],
    sizes: Sequence[int],
    seeds: Sequence[int],
    budget: int = 256,
) -> list[TrendRow]:
    """Sampled deficiency and uniform load metric across sizes and seeds.

    One row per (size, seed, epsilon); asymptotic decay of the deficiency
    and boundedness of the metric are for the caller (or a test) to assert
    on the emitted table.
    """
    rows = []
    for n in sizes:
        for seed in seeds:
            graph = family.build(n, seed)
            uniform, _ = uniform_subcriticality_metric(graph)
            for eps in epsilons:
                report = sparsity_deficiency(
                    graph, eps, mode="sampled", budget=budget, seed=seed
                )
                rows.append(
                    TrendRow(
                        family=family.name,
                        n=n,
                        m=graph.n_dispatchers,
                        seed=seed,
                        epsilon=eps,
                        deficiency_lb=report.deficiency,
                        uniform_metric=uniform,
                    )
                )
    return rows
