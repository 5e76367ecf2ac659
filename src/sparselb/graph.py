"""Bipartite compatibility graphs between servers and dispatchers.

A graph connects N servers (left side) to M dispatchers (right side); an
edge (v, w) means server v can process tasks arriving at dispatcher w.
Graphs are immutable after construction and safe to share across workers.

Dispatchers with no compatible server are rejected: a task type that no
server can process makes the system meaningless. Random generators resample
a bounded number of times before giving up on an isolated dispatcher.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

GENERATION_RETRIES = 100


class GraphFormatError(ValueError):
    """Raised when a graph file violates the BPG v1 format."""


class GraphGenerationError(RuntimeError):
    """Raised when a random generator cannot avoid an isolated dispatcher."""


def floyd_sample(n: int, k: int, randbelow: Callable[[int], int]) -> list[int]:
    """Sample a uniform k-subset of range(n) in O(k) draws (Floyd's method).

    `randbelow(m)` must return a uniform integer in [0, m). The returned
    list holds k distinct indices; its order is not uniform over
    arrangements, only the underlying set is uniform.
    """
    if k > n:
        raise ValueError(f"cannot sample {k} items from {n}")
    chosen: set[int] = set()
    out: list[int] = []
    for j in range(n - k, n):
        t = randbelow(j + 1)
        if t in chosen:
            t = j
        chosen.add(t)
        out.append(t)
    return out


class BipartiteGraph:
    """Immutable bipartite compatibility graph.

    `adjacency[w]` is the sorted sequence of servers compatible with
    dispatcher w; `reverse_adjacency[v]` the sorted sequence of dispatchers
    server v can serve. Rows may be `range` objects (complete graphs keep
    them implicit so K_{10^4,10^4} costs O(N+M) memory, not O(NM)).
    """

    __slots__ = (
        "n_servers",
        "n_dispatchers",
        "adjacency",
        "reverse_adjacency",
        "n_edges",
        "meta",
        "_connected",
    )

    def __init__(
        self,
        n_servers: int,
        n_dispatchers: int,
        adjacency: Sequence[Sequence[int]],
        *,
        meta: Optional[dict] = None,
        _validated: bool = False,
    ):
        if n_servers < 1 or n_dispatchers < 1:
            raise ValueError("need at least one server and one dispatcher")
        if len(adjacency) != n_dispatchers:
            raise ValueError("adjacency must have one row per dispatcher")
        self.n_servers = n_servers
        self.n_dispatchers = n_dispatchers
        self.adjacency = list(adjacency)
        if not _validated:
            self._validate_rows()
        self.reverse_adjacency = self._build_reverse()
        self.n_edges = sum(len(row) for row in self.adjacency)
        self.meta = dict(meta) if meta else {}
        self._connected: Optional[bool] = None

    def _validate_rows(self):
        n = self.n_servers
        for w, row in enumerate(self.adjacency):
            if len(row) == 0:
                raise ValueError(f"dispatcher {w} has no compatible server")
            srow = sorted(row)
            for i, v in enumerate(srow):
                if not 0 <= v < n:
                    raise ValueError(f"server index {v} out of range for dispatcher {w}")
                if i and v == srow[i - 1]:
                    raise ValueError(f"duplicate edge ({v}, {w})")
            self.adjacency[w] = srow

    def _build_reverse(self) -> list[Sequence[int]]:
        if all(isinstance(row, range) and row == range(self.n_servers) for row in self.adjacency):
            return [range(self.n_dispatchers)] * self.n_servers
        rev: list[list[int]] = [[] for _ in range(self.n_servers)]
        for w, row in enumerate(self.adjacency):
            for v in row:
                rev[v].append(w)
        return rev  # rows sorted because w increases

    @property
    def is_complete(self) -> bool:
        return self.n_edges == self.n_servers * self.n_dispatchers

    def server_degree(self, v: int) -> int:
        return len(self.reverse_adjacency[v])

    def dispatcher_degree(self, w: int) -> int:
        return len(self.adjacency[w])

    def dispatcher_degrees(self) -> np.ndarray:
        return np.array([len(row) for row in self.adjacency], dtype=np.int64)

    @property
    def is_connected(self) -> bool:
        """True iff the bipartite graph is connected (BFS, cached)."""
        if self._connected is None:
            self._connected = self._bfs_connected()
        return self._connected

    def _bfs_connected(self) -> bool:
        if self.is_complete:
            return True
        n, m = self.n_servers, self.n_dispatchers
        seen_s = [False] * n
        seen_d = [False] * m
        queue: deque = deque()
        queue.append(("d", 0))
        seen_d[0] = True
        count = 1
        while queue:
            side, i = queue.popleft()
            if side == "d":
                for v in self.adjacency[i]:
                    if not seen_s[v]:
                        seen_s[v] = True
                        count += 1
                        queue.append(("s", v))
            else:
                for w in self.reverse_adjacency[i]:
                    if not seen_d[w]:
                        seen_d[w] = True
                        count += 1
                        queue.append(("d", w))
        return count == n + m

    def edges(self):
        """Yield (server, dispatcher) pairs in ascending lexicographic order."""
        for v in range(self.n_servers):
            for w in self.reverse_adjacency[v]:
                yield (v, w)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Dispatcher-major CSR view: (indptr, server_indices).

        Row w spans indices[indptr[w]:indptr[w+1]]. Materializes the edge
        list, so avoid on huge complete graphs.
        """
        degs = self.dispatcher_degrees()
        indptr = np.zeros(self.n_dispatchers + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = np.empty(self.n_edges, dtype=np.int64)
        pos = 0
        for row in self.adjacency:
            nxt = pos + len(row)
            indices[pos:nxt] = row
            pos = nxt
        return indptr, indices

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_servers == other.n_servers
            and self.n_dispatchers == other.n_dispatchers
            and all(list(a) == list(b) for a, b in zip(self.adjacency, other.adjacency))
        )

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(N={self.n_servers}, M={self.n_dispatchers}, "
            f"E={self.n_edges})"
        )


# ---------------------------------------------------------------------------
# deterministic constructors


def complete_bipartite(n_servers: int, n_dispatchers: int) -> BipartiteGraph:
    """K_{N,M}: every server compatible with every dispatcher."""
    rows = [range(n_servers)] * n_dispatchers
    return BipartiteGraph(
        n_servers, n_dispatchers, rows, meta={"generator": "complete"}, _validated=True
    )


def perfect_matching(n: int) -> BipartiteGraph:
    """Dispatcher i matched to server i only. Disconnected for n >= 2.

    Used as a checker fixture (it satisfies the load condition trivially),
    not as a simulation target.
    """
    rows = [[i] for i in range(n)]
    return BipartiteGraph(n, n, rows, meta={"generator": "matching"}, _validated=True)


def braess_example() -> BipartiteGraph:
    """6x6 fixture where extra flexibility overloads two servers.

    Dispatchers 0 and 1 keep only their matched server; dispatchers 2..5
    additionally reach servers 0 and 1. Contains all six matching edges,
    yet any static split must push load 5/3 onto servers 0 and 1.
    """
    rows = [[0], [1]] + [sorted([w, 0, 1]) for w in range(2, 6)]
    return BipartiteGraph(6, 6, rows, meta={"generator": "braess"}, _validated=True)


# ---------------------------------------------------------------------------
# random constructors


def generate_fixed_server_degree(
    n_servers: int, n_dispatchers: int, c: int, seed: int
) -> BipartiteGraph:
    """Each server picks exactly c dispatchers uniformly without replacement.

    Resamples the whole graph (server picks are exchangeable, so a local
    patch would bias the law) up to GENERATION_RETRIES times if some
    dispatcher ends isolated.
    """
    if not 1 <= c <= n_dispatchers:
        raise ValueError(f"server degree c={c} must be in [1, {n_dispatchers}]")
    rng = np.random.default_rng(seed)
    randbelow = lambda m: int(rng.integers(m))
    for attempt in range(GENERATION_RETRIES):
        rows: list[list[int]] = [[] for _ in range(n_dispatchers)]
        for v in range(n_servers):
            for w in floyd_sample(n_dispatchers, c, randbelow):
                rows[w].append(v)
        if all(rows):
            rows = [sorted(row) for row in rows]
            return BipartiteGraph(
                n_servers,
                n_dispatchers,
                rows,
                meta={"generator": "fixed-degree", "c": c, "seed": seed, "retries": attempt},
                _validated=True,
            )
    raise GraphGenerationError(
        f"fixed-degree generation left an isolated dispatcher in all "
        f"{GENERATION_RETRIES} attempts (N={n_servers}, M={n_dispatchers}, c={c}); "
        f"the c/M regime is too sparse"
    )


def generate_inhomogeneous(
    n_servers: int,
    n_dispatchers: int,
    p,
    seed: int,
) -> BipartiteGraph:
    """Edge (v, w) present independently with probability p[w].

    `p` may be a scalar or a length-M vector with entries in (0, 1].
    An isolated dispatcher has only its own row resampled (rows are
    independent, so this preserves the conditional law).
    """
    p = np.broadcast_to(np.asarray(p, dtype=float), (n_dispatchers,))
    if np.any((p <= 0) | (p > 1)):
        raise ValueError("edge probabilities must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    rows: list[list[int]] = []
    retries = 0
    for w in range(n_dispatchers):
        row = np.flatnonzero(rng.random(n_servers) < p[w])
        attempt = 0
        while row.size == 0:
            attempt += 1
            if attempt > GENERATION_RETRIES:
                raise GraphGenerationError(
                    f"dispatcher {w} stayed isolated after {GENERATION_RETRIES} "
                    f"resamples (p={p[w]:g}, N={n_servers})"
                )
            row = np.flatnonzero(rng.random(n_servers) < p[w])
        retries += attempt
        rows.append(row.tolist())
    return BipartiteGraph(
        n_servers,
        n_dispatchers,
        rows,
        meta={"generator": "inhomogeneous", "seed": seed, "retries": retries},
        _validated=True,
    )


def generate_geometric(
    n_servers: int,
    n_dispatchers: int,
    radius: float,
    seed: int,
) -> BipartiteGraph:
    """Servers and dispatchers placed uniformly on the unit square; edge iff
    their Euclidean distance is at most `radius`.

    Positions are kept in graph.meta ("server_xy", "dispatcher_xy"). An
    isolated dispatcher is moved to a fresh uniform position up to
    GENERATION_RETRIES times.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    sxy = rng.random((n_servers, 2))
    dxy = rng.random((n_dispatchers, 2))
    r2 = radius * radius
    rows: list[list[int]] = []
    retries = 0

    def neighbors(point) -> np.ndarray:
        diff = sxy - point
        return np.flatnonzero(diff[:, 0] ** 2 + diff[:, 1] ** 2 <= r2)

    for w in range(n_dispatchers):
        row = neighbors(dxy[w])
        attempt = 0
        while row.size == 0:
            attempt += 1
            if attempt > GENERATION_RETRIES:
                raise GraphGenerationError(
                    f"dispatcher {w} found no server within radius {radius:g} "
                    f"after {GENERATION_RETRIES} placements"
                )
            dxy[w] = rng.random(2)
            row = neighbors(dxy[w])
        retries += attempt
        rows.append(row.tolist())
    return BipartiteGraph(
        n_servers,
        n_dispatchers,
        rows,
        meta={
            "generator": "geometric",
            "radius": radius,
            "seed": seed,
            "retries": retries,
            "server_xy": sxy,
            "dispatcher_xy": dxy,
        },
        _validated=True,
    )


def radius_for_mean_degree(n_servers: int, mean_degree: float) -> float:
    """Radius giving expected dispatcher degree ~ mean_degree (pi r^2 N),
    ignoring boundary effects."""
    return math.sqrt(mean_degree / (math.pi * n_servers))


# ---------------------------------------------------------------------------
# declarative specs (CLI / experiment families)

KINDS = ("complete", "matching", "fixed-degree", "inhomogeneous", "geometric", "braess")


@dataclass(frozen=True)
class GraphSpec:
    """Declarative recipe for a graph, validated per kind at build time."""

    kind: str
    n: int = 0
    m: int = 0
    c: Optional[int] = None
    p: Optional[object] = None
    radius: Optional[float] = None
    seed: int = 0

    def build(self) -> BipartiteGraph:
        if self.kind not in KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "braess":
            return braess_example()
        if self.kind == "matching":
            return perfect_matching(self.n)
        if self.kind == "complete":
            return complete_bipartite(self.n, self.m)
        if self.kind == "fixed-degree":
            if self.c is None:
                raise ValueError("fixed-degree spec needs c")
            return generate_fixed_server_degree(self.n, self.m, self.c, self.seed)
        if self.kind == "inhomogeneous":
            if self.p is None:
                raise ValueError("inhomogeneous spec needs p")
            return generate_inhomogeneous(self.n, self.m, self.p, self.seed)
        if self.radius is None:
            raise ValueError("geometric spec needs radius")
        if not 0 < self.radius <= math.sqrt(2):
            raise ValueError("radius must lie in (0, sqrt(2)]")
        return generate_geometric(self.n, self.m, self.radius, self.seed)


@dataclass(frozen=True)
class GraphFamily:
    """A size-indexed family of graph specs, e.g. fixed degree ceil(ln^2 N)."""

    name: str
    build_fn: Callable[[int, int], BipartiteGraph] = field(repr=False)

    def build(self, n: int, seed: int) -> BipartiteGraph:
        return self.build_fn(n, seed)


def log_squared_degree_family() -> GraphFamily:
    """Fixed server degree c = ceil(ln^2 N), M = N."""
    return GraphFamily(
        "fixed-degree-log2",
        lambda n, seed: generate_fixed_server_degree(
            n, n, max(1, math.ceil(math.log(n) ** 2)), seed
        ),
    )


def log_degree_family() -> GraphFamily:
    """Fixed server degree c = ceil(ln N), M = N."""
    return GraphFamily(
        "fixed-degree-log",
        lambda n, seed: generate_fixed_server_degree(
            n, n, max(1, math.ceil(math.log(n))), seed
        ),
    )


def constant_degree_family(c: int) -> GraphFamily:
    """Fixed server degree c independent of N, M = N."""
    return GraphFamily(
        f"fixed-degree-{c}",
        lambda n, seed: generate_fixed_server_degree(n, n, c, seed),
    )


def errg_log_squared_family() -> GraphFamily:
    """Homogeneous random graph with edge probability ln^2(N)/N, M = N."""
    return GraphFamily(
        "errg-log2",
        lambda n, seed: generate_inhomogeneous(
            n, n, min(1.0, math.log(n) ** 2 / n), seed
        ),
    )


def geometric_log_squared_family() -> GraphFamily:
    """Geometric graph with radius tuned for mean degree ln^2(N), M = N."""
    return GraphFamily(
        "geometric-log2",
        lambda n, seed: generate_geometric(
            n, n, radius_for_mean_degree(n, math.log(n) ** 2), seed
        ),
    )


FAMILIES = {
    family.name: family
    for family in (log_squared_degree_family(), log_degree_family(),
                   errg_log_squared_family(), geometric_log_squared_family())
}


# ---------------------------------------------------------------------------
# file format: line 1 "BPG v1", line 2 "N M E", then E lines "v w"


def write_graph(graph: BipartiteGraph, path) -> None:
    """Write in canonical BPG v1 form (edges ascending lexicographic)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("BPG v1\n")
        fh.write(f"{graph.n_servers} {graph.n_dispatchers} {graph.n_edges}\n")
        for v, w in graph.edges():
            fh.write(f"{v} {w}\n")


def read_graph(path) -> BipartiteGraph:
    """Read a BPG v1 file. Accepts edges in any order; rejects indices that
    are not ASCII decimal digits, out-of-range indices, duplicates, count
    mismatches and dispatchers without an edge."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "BPG v1":
            raise GraphFormatError(f"bad header {header!r}; expected 'BPG v1'")
        dims = fh.readline().split()
        if len(dims) != 3:
            raise GraphFormatError("second line must be '<N> <M> <E>'")
        if not all(x.isascii() and x.isdigit() for x in dims):
            raise GraphFormatError(f"non-integer dimensions: {dims}")
        n, m, e = (int(x) for x in dims)
        if n < 1 or m < 1 or e < 0:
            raise GraphFormatError(f"invalid dimensions N={n} M={m} E={e}")
        rows: list[set[int]] = [set() for _ in range(m)]
        count = 0
        for lineno, line in enumerate(fh, start=3):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected '<server> <dispatcher>'")
            if not (line.isascii() and parts[0].isdigit() and parts[1].isdigit()):
                raise GraphFormatError(f"line {lineno}: non-integer edge")
            v, w = int(parts[0]), int(parts[1])
            if not 0 <= v < n:
                raise GraphFormatError(f"line {lineno}: server index {v} out of range")
            if not 0 <= w < m:
                raise GraphFormatError(f"line {lineno}: dispatcher index {w} out of range")
            if v in rows[w]:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({v}, {w})")
            rows[w].add(v)
            count += 1
        if count != e:
            raise GraphFormatError(f"edge count mismatch: header says {e}, found {count}")
    for w, row in enumerate(rows):
        if not row:
            raise GraphFormatError(f"dispatcher {w} has no compatible server")
    return BipartiteGraph(n, m, [sorted(r) for r in rows], meta={"generator": "file"})
