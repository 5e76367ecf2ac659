"""Bipartite compatibility graphs between servers and dispatchers.

A graph connects N servers (left side) to M dispatchers (right side); an
edge (v, w) means server v can process tasks arriving at dispatcher w.
Graphs are immutable after construction and safe to share across workers.

Dispatchers with no compatible server are rejected: a task type that no
server can process makes the system meaningless. Random generators resample
a bounded number of times before giving up on an isolated dispatcher.
"""

from __future__ import annotations

import io
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

GENERATION_RETRIES = 100
# The fixed-degree generator works in blocks of about this many entries, so
# that no array it makes outgrows the memory freed graph lists leave for reuse.
_BLOCK_ENTRIES = 1 << 14


class GraphFormatError(ValueError):
    """Raised when a graph file violates the BPG v1 format."""


class GraphGenerationError(RuntimeError):
    """Raised when a random generator cannot avoid an isolated dispatcher."""


def floyd_sample(n: int, k: int, randbelow: Callable[[int], int]) -> list[int]:
    """Sample a uniform k-subset of range(n) in O(k) draws (Floyd's method).

    `randbelow(m)` must return a uniform integer in [0, m). The returned
    list holds k distinct indices; its order is not uniform over
    arrangements, only the underlying set is uniform.
    `generate_fixed_server_degree` runs these steps for a block of servers at once.
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


def _check_sizes(n_servers: int, n_dispatchers: int) -> None:
    if n_servers < 1 or n_dispatchers < 1:
        raise ValueError("need at least one server and one dispatcher")


def _transpose(rows: Sequence[Sequence[int]], size: int, labels: Sequence) -> list[list]:
    """The other direction of `rows`: entry j lists labels[i] for every row i
    holding j, by ascending i. Labels from an int pool (`np.arange(k,
    dtype=object)`) are shared: an edge costs a list slot, not a new int."""
    out: list[list] = [[] for _ in range(size)]
    for label, row in zip(labels, rows):
        for j in row:
            out[j].append(label)
    return out


class BipartiteGraph:
    """Immutable bipartite compatibility graph.

    `adjacency[w]` is the sorted sequence of servers compatible with
    dispatcher w; `reverse_adjacency[v]` the sorted sequence of dispatchers
    server v can serve. Rows may be `range` objects (complete graphs keep
    them implicit so K_{10^4,10^4} costs O(N+M) memory, not O(NM)).

    The public constructor always validates the dispatcher rows (nonempty,
    in range, no duplicate edge), sorts them and derives the server rows.
    The generators, `complete_bipartite` and `read_graph` use the private
    `_from_rows` instead; its callers guarantee sorted, in-range rows in
    both directions, each the transpose of the other.
    """

    __slots__ = (
        "n_servers",
        "n_dispatchers",
        "adjacency",
        "reverse_adjacency",
        "n_edges",
        "meta",
        "_connected",
        "_csr",
    )

    def __init__(
        self,
        n_servers: int,
        n_dispatchers: int,
        adjacency: Sequence[Sequence[int]],
        *,
        meta: Optional[dict] = None,
    ):
        rows = []
        for w, row in enumerate(adjacency):
            if len(row) == 0:
                raise ValueError(f"dispatcher {w} has no compatible server")
            srow = sorted(row)
            for i, v in enumerate(srow):
                if not 0 <= v < n_servers:
                    raise ValueError(f"server index {v} out of range for dispatcher {w}")
                if i and v == srow[i - 1]:
                    raise ValueError(f"duplicate edge ({v}, {w})")
            rows.append(srow)
        reverse = _transpose(rows, n_servers, range(n_dispatchers))
        self._set(n_servers, n_dispatchers, rows, reverse, meta)

    @classmethod
    def _from_rows(cls, n_servers, n_dispatchers, adjacency, reverse_adjacency, meta):
        """The private constructor: a graph from rows in both directions,
        trusted as the class docstring says; only the sizes and row count are checked."""
        self = cls.__new__(cls)
        self._set(n_servers, n_dispatchers, adjacency, reverse_adjacency, meta)
        return self

    def _set(self, n_servers, n_dispatchers, adjacency, reverse_adjacency, meta):
        """The one place a graph's fields are set."""
        _check_sizes(n_servers, n_dispatchers)
        if len(adjacency) != n_dispatchers:
            raise ValueError("adjacency must have one row per dispatcher")
        self.n_servers = n_servers
        self.n_dispatchers = n_dispatchers
        self.adjacency = adjacency
        self.reverse_adjacency = reverse_adjacency
        self.n_edges = sum(map(len, adjacency))
        self.meta = dict(meta) if meta else {}
        self._connected: Optional[bool] = None
        self._csr: Optional[tuple[np.ndarray, np.ndarray]] = None

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
        """Dispatcher-major CSR view: (int64 indptr, int32 server_indices),
        read-only and built once on first use.

        Row w spans indices[indptr[w]:indptr[w+1]]. Materializes the edge
        list, so avoid on huge complete graphs.
        """
        if self._csr is None:
            indptr = np.zeros(self.n_dispatchers + 1, dtype=np.int64)
            np.cumsum(self.dispatcher_degrees(), out=indptr[1:])
            indices = np.fromiter(
                itertools.chain.from_iterable(self.adjacency), dtype=np.int32, count=self.n_edges
            )
            indptr.flags.writeable = indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

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
    n, m = n_servers, n_dispatchers
    return BipartiteGraph._from_rows(n, m, [range(n)] * m, [range(m)] * n, {"generator": "complete"})


def perfect_matching(n: int) -> BipartiteGraph:
    """Dispatcher i matched to server i only. Disconnected for n >= 2.

    Used as a checker fixture (it satisfies the load condition trivially),
    not as a simulation target.
    """
    return BipartiteGraph(n, n, [[i] for i in range(n)], meta={"generator": "matching"})


def braess_example() -> BipartiteGraph:
    """6x6 fixture where extra flexibility overloads two servers.

    Dispatchers 0 and 1 keep only their matched server; dispatchers 2..5
    additionally reach servers 0 and 1. Contains all six matching edges,
    yet any static split must push load 5/3 onto servers 0 and 1.
    """
    rows = [[0], [1]] + [sorted([w, 0, 1]) for w in range(2, 6)]
    return BipartiteGraph(6, 6, rows, meta={"generator": "braess"})


# ---------------------------------------------------------------------------
# random constructors


def generate_fixed_server_degree(
    n_servers: int, n_dispatchers: int, c: int, seed: int
) -> BipartiteGraph:
    """Each server picks exactly c dispatchers uniformly without replacement.

    Resamples the whole graph (server picks are exchangeable, so a local
    patch would bias the law) up to GENERATION_RETRIES times if some
    dispatcher ends isolated.

    Each server runs Floyd's method (`floyd_sample`): its k-th draw is
    uniform on [0, M-c+k] and is replaced by M-c+k if the server already
    holds it. The bounds never depend on earlier draws, so one
    `rng.integers` call over a (servers, c) block consumes the stream
    exactly as the block's scalar draws in server order do.
    """
    _check_sizes(n_servers, n_dispatchers)
    if not 1 <= c <= n_dispatchers:
        raise ValueError(f"server degree c={c} must be in [1, {n_dispatchers}]")
    rng = np.random.default_rng(seed)
    top = np.arange(n_dispatchers - c, n_dispatchers, dtype=np.int32)  # M-c+k
    block = max(1, _BLOCK_ENTRIES // c)
    pool = np.arange(max(n_servers, n_dispatchers), dtype=object)  # shared by both directions
    for attempt in range(GENERATION_RETRIES):
        covered = np.zeros(n_dispatchers, dtype=bool)
        rows: list[list[int]] = []
        for v0 in range(0, n_servers, block):
            picks = rng.integers(0, top + 1, size=(min(block, n_servers - v0), c), dtype=np.int32)
            for k in range(1, c):
                picks[(picks[:, :k] == picks[:, k, None]).any(axis=1), k] = top[k]
            covered[picks] = True
            picks.sort(axis=1)
            rows += pool[picks].tolist()
        if covered.all():
            meta = {"generator": "fixed-degree", "c": c, "seed": seed, "retries": attempt}
            adjacency = _transpose(rows, n_dispatchers, pool)
            return BipartiteGraph._from_rows(n_servers, n_dispatchers, adjacency, rows, meta)
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
    _check_sizes(n_servers, n_dispatchers)
    p = np.broadcast_to(np.asarray(p, dtype=float), (n_dispatchers,))
    if np.any((p <= 0) | (p > 1)):
        raise ValueError("edge probabilities must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    pool = np.arange(max(n_servers, n_dispatchers), dtype=object)  # shared by both directions
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
        rows.append(pool[row].tolist())
    meta = {"generator": "inhomogeneous", "seed": seed, "retries": retries}
    reverse = _transpose(rows, n_servers, pool)
    return BipartiteGraph._from_rows(n_servers, n_dispatchers, rows, reverse, meta)


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
    _check_sizes(n_servers, n_dispatchers)
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    sxy = rng.random((n_servers, 2))
    dxy = rng.random((n_dispatchers, 2))
    r2 = radius * radius
    pool = np.arange(max(n_servers, n_dispatchers), dtype=object)  # shared by both directions
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
        rows.append(pool[row].tolist())
    meta = {
        "generator": "geometric",
        "radius": radius,
        "seed": seed,
        "retries": retries,
        "server_xy": sxy,
        "dispatcher_xy": dxy,
    }
    reverse = _transpose(rows, n_servers, pool)
    return BipartiteGraph._from_rows(n_servers, n_dispatchers, rows, reverse, meta)


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
    """A size-indexed graph sequence: `spec(n, seed)` is the GraphSpec of
    its member with n servers and n dispatchers."""

    name: str
    spec: Callable[[int, int], GraphSpec] = field(repr=False)

    def build(self, n: int, seed: int) -> BipartiteGraph:
        return self.spec(n, seed).build()


# The one table of named families. Each entry maps (n, seed) to a GraphSpec,
# so a member can cross a process boundary as that frozen spec; the spec's
# build() looks its generator up by name at call time.
FAMILIES = {
    family.name: family
    for family in (
        GraphFamily("fixed-degree-4", lambda n, seed: GraphSpec("fixed-degree", n, n, c=4, seed=seed)),
        GraphFamily("fixed-degree-log", lambda n, seed: GraphSpec(
            "fixed-degree", n, n, c=max(1, math.ceil(math.log(n))), seed=seed)),
        GraphFamily("fixed-degree-log2", lambda n, seed: GraphSpec(
            "fixed-degree", n, n, c=max(1, math.ceil(math.log(n) ** 2)), seed=seed)),
        GraphFamily("errg-log2", lambda n, seed: GraphSpec(
            "inhomogeneous", n, n, p=min(1.0, math.log(n) ** 2 / n), seed=seed)),
        GraphFamily("geometric-log2", lambda n, seed: GraphSpec(
            "geometric", n, n, radius=radius_for_mean_degree(n, math.log(n) ** 2), seed=seed)),
    )
}


def log_squared_degree_family() -> GraphFamily:
    """FAMILIES["fixed-degree-log2"] (c = ceil(ln^2 N)); benchmarks/run.py calls it."""
    return FAMILIES["fixed-degree-log2"]


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
    """Read a BPG v1 file. Accepts edges in any order, separated by ASCII
    whitespace, with LF, CRLF or CR line endings; rejects indices that are
    not ASCII decimal digits, out-of-range indices, duplicates, count
    mismatches and dispatchers without an edge. Errors name the file and,
    where one applies, the line."""
    with open(path, "rb") as fh:
        n, m, indptr, indices = _parse_bpg(fh.read(), path)
    pool = np.arange(max(n, m), dtype=object)
    bounds = indptr.tolist()
    rows = [pool[indices[a:b]].tolist() for a, b in zip(bounds, bounds[1:])]
    del indices  # before the dispatcher rows are built
    return BipartiteGraph._from_rows(n, m, _transpose(rows, m, pool), rows, {"generator": "file"})


# the bytes an edge line may hold: digits and ASCII whitespace (bytes.split())
_BODY_BYTES = b"0123456789 \t\n\r\x0b\x0c"


def _parse_bpg(data: bytes, path) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(N, M, indptr, indices) of a BPG v1 file's bytes; (indptr, indices)
    is the server-major CSR."""

    def error(message: str, line: Optional[int] = None) -> GraphFormatError:
        where = path if line is None else f"{path}, line {line}"
        return GraphFormatError(f"{where}: {message}")

    # a line ends at LF, CRLF or a lone CR, as text mode reads it
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header, _, data = data.partition(b"\n")
    if header != b"BPG v1":
        raise error(f"bad header {_shown(header, 'bytes')!r}; expected 'BPG v1'", 1)
    dims_line, _, body = data.partition(b"\n")
    del data
    dims = dims_line.split()
    if len(dims) != 3:
        raise error("second line must be '<N> <M> <E>'", 2)
    if not all(x.isdigit() for x in dims):  # bytes.isdigit() is ASCII only
        raise error(f"non-integer dimensions: {[_shown(x, 'bytes') for x in dims]}", 2)
    n_digits, m_digits, e_digits = (_significant(x) for x in dims)
    # `csr` stores server indices as int32, and an edge key v*M + w fits an int64
    if max(len(n_digits), len(m_digits)) > 10 or max(int(n_digits), int(m_digits)) >= 2**31:
        raise error(
            f"dimensions N={_shown(n_digits)} M={_shown(m_digits)} too large; N and M must be below 2^31", 2
        )
    if len(e_digits) > 19:
        raise error(f"edge count E={_shown(e_digits)} too large; E is at most N*M < 2^62", 2)
    n, m, e = int(n_digits), int(m_digits), int(e_digits)
    if n < 1 or m < 1:
        raise error(f"invalid dimensions N={n} M={m} E={e}", 2)
    keys = _bulk_keys(body, n, m)
    if keys is None:  # not well formed: the line reader names the first bad line
        edges = _edge_lines(body, n, m, error)
        keys = np.array(sorted(v * m + w for v, w in edges), dtype=np.int64)
    del body
    servers, dispatchers = np.divmod(keys, m)
    if servers.size != e:
        raise error(f"edge count mismatch: header says {e}, found {servers.size}")
    degrees = np.bincount(dispatchers, minlength=m)
    if not degrees.all():
        raise error(f"dispatcher {int(np.argmin(degrees))} has no compatible server")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(servers, minlength=n), out=indptr[1:])
    return n, m, indptr, dispatchers


def _text(raw: bytes) -> str:
    return raw.decode("utf-8", "backslashreplace")


def _significant(token: bytes) -> bytes:
    """An ASCII digit token without its leading zeros (b"0" for zero).
    int() refuses a token of over 4300 digits, leading zeros included, so
    callers bound this length before they convert."""
    return token.lstrip(b"0") or b"0"


def _shown(token: bytes, unit: str = "digits") -> str:
    """A token for an error message: in full up to 40 bytes, else its
    first 20 bytes and its length in `unit`s (one byte each)."""
    if len(token) <= 40:
        return _text(token)
    return f"{_text(token[:20])}... ({len(token)} {unit})"


def _edge_lines(body: bytes, n: int, m: int, error) -> set[tuple[int, int]]:
    """The edges (v, w) of a BPG body with LF line endings.

    This is the format's definition: blank lines are skipped, and every
    other line holds a server and a dispatcher index in range, as ASCII
    digits, not repeating an earlier edge. Raises `error(message, line)`
    for the first line that does not.
    """
    edges: set[tuple[int, int]] = set()
    for line, text in enumerate(body.split(b"\n"), start=3):
        tokens = text.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise error("expected '<server> <dispatcher>'", line)
        if not (tokens[0].isdigit() and tokens[1].isdigit()):
            raise error("non-integer edge", line)
        v_digits, w_digits = (_significant(x) for x in tokens)
        # N, M < 2^31: an index of over 10 digits is out of range
        if len(v_digits) > 10 or int(v_digits) >= n:
            raise error(f"server index {_shown(v_digits)} out of range", line)
        if len(w_digits) > 10 or int(w_digits) >= m:
            raise error(f"dispatcher index {_shown(w_digits)} out of range", line)
        edge = v, w = int(v_digits), int(w_digits)
        if edge in edges:
            raise error(f"duplicate edge ({v}, {w})", line)
        edges.add(edge)
    return edges


def _bulk_keys(body: bytes, n: int, m: int) -> Optional[np.ndarray]:
    """The sorted keys v*M + w of a well-formed BPG body, read by numpy's C
    parser; None for a body that `_edge_lines` might reject, or that is blank."""
    if body.translate(None, _BODY_BYTES) or not body.strip():
        return None
    try:
        pairs = np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2, comments=None)
    except ValueError:  # a line without two indices, or an index beyond int64
        return None
    if pairs.shape[1] != 2 or (pairs[:, 0] >= n).any() or (pairs[:, 1] >= m).any():
        return None
    keys = pairs[:, 0] * m + pairs[:, 1]
    del pairs
    keys.sort()
    return None if (keys[1:] == keys[:-1]).any() else keys
