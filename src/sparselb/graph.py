"""Bipartite compatibility graphs between servers and dispatchers.

A graph connects N servers (left side) to M dispatchers (right side); an
edge (v, w) means server v can process tasks arriving at dispatcher w.
A graph is its two CSR directions, dispatcher-major and server-major, as
read-only numpy arrays: a constructor is given one, and the other is sorted
from it on first use. Degrees are read off the indptr arrays; the
dispatcher rows as Python lists are a view built on first use.
Graphs are immutable after construction and safe to share across workers.

Dispatchers with no compatible server are rejected: a task type that no
server can process makes the system meaningless. Random generators resample
a bounded number of times before giving up on an isolated dispatcher.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .records import INDEX_LIMIT, require_int, require_seed

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
    `generate_fixed_server_degree` runs these steps for all servers at once
    (`_floyd_replace`).
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
    if max(n_servers, n_dispatchers) >= INDEX_LIMIT:
        raise ValueError(f"N={n_servers} M={n_dispatchers} too large; N and M must be below 2^31")


def _flip(indptr: np.ndarray, indices: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The other direction of a CSR whose indices lie in range(size): one
    sort of the keys index * rows + row, with rows ascending in each new
    row. The keys are int32 when size * rows < 2^31 (int64 otherwise)."""
    rows = len(indptr) - 1
    dtype = np.int32 if size * rows < INDEX_LIMIT else np.int64
    keys = np.multiply(indices, rows, dtype=dtype)
    keys += np.repeat(np.arange(rows, dtype=dtype), np.diff(indptr))
    keys.sort()
    return _keyed_csr(keys, size, rows)


def _keyed_csr(keys: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-row CSR of sorted keys row * m + index; its int32 indices are the remainders, in place."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * m)
    keys %= m
    return indptr, keys.astype(np.int32, copy=False)


def _row_lists(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    flat = indices.tolist()
    return [flat[a:b] for a, b in itertools.pairwise(indptr.tolist())]


def _one_component(indptr, indices, server_indptr, dispatchers) -> bool:
    """True iff the graph of these two CSR directions is connected: no
    server is isolated (no dispatcher is), and the servers are one class
    under "shares a dispatcher". Each round hooks every class root onto the
    least root one dispatcher away, then jumps pointers until each server
    points at its root. A class not hooked in a round has a neighbour that
    was, so it is hooked in the next: the unfinished classes halve every two
    rounds, O(log N) rounds of O(E) numpy work whatever the diameter."""
    if not np.diff(server_indptr).all():
        return False
    root = np.arange(len(server_indptr) - 1)
    while True:
        least = np.minimum.reduceat(root[indices], indptr[:-1])  # per dispatcher
        hook = np.minimum.reduceat(least[dispatchers], server_indptr[:-1])  # per server
        if (hook == root).all():
            return not root.any()
        np.minimum.at(root, root.copy(), hook)
        up = root[root]
        while (up != root).any():
            root, up = up, up[up]


class BipartiteGraph:
    """Immutable bipartite compatibility graph.

    `csr()` is the dispatcher-major CSR (row w lists the servers compatible
    with dispatcher w) and `reverse_csr()` the server-major one (row v lists
    the dispatchers server v can serve), each row sorted.
    `dispatcher_degrees()` and `server_degrees()` read only the indptr
    arrays. `adjacency` is the rows of `csr()` as Python lists, built on
    first access and cached. Complete graphs store only the two indptr
    arrays and `range` dispatcher rows, so K_{10^4,10^4} costs O(N+M)
    memory until a CSR is asked for.

    The public constructor always validates the dispatcher rows (nonempty,
    in range, no duplicate edge) and sorts them. The generators,
    `complete_bipartite` and `read_graph` use the private `_from_csr`
    instead; its callers guarantee a CSR with sorted, in-range rows in the
    direction they pass. The other direction is derived from it on first
    use, so a graph that is only written, or only simulated, never sorts
    its edges twice.
    """

    __slots__ = (
        "n_servers",
        "n_dispatchers",
        "n_edges",
        "meta",
        "_csr",
        "_reverse_csr",
        "_rows",
        "_connected",
    )

    def __init__(
        self, n_servers: int, n_dispatchers: int, adjacency: Sequence[Sequence[int]], *, meta: Optional[dict] = None
    ):
        rows = []
        for w, row in enumerate(adjacency):
            if len(row) == 0:
                raise ValueError(f"dispatcher {w} has no compatible server")
            srow = sorted(require_int(f"server index of dispatcher {w}", v) for v in row)
            for i, v in enumerate(srow):
                if not 0 <= v < n_servers:
                    raise ValueError(f"server index {v} out of range for dispatcher {w}")
                if i and v == srow[i - 1]:
                    raise ValueError(f"duplicate edge ({v}, {w})")
            rows.append(srow)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.array([len(row) for row in rows], dtype=np.int64), out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int32, count=indptr[-1])
        self._set(n_servers, n_dispatchers, meta, csr=(indptr, indices))

    @classmethod
    def _from_csr(cls, n_servers, n_dispatchers, meta, csr=None, reverse_csr=None):
        """The private constructor: a graph from its CSR in one direction,
        trusted as the class docstring says, or from none for K_{N,M}."""
        self = cls.__new__(cls)
        self._set(n_servers, n_dispatchers, meta, csr, reverse_csr)
        return self

    def _set(self, n_servers, n_dispatchers, meta, csr=None, reverse_csr=None):
        """The one place a graph's fields are set. A direction left None is
        derived from the other by `csr()` or `reverse_csr()`."""
        _check_sizes(n_servers, n_dispatchers)
        self._rows = None
        if csr is None and reverse_csr is None:  # complete: no indices until a CSR is asked for
            total = n_servers * n_dispatchers
            csr = (np.arange(0, total + 1, n_servers, dtype=np.int64), None)
            reverse_csr = (np.arange(0, total + 1, n_dispatchers, dtype=np.int64), None)
            self._rows = [range(n_servers)] * n_dispatchers
        elif csr is not None and len(csr[0]) != n_dispatchers + 1:
            raise ValueError("adjacency must have one row per dispatcher")
        for array in (*(csr or ()), *(reverse_csr or ())):
            if array is not None:
                array.flags.writeable = False
        self.n_servers = n_servers
        self.n_dispatchers = n_dispatchers
        self.n_edges = int((csr or reverse_csr)[0][-1])
        self.meta = dict(meta) if meta else {}
        self._csr = csr
        self._reverse_csr = reverse_csr
        self._connected: Optional[bool] = None

    @property
    def is_complete(self) -> bool:
        return self.n_edges == self.n_servers * self.n_dispatchers

    @property
    def adjacency(self) -> list:
        """Each dispatcher's sorted servers, a list view of `csr()`."""
        if self._rows is None:
            self._rows = _row_lists(*self.csr())
        return self._rows

    # `(self._csr or self.csr())[0]` is the indptr without building a
    # complete graph's implicit indices

    def dispatcher_degrees(self) -> np.ndarray:
        return np.diff((self._csr or self.csr())[0])

    def server_degrees(self) -> np.ndarray:
        return np.diff((self._reverse_csr or self.reverse_csr())[0])

    @property
    def is_connected(self) -> bool:
        """True iff the bipartite graph is connected (cached)."""
        if self._connected is None:
            self._connected = self.is_complete or _one_component(*self.csr(), *self.reverse_csr())
        return self._connected

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Dispatcher-major CSR: (int64 indptr, int32 server_indices),
        read-only. Row w spans indices[indptr[w]:indptr[w+1]]. A complete
        graph builds its indices on first use, all N*M of them, so avoid
        this on huge complete graphs."""
        if self._csr is None:
            self._csr = _read_only(_flip(*self._reverse_csr, self.n_dispatchers))
        elif self._csr[1] is None:
            self._csr = _dense(self._csr[0], self.n_servers)
        return self._csr

    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Server-major CSR: (int64 indptr, int32 dispatcher_indices), as `csr`."""
        if self._reverse_csr is None:
            self._reverse_csr = _read_only(_flip(*self._csr, self.n_servers))
        elif self._reverse_csr[1] is None:
            self._reverse_csr = _dense(self._reverse_csr[0], self.n_dispatchers)
        return self._reverse_csr

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_servers == other.n_servers
            and self.n_dispatchers == other.n_dispatchers
            and self.n_edges == other.n_edges
            and (self.is_complete or all(map(np.array_equal, self.csr(), other.csr())))
        )

    def __repr__(self) -> str:
        return f"BipartiteGraph(N={self.n_servers}, M={self.n_dispatchers}, E={self.n_edges})"


def _dense(indptr: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """A complete graph's CSR, read-only: every row is range(cols)."""
    return _read_only((indptr, np.tile(np.arange(cols, dtype=np.int32), len(indptr) - 1)))


def _read_only(csr: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    for array in csr:
        array.flags.writeable = False
    return csr


# ---------------------------------------------------------------------------
# deterministic constructors


def complete_bipartite(n_servers: int, n_dispatchers: int) -> BipartiteGraph:
    """K_{N,M}: every server compatible with every dispatcher."""
    return BipartiteGraph._from_csr(n_servers, n_dispatchers, {"generator": "complete"})


def perfect_matching(n: int) -> BipartiteGraph:
    """Dispatcher i matched to server i only. Disconnected for n >= 2.

    Used as a checker fixture (it satisfies the load condition trivially),
    not as a simulation target.
    """
    _check_sizes(n, n)
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
    `rng.integers` call over an (N, c) array consumes the stream exactly as
    the scalar draws in server order do, and `_floyd_replace` then finds
    the replaced draws for all servers at once.
    """
    _check_sizes(n_servers, n_dispatchers)
    if not 1 <= c <= n_dispatchers:
        raise ValueError(f"server degree c={c} must be in [1, {n_dispatchers}]")
    seed = require_seed(seed)
    rng = np.random.default_rng(seed)
    top = np.arange(n_dispatchers - c, n_dispatchers, dtype=np.int32)  # M-c+k
    for attempt in range(GENERATION_RETRIES):
        picks = rng.integers(0, top + 1, size=(n_servers, c), dtype=np.int32)
        _floyd_replace(picks, top)
        if np.bincount(picks.ravel(), minlength=n_dispatchers).all():  # no isolated dispatcher
            meta = {"generator": "fixed-degree", "c": c, "seed": seed, "retries": attempt}
            picks.sort(axis=1)
            indptr = np.arange(0, n_servers * c + 1, c, dtype=np.int64)
            server_csr = (indptr, picks.ravel())
            return BipartiteGraph._from_csr(n_servers, n_dispatchers, meta, reverse_csr=server_csr)
    raise GraphGenerationError(
        f"fixed-degree generation left an isolated dispatcher in all "
        f"{GENERATION_RETRIES} attempts (N={n_servers}, M={n_dispatchers}, c={c}); "
        f"the c/M regime is too sparse"
    )


# `_floyd_replace` sorts about this many draws at a time, so its scratch
# arrays stay near 256 KiB of int64 whatever the graph.
_CHUNK = 2**15


def _floyd_replace(picks: np.ndarray, top: np.ndarray) -> None:
    """Apply Floyd's replacements in place to rows of draws, picks[:, k]
    uniform on [0, top[k]] with top[k] = top[0] + k.

    A row's set after draws 0..k-1 is its draws so far plus top[j] for each
    replaced j < k, so draw k is replaced iff it repeats an earlier draw of
    its row, found by sorting the row's keys draw*c + k, or equals top[j]
    for a replaced j < k. The second needs top[0] <= draw < top[k]; those
    few draws are resolved column by column, so chains of replacements
    settle in order.
    """
    n, c = picks.shape
    replaced = np.zeros((n, c), dtype=bool)
    cols = np.arange(c, dtype=np.int64)
    step = max(1, _CHUNK // c)
    for a in range(0, n, step):
        keys = picks[a : a + step].astype(np.int64)
        keys *= c
        keys += cols
        keys.sort(axis=1)
        draws = keys // c
        rows, at = np.nonzero(draws[:, 1:] == draws[:, :-1])
        replaced[rows + a, keys[rows, at + 1] % c] = True
    # transposed, so the hits come column by column
    ks, rows = np.nonzero((picks.T >= top[0]) & (picks.T < top[:, None]))
    cuts = np.flatnonzero(np.diff(ks)) + 1
    for k, r in zip(np.split(ks, cuts), np.split(rows, cuts)):
        if r.size:
            replaced[r, k[0]] |= replaced[r, picks[r, k[0]] - top[0]]
    np.copyto(picks, top, where=replaced)


def generate_inhomogeneous(n_servers: int, n_dispatchers: int, p, seed: int) -> BipartiteGraph:
    """Edge (v, w) present independently with probability p[w].

    `p` may be a scalar or a length-M vector with entries in (0, 1].
    Dispatcher w's row is {v : u[v] < p[w]} for the first uniform N-vector
    u of the stream, after those of dispatchers 0..w-1, that gives a
    nonempty row: an isolated dispatcher has only its own row resampled
    (rows are independent, so this preserves the conditional law), up to
    GENERATION_RETRIES times.
    """
    _check_sizes(n_servers, n_dispatchers)
    try:
        p = np.broadcast_to(np.asarray(p, dtype=float), (n_dispatchers,))
    except OverflowError:  # an int past the float range
        raise ValueError(f"edge probabilities must lie in (0, 1], not {p}") from None
    if not ((p > 0) & (p <= 1)).all():  # NaN fails both comparisons
        raise ValueError("edge probabilities must lie in (0, 1]")
    seed = require_seed(seed)
    rng = np.random.default_rng(seed)
    u = np.empty(n_servers)
    csr, retries = _nonempty_rows(
        n_dispatchers,
        lambda w, attempt: np.flatnonzero(rng.random(out=u) < p[w]),
        lambda w: f"dispatcher {w} stayed isolated after {GENERATION_RETRIES} resamples (p={p[w]:g}, N={n_servers})",
    )
    meta = {"generator": "inhomogeneous", "seed": seed, "retries": retries}
    return BipartiteGraph._from_csr(n_servers, n_dispatchers, meta, csr=csr)


def generate_geometric(n_servers: int, n_dispatchers: int, radius: float, seed: int) -> BipartiteGraph:
    """Servers and dispatchers placed uniformly on the unit square; edge iff
    their Euclidean distance is at most `radius`.

    Positions are kept in graph.meta ("server_xy", "dispatcher_xy"). All
    positions are drawn up front; then, in index order, an isolated
    dispatcher is moved to a fresh uniform position up to
    GENERATION_RETRIES times.
    """
    _check_sizes(n_servers, n_dispatchers)
    if not radius > 0:  # NaN too
        raise ValueError("radius must be positive")
    try:
        float(radius)
    except OverflowError:  # an int past the float range
        raise ValueError(f"radius must lie within the float range, not {radius}") from None
    seed = require_seed(seed)
    rng = np.random.default_rng(seed)
    sxy = rng.random((n_servers, 2))
    dxy = rng.random((n_dispatchers, 2))
    sx, sy = sxy.T.copy()
    dx, dy = np.empty(n_servers), np.empty(n_servers)

    def draw(w: int, attempt: int) -> np.ndarray:
        """The servers v with (sx[v] - x)**2 + (sy[v] - y)**2 <= r**2 in
        float64, (x, y) dispatcher w's position, moved on a redraw."""
        if attempt:
            dxy[w] = rng.random(2)
        np.square(np.subtract(sx, dxy[w, 0], out=dx), out=dx)
        np.square(np.subtract(sy, dxy[w, 1], out=dy), out=dy)
        return np.flatnonzero(np.add(dx, dy, out=dx) <= radius * radius)

    csr, retries = _nonempty_rows(n_dispatchers, draw, lambda w: (
        f"dispatcher {w} found no server within radius {radius:g} after {GENERATION_RETRIES} placements"))
    meta = {
        "generator": "geometric",
        "radius": radius,
        "seed": seed,
        "retries": retries,
        "server_xy": sxy,
        "dispatcher_xy": dxy,
    }
    return BipartiteGraph._from_csr(n_servers, n_dispatchers, meta, csr=csr)


def _nonempty_rows(
    m: int, draw: Callable[[int, int], np.ndarray], isolated: Callable[[int], str]
) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """(dispatcher-major CSR, redraws in all) of rows drawn one dispatcher at
    a time: row w is the first nonempty `draw(w, attempt)` (sorted server
    indices) for attempt = 0, 1, ..., GENERATION_RETRIES; if there is none,
    GraphGenerationError(isolated(w))."""
    rows, retries = [], 0
    for w in range(m):
        for attempt in range(GENERATION_RETRIES + 1):
            row = draw(w, attempt)
            if row.size:
                break
        else:
            raise GraphGenerationError(isolated(w))
        retries += attempt
        rows.append(row)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    return (indptr, np.concatenate(rows, dtype=np.int32)), retries


def radius_for_mean_degree(n_servers: int, mean_degree: float) -> float:
    """Radius giving expected dispatcher degree ~ mean_degree (pi r^2 N),
    ignoring boundary effects."""
    return math.sqrt(mean_degree / (math.pi * n_servers))


# ---------------------------------------------------------------------------
# declarative specs (CLI / experiment families)

# the GraphSpec fields each kind reads
READS = {"complete": ("n", "m"), "matching": ("n",), "fixed-degree": ("n", "m", "c", "seed"),
         "inhomogeneous": ("n", "m", "p", "seed"), "geometric": ("n", "m", "radius", "seed"), "braess": ()}
KINDS = tuple(READS)


@dataclass(frozen=True)
class GraphSpec:
    """Declarative recipe for a graph, validated per kind at build time: a
    kind refuses a set field that it does not read (`READS`) and needs
    each one it reads but m and seed, which default to n and 0."""

    kind: str
    n: Optional[int] = None
    m: Optional[int] = None
    c: Optional[int] = None
    p: Optional[object] = None
    radius: Optional[float] = None
    seed: Optional[int] = None

    def build(self) -> BipartiteGraph:
        if self.kind not in KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}; expected one of {KINDS}")
        reads = READS[self.kind]
        unread = [f.name for f in fields(self) if f.name not in ("kind", *reads) and getattr(self, f.name) is not None]
        if unread:
            raise ValueError(f"a {self.kind} graph does not read {', '.join(unread)}")
        missing = [key for key in reads if key not in ("m", "seed") and getattr(self, key) is None]
        if missing:
            raise ValueError(f"{self.kind} spec needs {missing[0]}")
        m = self.n if self.m is None else self.m
        seed = 0 if self.seed is None else self.seed
        if self.kind == "braess":
            return braess_example()
        if self.kind == "matching":
            return perfect_matching(self.n)
        if self.kind == "complete":
            return complete_bipartite(self.n, m)
        if self.kind == "fixed-degree":
            return generate_fixed_server_degree(self.n, m, self.c, seed)
        if self.kind == "inhomogeneous":
            return generate_inhomogeneous(self.n, m, self.p, seed)
        if not 0 < self.radius <= math.sqrt(2):
            raise ValueError("radius must lie in (0, sqrt(2)]")
        return generate_geometric(self.n, m, self.radius, seed)


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
    """Write in canonical BPG v1 form (edges ascending lexicographic), one
    string join per server row of `reverse_csr()`. Each dispatcher index is
    formatted once, into a table that the rows look up: every dispatcher
    has an edge, so the table is no larger than the edge list."""
    indptr, dispatchers = graph.reverse_csr()
    table = [str(w) for w in range(graph.n_dispatchers)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("BPG v1\n")
        fh.write(f"{graph.n_servers} {graph.n_dispatchers} {graph.n_edges}\n")
        for v, (a, b) in enumerate(itertools.pairwise(indptr.tolist())):
            if a < b:
                fh.write(f"{v} " + f"\n{v} ".join(map(table.__getitem__, dispatchers[a:b].tolist())) + "\n")


def read_graph(path) -> BipartiteGraph:
    """Read a BPG v1 file. Accepts edges in any order, separated by ASCII
    whitespace, with LF, CRLF or CR line endings; rejects indices that are
    not ASCII decimal digits, out-of-range indices, duplicates, count
    mismatches and dispatchers without an edge. Errors name the file and,
    where one applies, the line. A body in `write_graph`'s form is streamed
    into int32 indices (`_streamed_csr`); any other body, and a header E
    larger than the file can hold, goes to the line reader over the file."""
    with open(path, "rb") as fh:
        n, m, indptr, indices = _parse_bpg(fh if fh.seekable() else io.BytesIO(fh.read()), path)
    return BipartiteGraph._from_csr(n, m, {"generator": "file"}, reverse_csr=(indptr, indices))


# the bytes of a body as `write_graph` writes it
_BODY_BYTES = b"0123456789 \n"
_BODY_CHUNK = 2**17  # bytes of a body read at a time


def _parse_bpg(fh, path) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(N, M, indptr, indices) of the BPG v1 file open in `fh`, binary and
    seekable; (indptr, indices) is the server-major CSR."""

    def error(message: str, line: Optional[int] = None) -> GraphFormatError:
        where = path if line is None else f"{path}, line {line}"
        return GraphFormatError(f"{where}: {message}")

    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    head = fh.readline() + fh.readline()  # two lines, or all of a file whose lines end with CR alone
    # a line ends at LF, CRLF or a lone CR, as text mode reads it; a missing line reads as empty
    lines = head.splitlines(keepends=True) + [b"", b""]
    header, dims_line, rest = lines[0].rstrip(b"\r\n"), lines[1].rstrip(b"\r\n"), b"".join(lines[2:])
    if header != b"BPG v1":
        raise error(f"bad header {_shown(header, 'bytes')!r}; expected 'BPG v1'", 1)
    dims = dims_line.split()
    if len(dims) != 3:
        raise error("second line must be '<N> <M> <E>'", 2)
    if not all(x.isdigit() for x in dims):  # bytes.isdigit() is ASCII only
        raise error(f"non-integer dimensions: {[_shown(x, 'bytes') for x in dims]}", 2)
    n_digits, m_digits, e_digits = (_significant(x) for x in dims)
    if max(len(n_digits), len(m_digits)) > 10 or max(int(n_digits), int(m_digits)) >= INDEX_LIMIT:
        raise error(
            f"dimensions N={_shown(n_digits)} M={_shown(m_digits)} too large; N and M must be below 2^31", 2
        )
    if len(e_digits) > 19:
        raise error(f"edge count E={_shown(e_digits)} too large; E is at most N*M < 2^62", 2)
    n, m, e = int(n_digits), int(m_digits), int(e_digits)
    if n < 1 or m < 1:
        raise error(f"invalid dimensions N={n} M={m} E={e}", 2)
    # every edge line in the writer's form takes 4 bytes or more
    csr = _streamed_csr(rest, fh, n, m, e) if 4 * e <= len(rest) + size - fh.tell() else None
    if csr is None:  # not in the writer's form: the line reader reads it or names the first bad line
        fh.seek(0)
        edges = _edge_lines(fh.read(), n, m, error)
        csr = _keyed_csr(np.array(sorted(v * m + w for v, w in edges), dtype=np.int64), n, m)
    indptr, indices = csr
    if indices.size != e:
        raise error(f"edge count mismatch: header says {e}, found {indices.size}")
    covered = np.zeros(m, dtype=bool)
    covered[indices] = True  # buffered: no int64 copy of the indices, as bincount makes
    if not covered.all():
        raise error(f"dispatcher {int(np.argmin(covered))} has no compatible server")
    return n, m, indptr, indices


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


def _edge_lines(data: bytes, n: int, m: int, error) -> set[tuple[int, int]]:
    """The edges (v, w) on the lines of a BPG file's bytes from line 3 on;
    a line ends at LF, CRLF or a lone CR (`bytes.splitlines`).

    This is the format's definition: blank lines are skipped, and every
    other line holds a server and a dispatcher index in range, as ASCII
    digits, not repeating an earlier edge. Raises `error(message, line)`
    for the first line that does not.
    """
    edges: set[tuple[int, int]] = set()
    for line, text in enumerate(data.splitlines()[2:], start=3):
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


def _streamed_csr(rest: bytes, fh, n: int, m: int, e: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The server-major CSR of a BPG body in `write_graph`'s form, LF-ended
    lines "<v> <w>" of ASCII digits with the keys v*M + w strictly ascending;
    None for any other body. The body is `rest`, then `_BODY_CHUNK`-byte
    reads of `fh` cut after their last LF. `np.fromstring` ignores line
    ends and reads an index beyond int64 as INT64_MAX: each part's bytes
    are checked before it, the range and order after it."""
    indptr = np.zeros(n + 1, dtype=np.int64)  # server v's degree at v + 1 until the cumsum
    indices = np.empty(e, dtype=np.int32)
    carry, pos, last = [], 0, -1
    for chunk in itertools.chain([rest], iter(lambda: fh.read(_BODY_CHUNK), b"")):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry.append(chunk)
            continue
        part, carry = b"".join([*carry, chunk[:cut]]), [chunk[cut:]]
        if part.translate(None, _BODY_BYTES):
            return None
        raw = np.frombuffer(part, dtype=np.uint8)
        sep = raw < 48  # a space or an LF
        seps = raw[sep]
        # each line is digits, a space, digits, an LF: fromstring reads two indices a line
        if sep[0] or (sep[1:] & sep[:-1]).any() or (seps[0::2] != 32).any() or (seps[1::2] != 10).any():
            return None
        flat = np.fromstring(part, dtype=np.int64, sep=" ")
        v, w = flat[0::2], flat[1::2]
        if pos + v.size > e or (v >= n).any() or (w >= m).any():
            return None
        keys = v * m + w
        if keys[0] <= last or (keys[1:] <= keys[:-1]).any():
            return None
        indices[pos : pos + v.size] = w
        indptr[v[0] + 1 : v[-1] + 2] += np.bincount(v - v[0])
        pos, last = pos + v.size, keys[-1]
        del raw, sep, seps, flat, v, w, keys  # before the next part's temporaries
    if any(carry):  # an unended last line
        return None
    return np.cumsum(indptr, out=indptr), indices[:pos]
