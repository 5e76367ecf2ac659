"""Event-driven simulation of JSQ(d) on a bipartite compatibility graph.

Tasks arrive in one Poisson stream of rate lambda*N; each arrival picks a
dispatcher uniformly, samples min(d, deg) of its compatible servers
without replacement, and joins the shortest sampled queue (ties uniform
among the tied samples). Servers serve FCFS at unit mean rate.

Exponential service is uniformized (Jensen 1953): events come at the
constant rate (lambda+1)*N, each one an arrival with probability
lambda/(1+lambda) and otherwise a potential departure at a uniform server
among all N, a no-op when that server is idle. The whole random input of
such a run is then independent of its state. Deterministic and Pareto
service keep a heap of completion times, scheduled when a task starts
service. Either way every random number is drawn ahead of time in numpy
blocks of BLOCK events, and the Python loop only applies the state update.

The coupled run drives a constrained system and a fully flexible twin
with shared arrival and potential-departure streams to expose their
pathwise occupancy inequality; see coupled_simulate.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import BipartiteGraph
from .records import (
    CoupledRecord,
    SteadyStateSummary,
    TrajectoryRecord,
    require_finite_positive,
    require_positive_int,
    sample_grid,
)

DEFAULT_DEPTH = 30
BLOCK = 4096  # events drawn per numpy block
PARETO_SHAPE = 3.0
PARETO_SCALE = 2.0 / 3.0  # mean = shape*scale/(shape-1) = 1
_WINDOW, _STOP = -1, -2  # boundary actions; a sample's action is its index


class InvariantViolation(RuntimeError):
    """A runtime invariant failed; this signals a bug, not bad input."""


@dataclass(frozen=True)
class ServiceDistribution:
    """Unit-mean service time law: exponential, deterministic, or pareto.

    The Pareto variant has shape 3 and scale 2/3, so all three kinds are
    directly comparable at mean 1.
    """

    kind: str

    KINDS = ("exponential", "deterministic", "pareto")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"service kind must be one of {self.KINDS}, not {self.kind!r}")

    @property
    def is_markovian(self) -> bool:
        return self.kind == "exponential"

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """`size` independent service times."""
        if self.kind == "deterministic":
            return np.ones(size)
        if self.kind == "pareto":
            # numpy's pareto is the Lomax law; 1 + Lomax is the classical Pareto
            return PARETO_SCALE * (1.0 + gen.pareto(PARETO_SHAPE, size))
        return gen.standard_exponential(size)


def _as_service(service) -> ServiceDistribution:
    if isinstance(service, ServiceDistribution):
        return service
    return ServiceDistribution(str(service))


def _check_inputs(graph: BipartiteGraph, d: int, lam: float, allow_disconnected: bool, allow_overload: bool) -> int:
    """Validate the shared run arguments; returns d as an int."""
    d = require_positive_int("d", d)
    require_finite_positive("lambda", lam)
    if lam >= 1 and not allow_overload:
        raise ValueError("lambda >= 1 is unstable; pass allow_overload=True to force")
    if not allow_disconnected and not graph.is_connected:
        raise ValueError(
            "graph is disconnected; pass allow_disconnected=True to simulate anyway"
        )
    return d


def _require_seed(seed) -> int:
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed}")
    return value


def _replica_stream(seed: int, replica: int) -> np.random.Generator:
    """Replica r's generator, from SeedSequence(seed, spawn_key=(r,)): no two
    (seed, r) pairs share it, and it is not default_rng(seed), the stream
    that the graph generators draw from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica,)))


def _warn_overload(lam: float) -> None:
    """Warn about an allowed lambda >= 1; called once every argument check has passed."""
    if lam >= 1:
        warnings.warn(f"running overloaded (lambda={lam}); queues will grow without bound")


def _occupancy_row(row: np.ndarray, level: Sequence[float], scale: float) -> None:
    """row[i-1] = level[i] / scale for i = 1..min(len(row), len(level) - 1);
    cells past the last level keep their value."""
    for i in range(1, min(len(row), len(level) - 1) + 1):
        row[i - 1] = level[i] / scale


def choose_shortest(sampled: Sequence[int], lengths: Sequence[int], rng: random.Random) -> int:
    """Shortest queue among the sampled servers, ties uniform among the
    tied samples by one rng.randrange(len(ties)) draw (none when the
    minimum is unique).

    A reference form of the routing step: the simulator draws its samples
    in uniform order instead and takes the first shortest one, which
    breaks ties uniformly with no draw.
    """
    best_len = None
    ties: list[int] = []
    for v in sampled:
        l = lengths[v]
        if best_len is None or l < best_len:
            best_len = l
            ties = [v]
        elif l == best_len:
            ties.append(v)
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


def _ordered_sample(gen: np.random.Generator, degs: np.ndarray, cols: int) -> list[np.ndarray]:
    """Row positions as `cols` columns: row j holds an ordered sample of
    min(cols, degs[j]) distinct positions below degs[j], uniform over
    arrangements; columns past degs[j] repeat column 0.

    Position k < min(cols, degs[j]) draws r below degs[j] - k (an exact
    integer draw) and becomes the r-th position not picked before it."""
    first = gen.integers(0, degs)
    picks = [first]
    for k in range(1, cols):
        live = degs > k
        r = gen.integers(0, degs[live] - k)
        earlier = np.column_stack(picks)[live]
        earlier.sort(axis=1)
        for p in earlier.T:  # ascending: each earlier pick at or below r moves r up one
            r += p <= r
        pick = first.copy()
        pick[live] = r
        picks.append(pick)
    return picks


def _record_sample(occupancy: np.ndarray, overflow: np.ndarray, idx: int, Q: list[int], n: int) -> None:
    depth = occupancy.shape[1]
    _occupancy_row(occupancy[idx], Q, n)
    overflow[idx] = Q[depth + 1] if len(Q) > depth + 1 else 0


def _check_counts(lengths: list[int], Q: list[int]) -> None:
    expect = _level_counts(lengths)
    if expect != Q[: len(expect)] or any(Q[len(expect) :]):
        raise InvariantViolation("incremental occupancy counts diverged from state")


def _level_counts(lengths: list[int]) -> list[int]:
    """Q[i] = number of servers with at least i tasks, i = 0..max(lengths)."""
    return np.cumsum(np.bincount(lengths)[::-1])[::-1].tolist()


def _drain(heap: list, until: float, lengths: list[int], Q: list[int], tw: list[float], next_service) -> None:
    """Complete every scheduled service at or before `until`, in time order."""
    while heap and heap[0][0] <= until:
        t, v = heapq.heappop(heap)
        l = lengths[v]
        lengths[v] = l - 1
        Q[l] -= 1
        tw[l] -= t
        if l > 1:
            heapq.heappush(heap, (t + next_service(), v))


def _simulate_core(
    graph: BipartiteGraph,
    d: int,
    lam: float,
    horizon: float,
    service: ServiceDistribution,
    gen: np.random.Generator,
    initial_lengths: Optional[Sequence[int]],
    sample_interval: Optional[float],
    area_from: Optional[float],
    depth: int,
    debug: bool,
    on_assign: Optional[Callable[[int, int, Sequence[int], Sequence[int]], None]],
) -> tuple[TrajectoryRecord, Optional[list[float]]]:
    """One replica: (record, area). The record samples the occupancy
    every `sample_interval` (no samples when it is None), and `area` holds
    the per-level time integrals of Q_i over [area_from, horizon] when
    `area_from` is given.

    A block holds BLOCK events: their times, their kinds (Markovian runs),
    each arrival's dispatcher and ordered server sample, and each potential
    departure's server. The boundaries - sample times, the window start and
    the horizon - cut the blocks into segments, and the loop over a segment
    reads the block as Python lists and only updates the state. Departures
    are stored as ~server (negative), arrivals as their first sample.
    """
    n, m = graph.n_servers, graph.n_dispatchers
    markovian = service.is_markovian
    degs = graph.dispatcher_degrees()
    cols = min(d, int(degs.max()))
    # pair: b is the other sample (d = 1 repeats the first); otherwise b lists
    # the rest, and the general branch also drains the heap and calls the hook
    pair = markovian and cols <= 2 and on_assign is None
    csr = None if graph.is_complete else graph.csr()  # complete rows: position = server
    rate = (lam + 1.0) * n if markovian else lam * n
    p_arrival = lam / (1.0 + lam)

    lengths = [0] * n
    if initial_lengths is not None:
        if len(initial_lengths) != n:
            raise ValueError("initial_lengths must have one entry per server")
        for v, l in enumerate(initial_lengths):
            l = int(l)
            if l < 0:
                raise ValueError("queue lengths must be nonnegative")
            lengths[v] = l
    start_tasks = sum(lengths)
    Q = _level_counts(lengths)
    top = len(Q)
    # tw[i] = sum of t * (change of Q_i at t) over the events so far, reset to
    # Q_i * area_from when the window opens; then area_i = Q_i * horizon - tw[i]
    tw = [0.0] * top

    next_service = None
    heap: list[tuple[float, int]] = []
    if not markovian:
        def service_times():
            while True:
                yield from service.draw(gen, BLOCK).tolist()

        next_service = service_times().__next__
        heap = [(next_service(), v) for v, l in enumerate(lengths) if l > 0]
        heapq.heapify(heap)

    grid = sample_grid(horizon, sample_interval) if sample_interval is not None else np.empty(0)
    occupancy = np.zeros((len(grid), depth))
    overflow = np.zeros(len(grid), dtype=np.int64)
    bounds = [(g, s) for s, g in enumerate(grid.tolist())]
    if area_from is not None:
        bounds.append((area_from, _WINDOW))
    bounds.append((horizon, _STOP))
    bounds.sort(key=lambda b: b[0])  # stable: a sample at the horizon precedes the stop

    def draw_block(t0: float):
        times = t0 + np.cumsum(gen.standard_exponential(BLOCK)) / rate
        if markovian:
            arriving = np.flatnonzero(gen.random(BLOCK) < p_arrival)
        w = gen.integers(0, m, len(arriving) if markovian else BLOCK)
        picks = _ordered_sample(gen, degs[w], cols)
        if csr is not None:
            base = csr[0][w]
            picks = [csr[1][base + p] for p in picks]
        if markovian:  # a potential departure holds ~server in the first column
            spread = [~gen.integers(0, n, BLOCK)] + [np.zeros(BLOCK, dtype=np.int64) for _ in picks[1:]]
            for col, p in zip(spread, picks):
                col[arriving] = p
            picks = spread
        return times.tolist(), picks

    T: list[float] = []
    A: list[int] = []
    B: list = []
    first = np.empty(0, dtype=np.int64)
    pos = bi = arrivals = 0
    b_time, action = bounds[0]
    while True:
        end = bisect_right(T, b_time, pos)
        for t, a, b in zip(T[pos:end], A[pos:end], B[pos:end]):
            if a < 0:  # potential departure at server ~a
                a = ~a
                l = lengths[a]
                if l:
                    lengths[a] = l - 1
                    Q[l] -= 1
                    tw[l] -= t
                continue
            if pair:
                l, lb = lengths[a], lengths[b]
                if lb < l:
                    a, l = b, lb
            else:
                if heap and heap[0][0] <= t:
                    _drain(heap, t, lengths, Q, tw, next_service)
                v, l = a, lengths[a]
                for u in b:
                    lu = lengths[u]
                    if lu < l:
                        v, l = u, lu
                if on_assign is not None:
                    on_assign(v, l, list(dict.fromkeys([a, *b])), lengths)
                if l == 0 and next_service is not None:
                    heapq.heappush(heap, (t + next_service(), v))
                a = v
            l += 1
            lengths[a] = l
            if l == top:
                Q.append(0)
                tw.append(0.0)
                top += 1
            Q[l] += 1
            tw[l] += t
        if end == len(T):  # no boundary in this block: draw the next one
            arrivals += int(np.count_nonzero(first >= 0))
            if debug:
                _check_counts(lengths, Q)
            T, picks = draw_block(T[-1] if T else 0.0)
            first = picks[0]
            A = first.tolist()
            B = (picks[-1] if pair else np.column_stack(picks)[:, 1:]).tolist()
            pos = 0
            continue
        pos = end
        if heap and heap[0][0] <= b_time:
            _drain(heap, b_time, lengths, Q, tw, next_service)
        if action == _STOP:
            break
        if action == _WINDOW:
            tw[:] = [q * b_time for q in Q]
        else:
            _record_sample(occupancy, overflow, action, Q, n)
        bi += 1
        b_time, action = bounds[bi]

    arrivals += int(np.count_nonzero(first[:end] >= 0))
    for _, action in bounds[bi + 1 :]:  # samples within rounding past the horizon
        _record_sample(occupancy, overflow, action, Q, n)
    if debug:
        _check_counts(lengths, Q)
    departures = arrivals + start_tasks - sum(lengths)
    record = TrajectoryRecord(
        sample_times=grid,
        occupancy=occupancy,
        overflow=overflow,
        n_servers=n,
        event_count=arrivals + departures,
        arrival_count=arrivals,
        departure_count=departures,
        final_queue_lengths=np.array(lengths, dtype=np.int64),
    )
    area = None if area_from is None else [q * horizon - s for q, s in zip(Q, tw)]
    return record, area


def simulate(
    graph: BipartiteGraph,
    d: int,
    lam: float,
    horizon: float,
    service="exponential",
    initial_lengths: Optional[Sequence[int]] = None,
    sample_interval: Optional[float] = 0.1,
    seed: int = 0,
    depth: int = DEFAULT_DEPTH,
    allow_disconnected: bool = False,
    allow_overload: bool = False,
    debug: bool = False,
    on_assign: Optional[Callable[[int, int, Sequence[int], Sequence[int]], None]] = None,
) -> TrajectoryRecord:
    """Simulate JSQ(d) for `horizon` time units, sampling occupancy every
    `sample_interval` (None: counts and final lengths only, no samples).
    Deterministic given (config, seed); the run is replica 0 of
    `steady_state` at the same seed, and recording draws nothing.

    `on_assign(server, queue_length_before, sampled_servers, lengths)` is a
    test hook called at each assignment with live (read-only) state; leave
    it None in production runs.
    """
    service = _as_service(service)
    d = _check_inputs(graph, d, lam, allow_disconnected, allow_overload)
    require_finite_positive("horizon", horizon)
    depth = require_positive_int("depth", depth)
    seed = _require_seed(seed)
    _warn_overload(lam)
    record, _ = _simulate_core(
        graph, d, lam, horizon, service, _replica_stream(seed, 0),
        initial_lengths, sample_interval, None, depth, debug, on_assign,
    )
    return record


def steady_state(
    graph: BipartiteGraph,
    d: int,
    lam: float,
    warmup: Optional[float] = None,
    measure: float = 200.0,
    replicas: int = 8,
    service="exponential",
    seed: int = 0,
    depth: int = DEFAULT_DEPTH,
    allow_disconnected: bool = False,
    allow_overload: bool = False,
) -> SteadyStateSummary:
    """Time-averaged occupancy over [warmup, warmup+measure] per replica,
    with across-replica mean and standard error.

    Replica r runs an isolated simulation on the generator of
    SeedSequence(seed, spawn_key=(r,)), so distinct seeds give distinct
    replica sets. The default warmup is 10/(1-lambda) time units, the
    relaxation scale of the limiting dynamics; an overloaded run must pass
    its own. The mean queue length integrates every level, not just the
    reported depth.
    """
    service = _as_service(service)
    d = _check_inputs(graph, d, lam, allow_disconnected, allow_overload)
    if warmup is None:
        if lam >= 1:
            raise ValueError(
                "warmup must be given at lambda >= 1; the default 10/(1 - lambda) needs lambda < 1"
            )
        warmup = 10.0 / (1.0 - lam)
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ValueError(f"warmup must be finite and >= 0, not {warmup}")
    require_finite_positive("measure", measure)
    depth = require_positive_int("depth", depth)
    replicas = require_positive_int("replicas", replicas)
    seed = _require_seed(seed)
    _warn_overload(lam)
    n = graph.n_servers
    horizon = warmup + measure
    rep_occ = np.zeros((replicas, depth))
    rep_mql = np.zeros(replicas)
    for r in range(replicas):
        _, area = _simulate_core(
            graph, d, lam, horizon, service, _replica_stream(seed, r),
            None, None, warmup, depth, False, None,
        )
        denom = n * measure
        rep_mql[r] = sum(area[1:]) / denom
        _occupancy_row(rep_occ[r], area, denom)
    mean_q = rep_occ.mean(axis=0)
    mql = float(rep_mql.mean())
    if replicas > 1:
        mql_se = float(rep_mql.std(ddof=1) / math.sqrt(replicas))
        q_se = rep_occ.std(axis=0, ddof=1) / math.sqrt(replicas)
    else:
        mql_se = 0.0
        q_se = np.zeros(depth)
    return SteadyStateSummary(
        replica_mean_qlen=rep_mql,
        replica_occupancy=rep_occ,
        mean_qlen=mql,
        mean_qlen_stderr=mql_se,
        occupancy_mean=mean_q,
        occupancy_stderr=q_se,
        config={
            "d": d,
            "lambda": lam,
            "warmup": warmup,
            "measure": measure,
            "replicas": replicas,
            "service": service.kind,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# coupled two-system run


def _min_of_d_level(counts: Sequence[int], total: int, d: int, u: float) -> int:
    """Length of the shortest of d uniform draws from `total` servers,
    counts[i] of them at length i: `policy.invert_cdf` at u over the masses
    (tail_i/total)^d - (tail_{i+1}/total)^d, fused into one loop with the
    same float operations (non-positive masses skipped, last positive cell
    as the fallback)."""
    tail, prev_pow, cum, last = total, 1.0, 0.0, -1  # prev_pow = (tail_0/total)^d
    for i, c in enumerate(counts):
        tail -= c
        new_pow = (tail / total) ** d
        mass = prev_pow - new_pow
        prev_pow = new_pow
        if mass > 0.0:
            last = i
            cum += mass
            if u < cum:
                return i
    if last < 0:
        raise ValueError("cannot invert a CDF with no positive cell")
    return last


def coupled_simulate(
    graph: BipartiteGraph,
    d: int,
    lam: float,
    horizon: float,
    seed: int = 0,
    sample_interval: float = 0.1,
    depth: int = DEFAULT_DEPTH,
    allow_disconnected: bool = False,
) -> CoupledRecord:
    """Run the constrained system and a fully flexible twin on shared
    randomness and verify their pathwise occupancy inequality.

    Both systems start empty and see one Poisson(lambda*N) arrival stream
    and one Poisson(N) potential-departure stream. A potential departure
    draws an ordered slot j: each system independently removes a task from
    its j-th server in queue-length-sorted order, if busy (idle slots are
    no-ops; this uniformizes the unit-rate servers exactly). An arrival
    draws a dispatcher w and a single uniform variate u. The constrained
    system counts its neighborhood's servers per length in one pass over
    w's row, the twin uses its level counts, and each inverts its min-of-d
    CDF at the same u with `_min_of_d_level`. This comonotone coupling
    keeps the chosen queue lengths equal as often as the CDFs allow; when
    they differ the mismatch count delta increases by one. The constrained
    system then places the task on a uniform server among all of its
    servers at its chosen length i_g, not only among those in w's row.
    The twin's servers are exchangeable, so it keeps only its occupancy
    counts: its task raises one count at its chosen length (the uniform
    server it would pick is drawn and discarded).

    After every event the inequality

        sum_i |Q_i(flexible) - Q_i(constrained)| <= 2 * delta

    is asserted exactly (integer arithmetic); a violation raises
    InvariantViolation and means the implementation is broken, not the
    input. Exponential service only: the construction lives on the
    Markovian system.
    """
    if lam >= 1:
        raise ValueError(f"lambda must be < 1 in a coupled run, not {lam}")
    _check_inputs(graph, d, lam, allow_disconnected, False)
    require_finite_positive("horizon", horizon)
    depth = require_positive_int("depth", depth)
    d = int(d)
    n = graph.n_servers
    m = graph.n_dispatchers
    adj = graph.adjacency
    # draws inlined, equal to randrange/expovariate draw for draw
    rng = random.Random(seed)
    bits = rng.getrandbits
    rnd = rng.random
    log = math.log
    m_bits = m.bit_length()
    n_bits = n.bit_length()
    d_k = d if d < n else n

    # Constrained system: queue lengths and one server list per length.
    # Servers are ranked by length, then by list position (a fixed,
    # deterministically evolving order; the occupancy law does not depend
    # on the within-level choice). Flexible twin: its level counts x_k.
    # Q_g, Q_k: servers with >= i tasks. levels, x_k, Q_g and Q_k are
    # padded to one length, so every level index is valid in all four.
    lengths = [0] * n
    levels: list[list[int]] = [list(range(n))]
    x_k = [n]
    Q_g = [n]
    Q_k = [n]

    # D = sum_i |Q_i(K) - Q_i(G)|, updated at the touched level only
    D = delta = margin_min = 0

    grid = sample_grid(horizon, sample_interval)
    sample_at = grid.tolist() + [math.inf]
    g_occ = np.zeros((len(grid), depth))
    k_occ = np.zeros((len(grid), depth))
    g_over = np.zeros(len(grid), dtype=np.int64)
    k_over = np.zeros(len(grid), dtype=np.int64)
    delta_series = np.zeros(len(grid), dtype=np.int64)
    margin_series = np.zeros(len(grid), dtype=np.int64)
    next_sample = 0

    def record_sample(idx: int):
        for Q, occ, over in ((Q_g, g_occ, g_over), (Q_k, k_occ, k_over)):
            _occupancy_row(occ[idx], Q, n)
            over[idx] = Q[depth + 1] if len(Q) > depth + 1 else 0
        delta_series[idx] = delta
        margin_series[idx] = margin_min

    arrival_rate = lam * n
    dep_rate = float(n)
    t = 0.0
    next_arrival = -log(1.0 - rnd()) / arrival_rate
    next_dep = -log(1.0 - rnd()) / dep_rate
    events = arrivals = 0

    while True:
        if next_arrival <= next_dep:
            t_next, is_arrival = next_arrival, True
        else:
            t_next, is_arrival = next_dep, False
        while sample_at[next_sample] < t_next:
            record_sample(next_sample)
            next_sample += 1
        if t_next > horizon:
            break
        t = t_next
        if is_arrival:
            arrivals += 1
            next_arrival = t - log(1.0 - rnd()) / arrival_rate
            w = bits(m_bits)
            while w >= m:
                w = bits(m_bits)
            row = adj[w]
            u = rnd()

            # constrained system: min-of-d over the dispatcher's neighborhood
            nrow = len(row)
            counts_g = [0] * len(x_k)
            for v in row:
                counts_g[lengths[v]] += 1
            i_g = _min_of_d_level(counts_g, nrow, d if d < nrow else nrow, u)

            # flexible twin: min-of-d over the global distribution
            i_k = _min_of_d_level(x_k, n, d_k, u)

            if i_g != i_k:
                delta += 1

            # step (b): a uniform server at the chosen length, per system;
            # the twin's pick is drawn only to keep the stream
            src = levels[i_g]
            nc = len(src)
            k = nc.bit_length()
            p = bits(k)
            while p >= nc:
                p = bits(k)
            nc = x_k[i_k]
            k = nc.bit_length()
            r = bits(k)
            while r >= nc:
                r = bits(k)
            step = 1
            hi_g, hi_k = i_g + 1, i_k + 1
            if max(hi_g, hi_k) == len(x_k):
                levels.append([])
                x_k.append(0)
                Q_g.append(0)
                Q_k.append(0)
        else:
            next_dep = t - log(1.0 - rnd()) / dep_rate
            j = bits(n_bits)
            while j >= n:
                j = bits(n_bits)
            # the j-th server in queue-length order, in each system
            p = j
            for hi_g, src in enumerate(levels):
                if p < len(src):
                    break
                p -= len(src)
            hi_k = 0
            while j >= x_k[hi_k]:
                j -= x_k[hi_k]
                hi_k += 1
            step = -1
        # each system moves one task between levels hi - 1 and hi (none from
        # an idle slot, hi = 0), so Q and D change at level hi only
        if hi_g:
            v = src[p]
            src[p] = src[-1]
            src.pop()
            l = lengths[v] + step
            lengths[v] = l
            levels[l].append(v)
            D -= abs(Q_k[hi_g] - Q_g[hi_g])
            Q_g[hi_g] += step
            D += abs(Q_k[hi_g] - Q_g[hi_g])
        if hi_k:
            x_k[hi_k - 1] -= step
            x_k[hi_k] += step
            D -= abs(Q_k[hi_k] - Q_g[hi_k])
            Q_k[hi_k] += step
            D += abs(Q_k[hi_k] - Q_g[hi_k])
        events += 1
        margin = 2 * delta - D
        if margin < margin_min:
            margin_min = margin
        if margin < 0:
            raise InvariantViolation(
                f"coupling inequality violated at t={t:.6f}: "
                f"sum|Q_i(K)-Q_i(G)|={D} > 2*delta={2 * delta}"
            )

    while next_sample < len(grid):
        record_sample(next_sample)
        next_sample += 1

    def as_record(occ, over, Q):
        return TrajectoryRecord(
            sample_times=grid,
            occupancy=occ,
            overflow=over,
            n_servers=n,
            event_count=events,
            arrival_count=arrivals,
            departure_count=arrivals - sum(Q[1:]),
        )

    return CoupledRecord(
        g_record=as_record(g_occ, g_over, Q_g),
        k_record=as_record(k_occ, k_over, Q_k),
        delta_series=delta_series,
        margin_series=margin_series,
        mismatch_count=delta,
        margin_min=margin_min,
        event_count=events,
        arrival_count=arrivals,
    )


# ---------------------------------------------------------------------------
# diagnostics on sampled states


def lyapunov_series(record: TrajectoryRecord, k: int) -> np.ndarray:
    """V_k per sample: half of sum_{i>=k} (i-k+1)(i-k+2) X_i, where X_i is
    the number of servers with exactly i tasks.

    Equals the double tail sum over the occupancy counts; the closed form
    is O(depth) per sample. Requires a simulator record (n_servers set)
    with no overflow, since truncated levels would silently drop mass.
    """
    k = require_positive_int("k", k)
    if record.n_servers is None:
        raise ValueError("record lacks n_servers; V_k needs absolute counts")
    if np.any(record.overflow > 0):
        raise ValueError("record overflowed its depth; V_k would be truncated")
    n = record.n_servers
    counts = np.rint(record.occupancy * n).astype(np.int64)  # Q_i, i = 1..depth
    q_next = np.concatenate([counts[:, 1:], np.zeros((len(counts), 1), dtype=np.int64)], axis=1)
    x = counts - q_next  # X_i for i = 1..depth
    depth = record.depth
    idx = np.arange(1, depth + 1)
    weights = np.where(idx >= k, 0.5 * (idx - k + 1) * (idx - k + 2), 0.0)
    return x @ weights


def tail_moment_margin(occupancy_mean: Sequence[float], lam: float, k: int) -> float:
    """((1+lam)/(1-lam)) * qbar_{k-1} - sum_{i>=k} qbar_i for steady-state
    occupancy averages (qbar_0 = 1); nonnegative when the stationary tail
    obeys the drift bound."""
    k = require_positive_int("k", k)
    q = np.asarray(occupancy_mean, dtype=float)  # levels 1..K
    prefactor = (1.0 + lam) / (1.0 - lam)
    q_prev = 1.0 if k == 1 else float(q[k - 2])
    return prefactor * q_prev - float(q[k - 1 :].sum())
