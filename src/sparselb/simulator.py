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
With exponential service and at most two sampled servers, that update
moves only the queue lengths: the loop logs one signed level per event,
and numpy applies the log to the level counts and window integrals before
each sample and at each block end, the event times never leaving their array.

The coupled run drives a constrained system and a fully flexible twin
with shared arrival and potential-departure streams to expose their
pathwise occupancy inequality; see coupled_simulate.

Both kernels run on one event walk, _walk: it owns the event clock, the block
refills, the sample/window/stop boundaries and the event and arrival
counts. A kernel supplies only its own block draw and its per-event state
update.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import random
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import BipartiteGraph
from .meanfield import _require_load
from .records import (
    CoupledRecord,
    SteadyStateSummary,
    TrajectoryRecord,
    require_count,
    require_finite_positive,
    require_int,
    require_positive_int,
    require_seed,
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


def _check_inputs(
    graph: BipartiteGraph, d: int, lam: float, depth: int, seed: int, allow_disconnected: bool, allow_overload: bool
) -> tuple[int, int, int]:
    """Validate the shared run arguments; returns (d, depth, seed) as ints."""
    d = require_positive_int("d", d)
    require_finite_positive("lambda", lam)
    if lam >= 1 and not allow_overload:
        raise ValueError("lambda >= 1 is unstable; pass allow_overload=True to force")
    if not allow_disconnected and not graph.is_connected:
        raise ValueError(
            "graph is disconnected; pass allow_disconnected=True to simulate anyway"
        )
    return d, require_count("depth", depth), require_seed(seed)


def _replica_stream(seed: int, replica: int) -> np.random.Generator:
    """Replica r's generator, from SeedSequence(seed, spawn_key=(r,)): no two
    (seed, r) pairs share it, and it is not default_rng(seed), the stream
    that the graph generators draw from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica,)))


def _warn_overload(lam: float) -> None:
    """Warn about an allowed lambda >= 1; called once every argument check has passed."""
    if lam >= 1:
        warnings.warn(f"running overloaded (lambda={lam}); queues will grow without bound")


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
    full = degs.min(initial=cols)  # every row is live while k < full: no masks
    for k in range(1, cols):
        live = slice(None) if k < full else degs > k
        r = gen.integers(0, degs[live] - k)
        if k == 1:  # a single earlier pick: nothing to stack or sort
            earlier = [first[live]]
        else:
            earlier = np.column_stack(picks)[live]
            earlier.sort(axis=1)
            earlier = earlier.T
        for p in earlier:  # ascending: each earlier pick at or below r moves r up one
            r += p <= r
        if k >= full:
            pick = first.copy()
            pick[live] = r
            r = pick
        picks.append(r)
    return picks


def _record_sample(occupancy: np.ndarray, overflow: np.ndarray, idx: int, Q: Sequence[int]) -> None:
    """Row idx of an int64 count matrix: Q_1..Q_depth in one slice, and the
    overflow Q_{depth+1}. The run divides the matrix by N once it ends."""
    depth = occupancy.shape[1]
    occupancy[idx] = Q[1 : depth + 1]
    overflow[idx] = Q[depth + 1]


def _check_counts(lengths: list[int], Q: Sequence[int]) -> None:
    if not np.array_equal(_level_counts(lengths, len(Q)), Q):
        raise InvariantViolation("incremental occupancy counts diverged from state")


def _level_counts(lengths: list[int], size: int = 0) -> np.ndarray:
    """Q[i] = number of servers with at least i tasks, i = 0..max(lengths),
    padded with zero levels to `size`."""
    return np.cumsum(np.bincount(lengths, minlength=size)[::-1])[::-1]


def _replay(log: list[int], lo: int, hi: int, times: np.ndarray, Q: np.ndarray, tw: Optional[np.ndarray]
            ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Apply the level log of block events lo..hi-1, at times[lo:hi], to
    the level counts Q and, once the window is open, to their integrals tw;
    returns both, grown to every level the log reaches.

    log[lo:hi] holds one signed level per event: +l for an arrival that
    lands at level l, -l for a departure that leaves level l, 0 for a no-op.
    ufunc.at is unbuffered and adds in order, so each tw[l] takes the same
    floating-point adds, in the same order, as one update per event would."""
    # from lo = 0, as at every block end of a window, fromiter reads the log in place up to hi
    level = np.fromiter(log[lo:hi] if lo else log, dtype=np.int64, count=hi - lo)
    step = np.sign(level)
    level *= step  # |l|
    top = int(level.max(initial=0))
    if top >= len(Q):
        grow = np.zeros(top + 1 - len(Q), dtype=np.int64)
        Q = np.concatenate([Q, grow])
        tw = None if tw is None else np.concatenate([tw, grow])
    np.add.at(Q, level, step)
    if tw is not None:
        np.add.at(tw, level, step * times[lo:hi])
    return Q, tw


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


def _walk(gen: np.random.Generator, lam: float, n: int, markovian: bool, horizon: float,
          grid: np.ndarray, area_from: Optional[float], draw, listed: bool, counts: list[int]):
    """The event clock of one run, cut into segments at its boundaries.

    Markovian runs are uniformized: events come at rate (lambda+1)*N, each
    an arrival with probability lambda/(1+lambda). Otherwise events come at
    rate lambda*N and every one is an arrival. Each block of BLOCK events
    draws its times and arrival positions here, then `draw(arriving)` - the
    kernel's own block draw, given the sorted arrival positions - returns
    the kernel's further per-event columns as lists. A `listed` block also
    carries its times as a list, for a kernel whose loop reads them.

    The boundaries are the sample times of `grid`, the window start
    `area_from` and the horizon, in time order (a sample at the horizon
    precedes the stop). Yields (block, lo, hi, action, b_time) per segment:
    the segment is events lo..hi-1 of block, which holds the times array,
    the kernel's columns and, if `listed`, the times' list. Action is None
    (and b_time too) when the segment ends its block, and otherwise names
    the boundary at b_time that ends it: a sample index, _WINDOW or _STOP.
    Samples within rounding past the horizon follow the stop, at b_time =
    horizon and with no events. Once the walk ends, counts holds
    [events, arrivals] up to the horizon.
    """
    rate = (lam + 1.0) * n if markovian else lam * n
    if rate * horizon >= 2**52:  # the event gaps, about 1/rate, would fall below the float spacing near the horizon
        raise ValueError(f"horizon {horizon:g} is too long: at {rate:g} events per unit time it expects 2^52 events "
                         "or more, past which the event clock cannot advance")
    p_arrival = lam / (1.0 + lam)
    bounds = [(g, s) for s, g in enumerate(grid.tolist())]
    if area_from is not None:
        bounds.append((area_from, _WINDOW))
    bounds.append((horizon, _STOP))
    bounds.sort(key=lambda b: b[0])  # stable: a sample at the horizon precedes the stop
    b_times = np.array([b for b, _ in bounds], dtype=float)
    k = 0  # the next boundary
    t0 = 0.0
    events = arrivals = 0
    times = np.empty(BLOCK)  # refilled in place: the kernel holds the spent block until the next one
    while True:
        gen.standard_exponential(out=times)
        np.cumsum(times, out=times)
        times /= rate
        times += t0
        arriving = np.flatnonzero(gen.random(BLOCK) < p_arrival) if markovian else np.arange(BLOCK)
        block = [times, *draw(arriving)]
        if listed:  # after the kernel's draw, whose arrays would raise the peak
            block.append(times.tolist())
        # the boundaries before the block's last event, and the segment ends they make
        inside = k + int(np.searchsorted(b_times[k:], times[-1]))
        pos = 0
        for end in np.searchsorted(times, b_times[k:inside], side="right").tolist():
            b_time, action = bounds[k]
            k += 1
            yield block, pos, end, action, b_time
            if action == _STOP:
                counts[:] = events + end, arrivals + int(np.searchsorted(arriving, end))
                for _, action in bounds[k:]:  # samples within rounding past the horizon
                    yield block, end, end, action, b_time
                for column in block[1:]:  # the kernel still holds the block: free it before the record
                    column.clear()
                return
            pos = end
        yield block, pos, len(times), None, None
        events += len(times)
        arrivals += len(arriving)
        t0 = float(times[-1])
        for column in block[1:]:  # the kernel still holds the spent block: free it before the draw
            column.clear()


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
) -> tuple[TrajectoryRecord, Optional[np.ndarray]]:
    """One replica: (record, area). The record samples the occupancy
    every `sample_interval` (no samples when it is None), and `area` holds
    the per-level time integrals of Q_i over [area_from, horizon] when
    `area_from` is given. A run does one or the other, never both.

    Beyond the clock that `_walk` draws, a block holds each arrival's
    dispatcher and ordered server sample and each potential departure's
    server; the loop over a segment only updates the state. Departures are
    stored as ~server (negative), arrivals as their first sample.

    A pair run (exponential service, at most two samples, no hook) moves
    only the queue lengths per event and logs each event's signed level at
    its block position; `_replay` applies the log to Q and tw in numpy at
    each block end and before each sample, a fixed cost per replay. Until
    its window opens, a pair run that records nothing keeps no log. Every
    other run keeps Q and tw as lists, updated per event, and its times as
    a list. Every run writes a sample's row from Q with `_record_sample`.
    """
    assert sample_interval is None or area_from is None
    n, m = graph.n_servers, graph.n_dispatchers
    markovian = service.is_markovian
    degs = graph.dispatcher_degrees()
    cols = min(d, int(degs.max()))
    # pair: b is the other sample (d = 1 repeats the first); otherwise b lists
    # the rest, and the general loop also drains the heap and calls the hook
    pair = markovian and cols <= 2 and on_assign is None
    csr = None if graph.is_complete else graph.csr()  # complete rows: position = server

    lengths = [0] * n
    if initial_lengths is not None:
        if len(initial_lengths) != n:
            raise ValueError("initial_lengths must have one entry per server")
        for v, l in enumerate(initial_lengths):
            lengths[v] = require_int(f"queue length of server {v}", l)
            if lengths[v] < 0:
                raise ValueError("queue lengths must be nonnegative")
    start_tasks = sum(lengths)

    grid = sample_grid(horizon, sample_interval) if sample_interval is not None else np.empty(0)
    occupancy = np.zeros((len(grid), depth), dtype=np.int64)  # counts until the run ends
    overflow = np.zeros(len(grid), dtype=np.int64)

    # Q[i] = number of servers with at least i tasks, always up to the overflow
    # Q_{depth+1}. tw[i] = sum of t * (change of Q_i at t) over the events so far,
    # reset to Q_i * area_from when the window opens; then area_i = Q_i * horizon - tw[i].
    Q = _level_counts(lengths, depth + 2)
    if pair:
        tw = None  # until the window opens
        # written in place at the block's positions: a list that grew and
        # shrank each block would fragment the heap and raise the peak memory
        log = [0] * BLOCK
        logged = debug or len(grid) > 0  # until the window opens, only samples and checks read Q
        since = 0  # the first block position whose log is not yet applied
    else:
        Q = Q.tolist()
        top = len(Q)
        tw = [0.0] * top

    next_service = None
    heap: list[tuple[float, int]] = []
    if not markovian:
        def service_times():
            while True:
                yield from service.draw(gen, BLOCK).tolist()

        next_service = service_times().__next__
        for v, l in enumerate(lengths):  # a loop: a comprehension would make next_service a cell
            if l:
                heap.append((next_service(), v))
        heapq.heapify(heap)

    def draw_block(arriving: np.ndarray, pair=pair):  # a default: a closure read would make pair a cell
        w = gen.integers(0, m, len(arriving))
        picks = _ordered_sample(gen, degs[w], cols)
        if csr is not None:
            base = csr[0][w]
            picks = [csr[1][base + p] for p in picks]
        if markovian:  # a potential departure holds ~server in the first column
            spread = [~gen.integers(0, n, BLOCK)] + [np.zeros(BLOCK, dtype=np.int64) for _ in picks[1:]]
            for col, p in zip(spread, picks):
                col[arriving] = p
            picks = spread
        return picks[0].tolist(), (picks[-1] if pair else np.column_stack(picks)[:, 1:]).tolist()

    counts = [0, 0]
    walk = _walk(gen, lam, n, markovian, horizon, grid, area_from, draw_block, not pair, counts)
    for block, lo, hi, action, b_time in walk:
        if not pair:
            _, A, B, T = block
            for t, a, b in zip(T[lo:hi], A[lo:hi], B[lo:hi]):
                if a < 0:  # potential departure at server ~a
                    a = ~a
                    l = lengths[a]
                    if l:
                        lengths[a] = l - 1
                        Q[l] -= 1
                        tw[l] -= t
                    continue
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
                l += 1
                lengths[v] = l
                if l == top:
                    Q.append(0)
                    tw.append(0.0)
                    top += 1
                Q[l] += 1
                tw[l] += t
            if action is not None and heap and heap[0][0] <= b_time:
                _drain(heap, b_time, lengths, Q, tw, next_service)
        elif not logged:
            _, A, B = block
            for a, b in zip(A[lo:hi], B[lo:hi]):
                if a >= 0:  # an arrival joins the shorter sample, a on a tie
                    if lengths[b] < lengths[a]:
                        a = b
                    lengths[a] += 1
                elif lengths[~a]:  # a potential departure at busy server ~a
                    lengths[~a] -= 1
        else:
            _, A, B = block
            for i, a, b in zip(range(lo, hi), A[lo:hi], B[lo:hi]):
                if a < 0:  # potential departure at server ~a, a no-op when it is idle
                    a = ~a
                    l = lengths[a]
                    if l:
                        lengths[a] = l - 1
                    log[i] = -l
                    continue
                l, lb = lengths[a], lengths[b]  # an arrival joins the shorter sample, a on a tie
                if lb < l:
                    a, l = b, lb
                l += 1
                lengths[a] = l
                log[i] = l
        if action is None:  # the block's end
            if pair and logged:
                Q, tw = _replay(log, since, hi, block[0], Q, tw)
                since = 0
            if debug:
                _check_counts(lengths, Q)
        elif action == _WINDOW:
            if pair:
                Q = _level_counts(lengths, depth + 2)
                tw = Q * float(b_time)  # a float array even when b_time is an int
                logged = True
                since = hi
            else:
                tw[:] = [q * b_time for q in Q]
        elif action >= 0:
            if pair and hi > since:  # Q as of the sample: apply the log since the last replay
                Q, tw = _replay(log, since, hi, block[0], Q, tw)
                since = hi
            _record_sample(occupancy, overflow, action, Q)

    if pair and logged:  # the last block's events up to the horizon
        Q, tw = _replay(log, since, hi, block[0], Q, tw)
    if debug:
        _check_counts(lengths, Q)
    arrivals = counts[1]
    departures = arrivals + start_tasks - sum(lengths)
    record = TrajectoryRecord(
        sample_times=grid,
        occupancy=occupancy / n,
        overflow=overflow,
        n_servers=n,
        event_count=arrivals + departures,
        arrival_count=arrivals,
        departure_count=departures,
        final_queue_lengths=np.array(lengths, dtype=np.int64),
    )
    area = None if area_from is None else np.multiply(Q, horizon) - tw
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
    `initial_lengths` are integers (numpy's too), one per server.

    `on_assign(server, queue_length_before, sampled_servers, lengths)` is a
    test hook called at each assignment with live (read-only) state; leave
    it None in production runs.
    """
    service = ServiceDistribution(service)
    d, depth, seed = _check_inputs(graph, d, lam, depth, seed, allow_disconnected, allow_overload)
    require_finite_positive("horizon", horizon)
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
    reported depth. With exponential service and at most two sampled
    servers, the warmup keeps queue lengths only: the level counts and
    window integrals are built from them when the window opens. In the
    window the event loop still moves only the queue lengths and logs each
    event's signed level, and numpy adds the log's event times into the
    integrals, in event order, once per block.
    """
    service = ServiceDistribution(service)
    d, depth, seed = _check_inputs(graph, d, lam, depth, seed, allow_disconnected, allow_overload)
    if warmup is None:
        if lam >= 1:
            raise ValueError(
                "warmup must be given at lambda >= 1; the default 10/(1 - lambda) needs lambda < 1"
            )
        warmup = 10.0 / (1.0 - lam)
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ValueError(f"warmup must be finite and >= 0, not {warmup}")
    require_finite_positive("measure", measure)
    replicas = require_count("replicas", replicas)
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
        # left to right on every Python: from 3.12, sum() adds floats with compensation
        rep_mql[r] = functools.reduce(operator.add, area[1:], 0.0) / (n * measure)
        rep_occ[r] = area[1 : depth + 1]
    rep_occ /= n * measure
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


def _rank_tables(sizes: Sequence[int], d: int) -> tuple[np.ndarray, np.ndarray]:
    """One complex table of shortest-of-sample rank laws, one slice per size.

    The lowest rank in a sample of d' = min(d, s) of s ranked servers,
    drawn without replacement, exceeds p with probability
    R_s(p) = C(s-1-p, d') / C(s, d'). Slice k, table[bounds[k]:bounds[k+1]],
    holds k + 1j*(-R_s(p)) for s = sizes[k] and p = 0..s-d'-1, each
    imaginary part the correctly rounded quotient of the two exact
    integers. numpy orders complex numbers by real part, then imaginary
    part, so the whole table ascends.
    """
    parts = []
    for k, s in enumerate(sizes):
        c = min(d, s)
        total = math.comb(s, c)
        parts.append([complex(k, -(math.comb(s - 1 - p, c) / total)) for p in range(s - c)])
    bounds = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(part) for part in parts], out=bounds[1:])
    table = np.fromiter(itertools.chain(*parts), dtype=complex, count=bounds[-1])
    return table, bounds


def _min_rank(table: np.ndarray, bounds: np.ndarray, slices, u: np.ndarray) -> np.ndarray:
    """Each u[i]'s shortest-of-sample rank in slice slices[i] (or one slice
    for all) of a `_rank_tables` table: the smallest p with R_s(p) < 1 - u[i],
    which is the number of entries at most u[i] - 1 in that slice. One
    search: the key slices + 1j*(u - 1) lands past every earlier slice and
    before every later one, and u - 1.0 is exactly -(1 - u)."""
    return np.searchsorted(table, slices + 1j * (u - 1.0), side="right") - bounds[slices]


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

    Both systems start empty and follow one uniformized event stream of
    rate (lambda+1)*N, drawn in numpy blocks of BLOCK events from the
    generator of SeedSequence(seed, spawn_key=(0,)): each event is an
    arrival with probability lambda/(1+lambda), and otherwise a potential
    departure at a uniform server.

    An arrival draws a dispatcher w and one uniform u. Each system ranks
    its candidates by queue length, ties in uniform order, and maps u to
    the rank p of the shortest of d' = min(d, s) candidates sampled
    without replacement: the smallest p with C(s-1-p, d')/C(s, d') < 1-u,
    with s = |row w| for the constrained system and s = N for the twin.
    The constrained system takes i_g, the length at rank p in w's row, and
    sends the task to a uniform server of the row at length i_g, so it is
    JSQ(d) on the graph. The twin's servers are exchangeable, so it keeps
    only its occupancy counts: its task raises the count at its chosen
    length i_k. Both lengths are quantiles of their laws at the same u (a
    comonotone coupling); each arrival with i_g != i_k adds one to the
    mismatch count delta.

    A potential departure at server v takes a slot j uniform within v's
    block of equal lengths in the constrained system's descending length
    order, and the twin serves its server at the same slot j (idle
    servers are no-ops). The constrained system keeps only its queue
    lengths and Q_g; the twin keeps Q_k.

    After every event the inequality

        sum_i |Q_i(flexible) - Q_i(constrained)| <= 2 * delta

    is asserted exactly (integer arithmetic); a violation raises
    InvariantViolation and means the implementation is broken, not the
    input. Exponential service only: the construction lives on the
    Markovian system.
    """
    if lam >= 1:
        raise ValueError(f"lambda must be < 1 in a coupled run, not {lam}")
    d, depth, seed = _check_inputs(graph, d, lam, depth, seed, allow_disconnected, False)
    require_finite_positive("horizon", horizon)
    grid = sample_grid(horizon, sample_interval)
    gen = _replica_stream(seed, 0)
    n, m = graph.n_servers, graph.n_dispatchers
    rows = graph.adjacency  # a complete graph's rows are one shared range(n)
    if graph.is_complete:
        reads = [lambda lengths: lengths] * m
    else:  # itemgetter of one index returns the value, not a 1-tuple
        reads = [operator.itemgetter(*row) if len(row) > 1 else lambda lengths, v=row[0]: (lengths[v],)
                 for row in rows]

    # rank-table slices: one per dispatcher, then the twin's
    degs = graph.dispatcher_degrees()
    sizes, size_of = np.unique(np.append(degs, n), return_inverse=True)
    table, bounds = _rank_tables(sizes.tolist(), d)

    def draw_block(arriving: np.ndarray):
        """Per event: its dispatcher, or ~server for a potential departure;
        a uniform pick; and for arrivals, the constrained rank and N minus
        the twin's rank."""
        w = gen.integers(0, m, len(arriving))
        u = gen.random(len(arriving))
        who = ~gen.integers(0, n, BLOCK)
        who[arriving] = w
        pick = gen.random(BLOCK)
        rank_g = np.zeros(BLOCK, dtype=np.int64)
        rank_g[arriving] = _min_rank(table, bounds, size_of[w], u)
        above_k = np.zeros(BLOCK, dtype=np.int64)
        above_k[arriving] = n - _min_rank(table, bounds, size_of[-1], u)
        return who.tolist(), pick.tolist(), rank_g.tolist(), above_k.tolist()

    # Q_g, Q_k: servers with >= i tasks, padded to one length, at least
    # depth + 2 levels, with Q[top] = 0 past the longest queue of either system.
    lengths = [0] * n
    Q_g = [n] + [0] * (depth + 1)
    Q_k = Q_g.copy()
    top = depth + 1

    # D = sum_i |Q_i(K) - Q_i(G)|, updated at the touched levels only
    D = delta = margin_min = 0

    g_occ = np.zeros((len(grid), depth), dtype=np.int64)  # counts until the run ends
    k_occ = np.zeros((len(grid), depth), dtype=np.int64)
    g_over = np.zeros(len(grid), dtype=np.int64)
    k_over = np.zeros(len(grid), dtype=np.int64)
    delta_series = np.zeros(len(grid), dtype=np.int64)
    margin_series = np.zeros(len(grid), dtype=np.int64)

    counts = [0, 0]
    walk = _walk(gen, lam, n, True, horizon, grid, None, draw_block, True, counts)
    for (_, A, P, R, K, T), lo, hi, action, _ in walk:
        for t, a, pick, rank, above in zip(T[lo:hi], A[lo:hi], P[lo:hi], R[lo:hi], K[lo:hi]):
            if a < 0:  # potential departure at server ~a, at the same slot in the twin
                a = ~a
                l = lengths[a]
                below = Q_g[l + 1]
                slot = below + int(pick * (Q_g[l] - below))  # descending order
                h = l  # the twin's level at that slot: l, or walked up from 0
                if not Q_k[l] > slot >= Q_k[l + 1]:
                    h = 0
                    while Q_k[h + 1] > slot:
                        h += 1
                if h == l:  # both leave level l: D is unchanged
                    if l:
                        lengths[a] = l - 1
                        Q_g[l] -= 1
                        Q_k[l] -= 1
                    continue
                if l:
                    lengths[a] = l - 1
                    x = Q_k[l] - Q_g[l]
                    D += abs(x + 1) - abs(x)
                    Q_g[l] -= 1
                if h:
                    x = Q_k[h] - Q_g[h]
                    D += abs(x - 1) - abs(x)
                    Q_k[h] -= 1
            else:  # arrival at dispatcher a
                # constrained: the length i at `rank` in the row, then a
                # uniform row server at that length
                vals = reads[a](lengths)
                i = 0
                c = vals.count(0)
                while rank >= c:
                    rank -= c
                    i += 1
                    c = vals.count(i)
                    if not c:  # skip a gap in one step: an overloaded row's queues grow apart
                        i = min(filter(i.__lt__, vals))
                        c = vals.count(i)
                p = vals.index(i)
                if c > 1:
                    for _ in range(int(pick * c)):
                        p = vals.index(i, p + 1)
                lengths[rows[a][p]] = i + 1
                h = i  # the twin's length at its rank, N - above: i, or walked up from 0
                if not Q_k[i] >= above > Q_k[i + 1]:
                    h = 0
                    while Q_k[h + 1] >= above:
                        h += 1
                i += 1
                h += 1
                if i == top or h == top:
                    Q_g.append(0)
                    Q_k.append(0)
                    top += 1
                if i == h:  # both join level i: D is unchanged
                    Q_g[i] += 1
                    Q_k[i] += 1
                    continue
                delta += 1
                x = Q_k[i] - Q_g[i]
                D += abs(x - 1) - abs(x)
                Q_g[i] += 1
                x = Q_k[h] - Q_g[h]
                D += abs(x + 1) - abs(x)
                Q_k[h] += 1
            # D and delta change only here, so margin_min is exact
            margin = 2 * delta - D
            if margin < margin_min:
                margin_min = margin
                if margin < 0:
                    raise InvariantViolation(
                        f"coupling inequality violated at t={t:.6f}: "
                        f"sum|Q_i(K)-Q_i(G)|={D} > 2*delta={2 * delta}"
                    )
        if action is not None and action >= 0:
            _record_sample(g_occ, g_over, action, Q_g)
            _record_sample(k_occ, k_over, action, Q_k)
            delta_series[action] = delta
            margin_series[action] = margin_min

    events, arrivals = counts
    shared = dict(sample_times=grid, n_servers=n, event_count=events, arrival_count=arrivals)
    return CoupledRecord(
        g_record=TrajectoryRecord(occupancy=g_occ / n, overflow=g_over, departure_count=arrivals - sum(Q_g[1:]),
                                  **shared),
        k_record=TrajectoryRecord(occupancy=k_occ / n, overflow=k_over, departure_count=arrivals - sum(Q_k[1:]),
                                  **shared),
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
    k = require_count("k", k)
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
    _require_load(lam)
    k = require_positive_int("k", k)
    q = np.asarray(occupancy_mean, dtype=float)  # levels 1..K
    if k > len(q):
        raise ValueError(f"k must be at most the {len(q)} recorded levels, not {k}")
    prefactor = (1.0 + lam) / (1.0 - lam)
    q_prev = 1.0 if k == 1 else float(q[k - 2])
    return prefactor * q_prev - float(q[k - 1 :].sum())
