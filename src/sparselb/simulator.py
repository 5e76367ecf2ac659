"""Event-driven simulation of JSQ(d) on a bipartite compatibility graph.

Tasks arrive in one Poisson stream of rate lambda*N; each arrival picks a
dispatcher uniformly, samples min(d, deg) of its compatible servers
without replacement, and joins the shortest sampled queue (ties uniform
among the tied samples). Servers serve FCFS at unit mean rate.

Exponential service uses a memoryless race: the next departure candidate
is redrawn at rate (number of busy servers) after every event, and a
uniform busy server departs - exact by memorylessness, O(1) per event
with no per-server timers. Deterministic and Pareto service schedule an
explicit completion event when each head-of-line task starts service.

The coupled run drives a constrained system and a fully flexible twin
with shared arrival and potential-departure streams to expose their
pathwise occupancy inequality; see coupled_simulate.
"""

from __future__ import annotations

import heapq
import math
import random
import warnings
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
DEBUG_CHECK_EVERY = 10_000
PARETO_SHAPE = 3.0
PARETO_SCALE = 2.0 / 3.0  # mean = shape*scale/(shape-1) = 1


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

    def draw(self, rng: random.Random) -> float:
        if self.kind == "deterministic":
            return 1.0
        if self.kind == "pareto":
            return PARETO_SCALE * rng.paretovariate(PARETO_SHAPE)
        return rng.expovariate(1.0)


def _as_service(service) -> ServiceDistribution:
    if isinstance(service, ServiceDistribution):
        return service
    return ServiceDistribution(str(service))


def _check_inputs(graph: BipartiteGraph, d: int, lam: float, allow_disconnected: bool, allow_overload: bool):
    require_positive_int("d", d)
    require_finite_positive("lambda", lam)
    if lam >= 1 and not allow_overload:
        raise ValueError("lambda >= 1 is unstable; pass allow_overload=True to force")
    if not allow_disconnected and not graph.is_connected:
        raise ValueError(
            "graph is disconnected; pass allow_disconnected=True to simulate anyway"
        )


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

    The simulator inlines this pick, draw for draw, on its generic path:
    d = 1, d >= 3, and d = 2 on rows of at most two servers. d = 2 on
    longer rows breaks a tie with one rng.random() < 0.5 instead.
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


def _simulate_core(
    graph: BipartiteGraph,
    d: int,
    lam: float,
    horizon: float,
    service: ServiceDistribution,
    rng: random.Random,
    initial_lengths: Optional[Sequence[int]],
    sample_interval: Optional[float],
    window: Optional[tuple[float, float]],
    depth: int,
    debug: bool,
    on_assign: Optional[Callable[[int, int, Sequence[int], Sequence[int]], None]],
) -> tuple[TrajectoryRecord, Optional[list[float]]]:
    """One replica: (record, area). The record samples the occupancy
    every `sample_interval` (no samples when it is None), and `area` holds
    the per-level time integrals of Q_i over `window` when one is given.

    Draws are inlined: `r = bits(k); while r >= n: r = bits(k)` with
    k = n.bit_length() is CPython's `rng.randrange(n)`, and
    `-log(1.0 - rnd()) / rate` is `rng.expovariate(rate)`, draw for draw.
    """
    n = graph.n_servers
    m = graph.n_dispatchers
    m_bits = m.bit_length()
    adj = graph.adjacency
    bits = rng.getrandbits
    rnd = rng.random
    log = math.log
    draw_service = service.draw
    arrival_rate = lam * n
    markovian = service.is_markovian

    lengths = [0] * n
    Q = [n]  # Q[i] = number of servers with >= i tasks; grows with max length
    # Markovian runs pick a uniform busy server (swap-remove list + index);
    # the others keep a heap of scheduled completions
    busy: list[int] = []
    pos = [-1] * n
    heap: list[tuple[float, int]] = []
    if initial_lengths is not None:
        if len(initial_lengths) != n:
            raise ValueError("initial_lengths must have one entry per server")
        for v, l in enumerate(initial_lengths):
            l = int(l)
            if l < 0:
                raise ValueError("queue lengths must be nonnegative")
            lengths[v] = l
            while len(Q) <= l:
                Q.append(0)
            for i in range(1, l + 1):
                Q[i] += 1
        for v, l in enumerate(lengths):
            if l > 0:
                if markovian:
                    pos[v] = len(busy)
                    busy.append(v)
                else:
                    heap.append((draw_service(rng), v))
        heap.sort()

    sampling = sample_interval is not None
    grid = sample_grid(horizon, sample_interval) if sampling else np.empty(0)
    occupancy = np.zeros((len(grid), depth))
    overflow = np.zeros(len(grid), dtype=np.int64)
    sample_at = grid.tolist() + [math.inf]  # Python floats: no numpy scalar per event
    next_sample = 0

    accumulating = window is not None
    acc_on = False
    if accumulating:
        w0, w1 = window
        if not 0 <= w0 < w1 <= horizon + 1e-9:
            raise ValueError("window must satisfy 0 <= start < end <= horizon")
        area = [0.0] * len(Q)
        last_upd = [0.0] * len(Q)

    def record_sample(idx: int):
        _occupancy_row(occupancy[idx], Q, n)
        overflow[idx] = Q[depth + 1] if len(Q) > depth + 1 else 0

    def debug_check():
        expect = [0] * len(Q)
        expect[0] = n
        for l in lengths:
            for i in range(1, l + 1):
                if i >= len(expect):
                    expect.extend([0] * (i - len(expect) + 1))
                expect[i] += 1
        if expect != list(Q[: len(expect)]) or any(Q[len(expect) :]):
            raise InvariantViolation("incremental occupancy counts diverged from state")
        if markovian and sorted(busy) != sorted(v for v, l in enumerate(lengths) if l > 0):
            raise InvariantViolation("busy-server structure diverged from state")

    t = 0.0
    next_arrival = -log(1.0 - rnd()) / arrival_rate
    events = arrivals = departures = 0

    while True:
        if markovian:
            nb = len(busy)
            next_dep = t - log(1.0 - rnd()) / nb if nb else math.inf
        else:
            next_dep = heap[0][0] if heap else math.inf
        if next_arrival <= next_dep:
            t_next, is_arrival = next_arrival, True
        else:
            t_next, is_arrival = next_dep, False

        if sampling:
            while sample_at[next_sample] < t_next:
                record_sample(next_sample)
                next_sample += 1
        if t_next > horizon:
            break
        if accumulating and not acc_on and t_next > w0:
            # state has been constant since the last event, so the window
            # opens with the current counts
            acc_on = True
            for i in range(len(Q)):
                last_upd[i] = w0

        t = t_next
        if is_arrival:
            arrivals += 1
            next_arrival = t - log(1.0 - rnd()) / arrival_rate
            w = bits(m_bits)
            while w >= m:
                w = bits(m_bits)
            row = adj[w]
            nrow = len(row)
            if d == 2 and nrow > 2:
                k = nrow.bit_length()
                i = bits(k)
                while i >= nrow:
                    i = bits(k)
                nrest = nrow - 1
                k = nrest.bit_length()
                j = bits(k)
                while j >= nrest:
                    j = bits(k)
                if j >= i:
                    j += 1
                a, b = row[i], row[j]
                la, lb = lengths[a], lengths[b]
                if la < lb:
                    target = a
                elif lb < la:
                    target = b
                else:
                    target = a if rnd() < 0.5 else b
                sampled = (a, b) if on_assign is not None else None
            else:
                # graph.floyd_sample, then choose_shortest, inlined draw for draw
                de = d if d < nrow else nrow
                if de == nrow:
                    sampled = row
                else:
                    chosen: set[int] = set()
                    sampled = []
                    for top in range(nrow - de + 1, nrow + 1):
                        k = top.bit_length()
                        i = bits(k)
                        while i >= top:
                            i = bits(k)
                        if i in chosen:
                            i = top - 1
                        chosen.add(i)
                        sampled.append(row[i])
                best = -1
                for v in sampled:
                    l = lengths[v]
                    if best < 0 or l < best:
                        best = l
                        ties = [v]
                    elif l == best:
                        ties.append(v)
                nties = len(ties)
                if nties == 1:
                    target = ties[0]
                else:
                    k = nties.bit_length()
                    i = bits(k)
                    while i >= nties:
                        i = bits(k)
                    target = ties[i]
            l = lengths[target]
            if on_assign is not None:
                on_assign(target, l, sampled, lengths)
            lengths[target] = l + 1
            lnew = l + 1
            if lnew >= len(Q):
                Q.append(0)
                if accumulating:
                    area.append(0.0)
                    last_upd.append(w0 if acc_on else 0.0)
            if acc_on:
                # accumulate Q_i over [last_upd[i], t] before Q_i changes
                area[lnew] += Q[lnew] * (t - last_upd[lnew])
                last_upd[lnew] = t
            Q[lnew] += 1
            if l == 0:
                if markovian:
                    pos[target] = len(busy)
                    busy.append(target)
                else:
                    heapq.heappush(heap, (t + draw_service(rng), target))
        else:
            departures += 1
            if markovian:
                k = nb.bit_length()
                i = bits(k)
                while i >= nb:
                    i = bits(k)
                v = busy[i]
            else:
                _, v = heapq.heappop(heap)
            l = lengths[v]
            if acc_on:
                area[l] += Q[l] * (t - last_upd[l])
                last_upd[l] = t
            lengths[v] = l - 1
            Q[l] -= 1
            if markovian:
                if l == 1:
                    i = pos[v]
                    last = busy[-1]
                    busy[i] = last
                    pos[last] = i
                    busy.pop()
                    pos[v] = -1
            elif l > 1:
                heapq.heappush(heap, (t + draw_service(rng), v))
        events += 1
        if debug and events % DEBUG_CHECK_EVERY == 0:
            debug_check()

    if debug:
        debug_check()
    if accumulating:
        if not acc_on:  # no event landed past w0; the state held throughout
            for i in range(len(Q)):
                last_upd[i] = w0
        for i in range(len(Q)):
            area[i] += Q[i] * (w1 - last_upd[i])

    record = TrajectoryRecord(
        sample_times=grid,
        occupancy=occupancy,
        overflow=overflow,
        n_servers=n,
        event_count=events,
        arrival_count=arrivals,
        departure_count=departures,
        final_queue_lengths=np.array(lengths, dtype=np.int64),
    )
    return record, (area if accumulating else None)


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
    Deterministic given (config, seed); recording draws nothing.

    `on_assign(server, queue_length_before, sampled_servers, lengths)` is a
    test hook called at each assignment with live (read-only) state; leave
    it None in production runs.
    """
    service = _as_service(service)
    _check_inputs(graph, d, lam, allow_disconnected, allow_overload)
    require_finite_positive("horizon", horizon)
    require_positive_int("depth", depth)
    _warn_overload(lam)
    record, _ = _simulate_core(
        graph,
        int(d),
        lam,
        horizon,
        service,
        random.Random(seed),
        initial_lengths,
        sample_interval,
        None,
        depth,
        debug,
        on_assign,
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

    Replica r runs an isolated simulation seeded with seed XOR r. The
    default warmup is 10/(1-lambda) time units, the relaxation scale of
    the limiting dynamics; an overloaded run must pass its own. The mean
    queue length integrates every level, not just the reported depth.
    """
    service = _as_service(service)
    _check_inputs(graph, d, lam, allow_disconnected, allow_overload)
    if warmup is None:
        if lam >= 1:
            raise ValueError(
                "warmup must be given at lambda >= 1; the default 10/(1 - lambda) needs lambda < 1"
            )
        warmup = 10.0 / (1.0 - lam)
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ValueError(f"warmup must be finite and >= 0, not {warmup}")
    require_finite_positive("measure", measure)
    require_positive_int("depth", depth)
    require_positive_int("replicas", replicas)
    _warn_overload(lam)
    n = graph.n_servers
    horizon = warmup + measure
    rep_occ = np.zeros((replicas, depth))
    rep_mql = np.zeros(replicas)
    for r in range(replicas):
        _, area = _simulate_core(
            graph,
            int(d),
            lam,
            horizon,
            service,
            random.Random(seed ^ r),
            None,
            None,
            (warmup, horizon),
            depth,
            False,
            None,
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
            "d": int(d),
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
    require_positive_int("depth", depth)
    d = int(d)
    n = graph.n_servers
    m = graph.n_dispatchers
    adj = graph.adjacency
    # draws inlined as in _simulate_core, equal to randrange/expovariate
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
    require_positive_int("k", k)
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
    require_positive_int("k", k)
    q = np.asarray(occupancy_mean, dtype=float)  # levels 1..K
    prefactor = (1.0 + lam) / (1.0 - lam)
    q_prev = 1.0 if k == 1 else float(q[k - 2])
    return prefactor * q_prev - float(q[k - 1 :].sum())
