"""sparselb benchmark: three closed-loop workloads, checked outputs, traced layers.

Run from the repository root:

    python3 benchmarks/run.py --workload steady-sparse --seed 1 --seconds 25 --trace 0

Workloads (one per process, so peak memory is per workload):

- steady-sparse: read fixed-degree graphs (M = N, degree ceil(ln N) and
  ceil(ln^2 N), N = 1000 and 4000) from BPG files written in setup, estimate
  the steady state (d=2, lambda=0.8, exponential service) and write it as
  CSV. The paper's headline question; almost all time is the simulator's
  d=2 routing, the Markovian race clock and window accumulation.
- certify: sparsity_trend on fixed-degree-log2 graphs (fixed seed list,
  see TREND_SEEDS), the exact min-max
  load on small inhomogeneous graphs with a ramp of edge probabilities (so
  the max-flow bisection really runs) and on the Braess fixture, and the
  empirical Lipschitz probe of JSQ(2) and JSQ(3). Runs no simulator code,
  so a simulator change should leave it unchanged.
- transient-coupled: recorded paths on K_{10^4,10^4} against the mean-field
  ODE (closed form and through jsqd_policy(2)), d=3 runs with deterministic
  and Pareto service on a fixed-degree graph, a trajectory CSV round trip
  and a coupled run. Uses the simulator the other way: recording, generic
  d=3 routing, the event-heap clock and the coupled system.

The load is one process, one thread, one experiment call after another. The
inputs come from --seed. After set-up (repeated, median reported), the
workload's fixed pass of work is repeated until --seconds have passed, and
timings are medians over passes, each pass scaled by a frozen reference
kernel timed just before and after it (see SpeedReference), because the
host's speed drifts by tens of percent within and between runs; the raw
times are in the report. With --trace 1, every second pass records
spans around each call into a layer; per-layer numbers come from those
passes and the tracing overhead from comparing them with the others.

The last line of stdout is one JSON object: correct, attempted (timed
experiment calls), failed and metrics. Lines before it give the machine,
every check and a report with further end-to-end numbers; the same goes to
.bench_out/<workload>-seed<seed>-trace<t>.json, and traced runs write their
spans next to it. A run whose timed call raises exits 1 without a result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LAM = 0.8
EPSILON = 0.1
TREND_BUDGET = 256
# Like criterion 11, the trend runs on a fixed seed list: its local search
# does a data-dependent number of sweeps (68k to 140k probes at N=4000 over
# three seeds), so a seed drawn from --seed would time the instance, not
# the code.
TREND_SEEDS = [0]
DEPTH = 12
# the reference kernel's time on this benchmark's nominal host; see SpeedReference
REF_NOMINAL_S = 0.1
DEGREE_SWEEP_ARGV = ["reproduce", "degree-sweep", "--sizes", "250,1000"]

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "graph.generate_s": "s",
    "graph.generate_edges_per_s": "1/s",
    "graph.retries": "count",
    "graph.read_s": "s",
    "graph.write_s": "s",
    "simulator.steady_s": "s",
    "simulator.server_time_per_s": "1/s",
    "simulator.events_per_s.d2_exp_complete": "1/s",
    "simulator.events_per_s.d3_det": "1/s",
    "simulator.events_per_s.d3_pareto": "1/s",
    "simulator.record_overhead_frac": "frac",
    "simulator.route_us.d3": "us",
    "simulator.rng_floor_frac": "frac",
    "simulator.coupled_events_per_s": "1/s",
    "simulator.coupled_mismatch_frac": "frac",
    "meanfield.rk4_steps_per_s.closed": "1/s",
    "meanfield.rk4_steps_per_s.policy": "1/s",
    "meanfield.steps_rejected": "count",
    "policy.lipschitz_s": "s",
    "policy.lipschitz_pairs_per_s": "1/s",
    "policy.lipschitz_estimate.d2": "ratio",
    "policy.lipschitz_estimate.d3": "ratio",
    "properties.sparsity_s": "s",
    "properties.subsets_probed": "count",
    "properties.probes_per_s": "1/s",
    "properties.deficiency_lb_mean": "frac",
    "properties.maxflow_s": "s",
    "properties.gamma_support": "count",
    "properties.uniform_metric_s": "s",
    "records.csv_write_s": "s",
    "records.csv_read_s": "s",
    "records.compare_s": "s",
    "graph.self_s": "s",
    "simulator.self_s": "s",
    "meanfield.self_s": "s",
    "policy.self_s": "s",
    "properties.self_s": "s",
    "records.self_s": "s",
    "bench.self_s": "s",
    "trace.pass_wall_s": "s",
    "trace.ref_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans_per_pass": "count",
    "checks.fail_frac": "frac",
}


@dataclass(frozen=True)
class Scale:
    setup_reps: int
    steady_sizes: tuple
    steady_warmup: float
    steady_measure: float
    steady_replicas: int
    trend_sizes: tuple
    subcrit_graphs: int
    subcrit_shape: tuple
    lipschitz_trials: int
    exact_sizes: tuple
    complete_n: int
    complete_replicas: int
    transient_horizon: float
    sparse_n: int
    sparse_horizon: float
    coupled_n: int
    coupled_c: int
    coupled_horizon: float
    route_draws: int


SCALES = {
    "full": Scale(
        setup_reps=3,
        steady_sizes=(1000, 4000),
        steady_warmup=20.0,
        steady_measure=30.0,
        steady_replicas=1,
        trend_sizes=(250, 1000, 4000),
        subcrit_graphs=3,
        subcrit_shape=(30, 20),
        lipschitz_trials=5000,
        exact_sizes=(8, 11, 14),
        complete_n=10_000,
        complete_replicas=3,
        transient_horizon=8.0,
        sparse_n=4000,
        sparse_horizon=10.0,
        coupled_n=500,
        coupled_c=20,
        coupled_horizon=100.0,
        route_draws=50_000,
    ),
    # for the smoke test: every step and check, at a fraction of the work
    "tiny": Scale(
        setup_reps=1,
        steady_sizes=(250, 1000),
        steady_warmup=20.0,
        steady_measure=30.0,
        steady_replicas=1,
        trend_sizes=(100, 250),
        subcrit_graphs=1,
        subcrit_shape=(12, 8),
        lipschitz_trials=300,
        exact_sizes=(8,),
        complete_n=10_000,
        complete_replicas=3,
        transient_horizon=2.0,
        sparse_n=1000,
        sparse_horizon=3.0,
        coupled_n=200,
        coupled_c=20,
        coupled_horizon=10.0,
        route_draws=2000,
    ),
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    # a documented defect of the program: counted in fail_frac, but it does
    # not make the run's outputs incorrect
    known_finding: bool = False


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def log2_degree(n: int) -> int:
    return max(1, math.ceil(math.log(n) ** 2))


def log_degree(n: int) -> int:
    return max(1, math.ceil(math.log(n)))


def rate(num: float, seconds: float) -> float:
    return num / seconds if seconds > 0 else 0.0


class SpeedReference:
    """A frozen kernel that tracks the host's momentary speed.

    On a shared host the same work can run 30% slower for seconds to tens
    of seconds at a time, and pure-Python loops and small numpy calls slow
    down by different amounts. The kernel therefore does a little of both,
    like the code under test: a routing loop (a dispatcher draw, two
    servers read from a fixed 4000 x 69 table of Python ints, a
    join-the-shorter update and a departure) and a loop of small numpy
    calls shaped like the sparsity scorer's flip trial. Its data come from
    a fixed seed, so no change to sparselb changes its work.

    The kernel runs three times after imports, after every set-up
    repetition and after every pass. Each of those is reported as
    t * REF_NOMINAL_S / ref, ref being the mean kernel time at the
    boundaries just before and just after it: seconds on a host where the
    kernel takes REF_NOMINAL_S.
    """

    def __init__(self, n: int = 4000, degree: int = 69):
        rng = random.Random(0)
        self.rows = [[rng.randrange(n) for _ in range(degree)] for _ in range(n)]
        self.n, self.degree = n, degree
        gen = np.random.default_rng(0)
        self.counts = gen.integers(0, degree, n)
        self.degs = gen.integers(degree // 2, 2 * degree, n)
        self.thresholds = EPSILON * self.degs * n
        self.flips = [gen.integers(0, n, degree) for _ in range(64)]

    def seconds(self, route_steps: int = 20_000, flip_steps: int = 1_500) -> float:
        rows, n, degree = self.rows, self.n, self.degree
        lengths = [0] * n
        randbelow = random.Random(1).randrange
        counts, degs, thresholds, flips = self.counts, self.degs, self.thresholds, self.flips
        t0 = time.perf_counter()
        for _ in range(route_steps):
            row = rows[randbelow(n)]
            a, b = row[randbelow(degree)], row[randbelow(degree)]
            if lengths[a] <= lengths[b]:
                lengths[a] += 1
            else:
                lengths[b] += 1
            v = randbelow(n)
            if lengths[v]:
                lengths[v] -= 1
        for k in range(flip_steps):
            trial = counts.copy()
            trial[flips[k & 63]] += 1
            int(np.sum(np.abs(trial * n - (n // 2) * degs) >= thresholds))
        return time.perf_counter() - t0

    def samples(self) -> list[float]:
        return [self.seconds() for _ in range(3)]


# ---------------------------------------------------------------------------
# workloads: setup(rep) builds the inputs, run_pass(tracer, p) is the timed
# fixed work and returns the numbers behind the end-to-end rates, checks()
# judges the outputs of the last pass.


class Workload:
    name = ""

    def __init__(self, scale: Scale, seeds: list[int], workdir: Path):
        self.scale, self.seeds, self.workdir = scale, seeds, workdir

    def ablations(self) -> dict:
        return {}


class SteadySparse(Workload):
    name = "steady-sparse"

    def __init__(self, scale: Scale, seeds: list[int], workdir: Path):
        super().__init__(scale, seeds, workdir)
        self.specs = [(n, c) for n in scale.steady_sizes for c in (log_degree(n), log2_degree(n))]

    def setup(self, rep: int) -> None:
        self.paths = []
        for k, (n, c) in enumerate(self.specs):
            g = graph.generate_fixed_server_degree(n, n, c, self.seeds[k])
            path = self.workdir / f"fixed-{n}-{c}.bpg"
            graph.write_graph(g, path)
            self.paths.append(path)

    def run_pass(self, tracer, p: int) -> dict:
        s = self.scale
        self.summaries = []
        server_time = steady_s = 0.0
        for k, ((n, c), path) in enumerate(zip(self.specs, self.paths)):
            with tracer.op("pass", f"steady.N{n}-c{c}", p):
                g = graph.read_graph(path)
                summary, dt = timed(
                    simulator.steady_state, g, 2, LAM,
                    warmup=s.steady_warmup, measure=s.steady_measure,
                    replicas=s.steady_replicas, seed=self.seeds[8 + k],
                )
                records.write_steady_csv(summary, self.workdir / f"steady-{n}-{c}.csv", summary.config)
            self.summaries.append(summary)
            server_time += n * (s.steady_warmup + s.steady_measure) * s.steady_replicas
            steady_s += dt
        return {"steady_server_time_per_s": rate(server_time, steady_s)}

    def checks(self, tracer) -> list[Check]:
        s = self.scale
        out = []
        target = float(meanfield.fixed_point(LAM, 2, DEPTH)[1:].sum())
        (n, c), summary = self.specs[-1], self.summaries[-1]
        rel = abs(summary.mean_qlen - target) / target
        out.append(Check(
            f"mean_qlen N={n} c={c} within 5% of the fixed point", rel <= 0.05,
            f"mean_qlen={summary.mean_qlen:.4f} target={target:.4f} rel={rel:.4f}",
        ))
        for (n, c), summary in zip(self.specs, self.summaries):
            # 4 standard deviations of the Poisson arrival and departure
            # counts over the measurement window
            tol = 4.0 * math.sqrt(2.0 * LAM / (n * s.steady_measure * s.steady_replicas))
            q1 = float(summary.occupancy_mean[0])
            out.append(Check(
                f"flow balance q1 = lambda, N={n} c={c}", abs(q1 - LAM) <= tol,
                f"q1={q1:.5f} tol={tol:.5f}",
            ))
            total = float(summary.occupancy_mean.sum())
            out.append(Check(
                f"level sums = mean_qlen, N={n} c={c}",
                abs(total - summary.mean_qlen) <= 1e-9 * summary.mean_qlen,
                f"sum q_i={total:.12g} mean_qlen={summary.mean_qlen:.12g}",
            ))
        n, c = self.specs[0]
        rec = simulator.simulate(graph.read_graph(self.paths[0]), 2, LAM, 5.0, seed=self.seeds[12])
        queued = int(rec.final_queue_lengths.sum())
        out.append(Check(
            f"arrivals - departures = queued tasks, N={n} c={c}",
            rec.arrival_count - rec.departure_count == queued
            and rec.event_count == rec.arrival_count + rec.departure_count,
            f"arrivals={rec.arrival_count} departures={rec.departure_count} queued={queued}",
        ))
        out.append(self.degree_sweep())
        return out

    def degree_sweep(self) -> Check:
        """The documented recipe, in-process through the CLI entry point.

        Known to fail: constant_degree_family(4) at N=1000 leaves about 18
        dispatchers isolated on average, so every one of the generator's
        retries fails and GraphGenerationError escapes cli.main.
        """
        argv = DEGREE_SWEEP_ARGV + ["--out", str(self.workdir / "degree-sweep.csv")]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
            detail = f"exit code {code}"
        except Exception as exc:  # the check records any failure of the recipe
            code = None
            detail = f"raised {type(exc).__name__}: {exc}"
        self.degree_sweep_s = time.perf_counter() - t0
        return Check("sparselb " + " ".join(DEGREE_SWEEP_ARGV), code == 0, detail, known_finding=True)


class Certify(Workload):
    name = "certify"

    def setup(self, rep: int) -> None:
        self.family = graph.log_squared_degree_family()
        n, m = self.scale.subcrit_shape
        self.ramp = np.linspace(0.06, 0.5, m)

    def run_pass(self, tracer, p: int) -> dict:
        s = self.scale
        tracer.kept["properties.sparsity_deficiency"].clear()
        with tracer.op("pass", "sparsity_trend", p):
            self.trend = properties.sparsity_trend(
                self.family, [EPSILON], list(s.trend_sizes), TREND_SEEDS, budget=TREND_BUDGET
            )
        with tracer.op("pass", "subcriticality", p):
            n, m = s.subcrit_shape
            self.subcrit = []
            for k in range(s.subcrit_graphs):
                g = graph.generate_inhomogeneous(n, m, self.ramp, self.seeds[k])
                self.subcrit.append(properties.optimal_subcriticality_load(g, 2))
            self.braess = properties.optimal_subcriticality_load(graph.braess_example(), 2)
        self.lipschitz = {}
        for d in (2, 3):
            with tracer.op("pass", f"lipschitz.d{d}", p):
                self.lipschitz[d] = policy.empirical_lipschitz(
                    policy.jsqd_policy(d), s.lipschitz_trials, np.random.default_rng(self.seeds[8 + d])
                )
        return {}

    def checks(self, tracer) -> list[Check]:
        out = []
        for args, kwargs, report in list(tracer.kept["properties.sparsity_deficiency"]):
            g, eps = args[0], args[1]
            claimed = round(report.deficiency * g.n_dispatchers)
            rescored = properties.bad_dispatcher_count(g, report.witness_subset, eps)
            out.append(Check(
                f"witness re-scores to the reported count, N={g.n_servers}", rescored == claimed,
                f"reported={claimed} rescored={rescored}",
            ))
        for k, n in enumerate(self.scale.exact_sizes):
            g = graph.generate_inhomogeneous(n, 10, 0.4, self.seeds[16 + k])
            exact = properties.sparsity_deficiency(g, 0.2, mode="exact").deficiency
            sampled = properties.sparsity_deficiency(g, 0.2, mode="sampled", budget=64, seed=k).deficiency
            out.append(Check(
                f"sampled <= exact deficiency, N={n}", sampled <= exact,
                f"sampled={sampled:.4f} exact={exact:.4f}",
            ))
        out.append(Check(
            "Braess optimum = 5/3", abs(self.braess.optimal_load - 5.0 / 3.0) <= 1e-6,
            f"optimal_load={self.braess.optimal_load:.9f}",
        ))
        for k, rep in enumerate(self.subcrit):
            out.append(Check(
                f"1 <= optimal load <= uniform metric, ramp graph {k}",
                1.0 - 1e-9 <= rep.optimal_load <= rep.uniform_metric + 1e-9,
                f"optimal={rep.optimal_load:.6f} uniform={rep.uniform_metric:.6f}",
            ))
        for d, est in self.lipschitz.items():
            bound = 2.0 * math.factorial(d) * d * d
            out.append(Check(
                f"Lipschitz estimate <= 2 d! d^2, d={d}", est <= bound, f"estimate={est:.4f} bound={bound:.0f}",
            ))
        return out


class TransientCoupled(Workload):
    name = "transient-coupled"

    def setup(self, rep: int) -> None:
        s = self.scale
        self.complete = graph.complete_bipartite(s.complete_n, s.complete_n)
        self.sparse = graph.generate_fixed_server_degree(
            s.sparse_n, s.sparse_n, log2_degree(s.sparse_n), self.seeds[0]
        )
        self.small = graph.generate_fixed_server_degree(s.coupled_n, s.coupled_n, s.coupled_c, self.seeds[1])

    def run_pass(self, tracer, p: int) -> dict:
        s = self.scale
        sim_events = sim_s = 0.0
        with tracer.op("pass", "simulate.d2_exp_complete", p):
            self.paths = []
            for r in range(s.complete_replicas):
                rec, dt = timed(
                    simulator.simulate, self.complete, 2, LAM, s.transient_horizon,
                    seed=self.seeds[2 + r], depth=DEPTH,
                )
                self.paths.append(rec)
                sim_events += rec.event_count
                sim_s += dt
        with tracer.op("pass", "ode.closed", p):
            q0 = meanfield.empty_occupancy(DEPTH)
            self.ode = meanfield.integrate_ode(LAM, q0, s.transient_horizon, depth=DEPTH, d=2)
        with tracer.op("pass", "ode.policy", p):
            self.ode_policy = meanfield.integrate_ode(
                LAM, q0, s.transient_horizon, depth=DEPTH, d=2, policy=policy.jsqd_policy(2)
            )
        with tracer.op("pass", "compare", p):
            first = self.paths[0]
            mean_path = records.TrajectoryRecord(
                first.sample_times, np.mean([r.occupancy for r in self.paths], axis=0), first.overflow
            )
            self.sim_vs_ode, _ = records.compare_trajectories(mean_path, self.ode.record, levels=8)
            self.closed_vs_policy, _ = records.compare_trajectories(self.ode.record, self.ode_policy.record)
        self.sparse_runs = {}
        for k, service in enumerate(("deterministic", "pareto")):
            label = "d3_det" if service == "deterministic" else "d3_pareto"
            with tracer.op("pass", f"simulate.{label}", p):
                rec, dt = timed(
                    simulator.simulate, self.sparse, 3, LAM, s.sparse_horizon,
                    service=service, seed=self.seeds[6 + k],
                )
            self.sparse_runs[label] = rec
            sim_events += rec.event_count
            sim_s += dt
        with tracer.op("pass", "csv", p):
            path = self.workdir / "trajectory.csv"
            records.write_trajectory_csv(first, path, {"lambda": LAM, "d": 2, "depth": DEPTH})
            self.read_back, _ = records.read_trajectory_csv(path)
        with tracer.op("pass", "coupled", p):
            self.coupled, coupled_s = timed(
                simulator.coupled_simulate, self.small, 2, LAM, s.coupled_horizon, seed=self.seeds[8]
            )
        return {
            "sim_events_per_s": rate(sim_events, sim_s),
            "coupled_events_per_s": rate(self.coupled.event_count, coupled_s),
        }

    def checks(self, tracer) -> list[Check]:
        out = [
            Check(
                "sup |mean simulated path - ODE| <= 0.02 over 8 levels", self.sim_vs_ode <= 0.02,
                f"sup={self.sim_vs_ode:.5f} over the mean of {len(self.paths)} paths",
            ),
            Check(
                "closed-form ODE = ODE through jsqd_policy(2)", self.closed_vs_policy <= 1e-9,
                f"sup={self.closed_vs_policy:.3e}",
            ),
            Check(
                "coupling margin_min >= 0", self.coupled.margin_min >= 0,
                f"margin_min={self.coupled.margin_min} mismatches={self.coupled.mismatch_count}",
            ),
        ]
        a, b = self.paths[0], self.read_back
        same = (
            a.occupancy.shape == b.occupancy.shape
            and np.allclose(a.sample_times, b.sample_times, rtol=0, atol=1e-12)
            and np.allclose(a.occupancy, b.occupancy, rtol=0, atol=1e-11)
            and np.array_equal(a.overflow, b.overflow)
        )
        out.append(Check("trajectory CSV round trip", same, f"shape={b.occupancy.shape}"))
        for label, rec in self.sparse_runs.items():
            queued = int(rec.final_queue_lengths.sum())
            out.append(Check(
                f"arrivals - departures = queued tasks, {label}",
                rec.arrival_count - rec.departure_count == queued
                and rec.event_count == rec.arrival_count + rec.departure_count,
                f"arrivals={rec.arrival_count} departures={rec.departure_count} queued={queued}",
            ))
        return out

    def ablations(self) -> dict:
        """Simulator layer split from public calls only (traced runs)."""
        s = self.scale
        on, off = [], []
        for _ in range(3):
            on.append(timed(simulator.simulate, self.complete, 2, LAM, s.transient_horizon,
                            seed=self.seeds[2], depth=DEPTH)[1])
            off.append(timed(simulator.simulate, self.complete, 2, LAM, s.transient_horizon,
                             seed=self.seeds[2], depth=DEPTH, sample_interval=None)[1])
        t_on, t_off = statistics.median(on), statistics.median(off)

        # routing on a frozen state: dispatcher draw, d-sample, shortest pick
        lengths = self.sparse_runs["d3_det"].final_queue_lengths.tolist()
        adj, m = self.sparse.adjacency, self.sparse.n_dispatchers
        rng = random.Random(self.seeds[9])
        randbelow = rng.randrange
        t0 = time.perf_counter()
        for _ in range(s.route_draws):
            row = adj[randbelow(m)]
            sampled = [row[i] for i in graph.floyd_sample(len(row), 3, randbelow)]
            simulator.choose_shortest(sampled, lengths, rng)
        route_s = time.perf_counter() - t0

        # RNG floor: the draws a d=3 deterministic-service run makes (clock,
        # dispatcher, three Floyd draws per arrival), with nothing else
        rec, sim_s = timed(simulator.simulate, self.sparse, 3, LAM, s.sparse_horizon,
                           service="deterministic", seed=self.seeds[6])
        rng = random.Random(self.seeds[10])
        expo, randbelow = rng.expovariate, rng.randrange
        rate_n, deg = LAM * s.sparse_n, log2_degree(s.sparse_n)
        t0 = time.perf_counter()
        for _ in range(rec.arrival_count):
            expo(rate_n)
            randbelow(m)
            randbelow(deg - 2)
            randbelow(deg - 1)
            randbelow(deg)
        rng_s = time.perf_counter() - t0
        return {
            "simulator.record_overhead_frac": (t_on - t_off) / t_on,
            "simulator.route_us.d3": 1e6 * route_s / s.route_draws,
            "simulator.rng_floor_frac": rng_s / sim_s,
        }


WORKLOADS = {w.name: w for w in (SteadySparse, Certify, TransientCoupled)}


# ---------------------------------------------------------------------------
# tracing hooks and per-layer metrics


def instrument(tracer) -> None:
    def graph_counts(args, kwargs, g):
        return {"edges": g.n_edges, "retries": g.meta.get("retries", 0)}

    def steady_counts(args, kwargs, summary):
        cfg = summary.config
        return {"server_time": args[0].n_servers * (cfg["warmup"] + cfg["measure"]) * cfg["replicas"]}

    tracer.instrument(
        graph, "graph",
        ["generate_fixed_server_degree", "generate_inhomogeneous", "read_graph", "write_graph"],
        counters={"generate_fixed_server_degree": graph_counts, "generate_inhomogeneous": graph_counts},
    )
    tracer.instrument(
        simulator, "simulator", ["steady_state", "simulate", "coupled_simulate"],
        counters={
            "steady_state": steady_counts,
            "simulate": lambda a, k, r: {"events": r.event_count} if r is not None else {},
            "coupled_simulate": lambda a, k, r: {
                "events": r.event_count, "mismatches": r.mismatch_count, "arrivals": r.arrival_count
            },
        },
    )
    tracer.instrument(
        meanfield, "meanfield", ["integrate_ode"],
        counters={"integrate_ode": lambda a, k, r: {"steps": r.steps_taken, "rejected": r.steps_rejected}},
    )
    tracer.instrument(
        policy, "policy", ["empirical_lipschitz"],
        counters={"empirical_lipschitz": lambda a, k, r: {"pairs": a[1], "estimate": r}},
    )
    tracer.instrument(
        properties, "properties",
        ["sparsity_trend", "sparsity_deficiency", "uniform_subcriticality_metric", "optimal_subcriticality_load"],
        counters={
            "sparsity_deficiency": lambda a, k, r: {"probed": r.subsets_probed, "deficiency": r.deficiency},
            "optimal_subcriticality_load": lambda a, k, r: {"gamma_support": r.gamma_support_size},
        },
        keep=("sparsity_deficiency",),
    )
    tracer.instrument(
        records, "records",
        ["write_trajectory_csv", "write_steady_csv", "read_trajectory_csv", "compare_trajectories"],
    )


def layer_metrics(tracer, walls, walls_norm, ablation: dict, fail_frac: float) -> dict:
    """Per-layer numbers from the traced passes (and traced set-up, where
    graphs are generated and written), each per pass or per set-up, as
    measured. `walls[traced]` are the pass times with recording on or off,
    `walls_norm` the same scaled by the reference kernel."""
    passes = max(1, tracer.units("pass"))
    reps = max(1, tracer.units("setup"))

    def spans(name, label=None):
        return tracer.select("pass", name, label) + tracer.select("setup", name, label)

    def per_unit(name, count=None):
        total = 0.0
        for kind, units in (("pass", passes), ("setup", reps)):
            total += sum(s.counts.get(count, 0) if count else s.seconds for s in tracer.select(kind, name)) / units
        return total

    def per_second(name, count, label=None):
        sel = spans(name, label)
        return rate(sum(s.counts.get(count, 0) for s in sel), sum(s.seconds for s in sel))

    def ratio(name, num, den):
        sel = spans(name)
        return rate(sum(s.counts.get(num, 0) for s in sel), sum(s.counts.get(den, 0) for s in sel))

    def last(name, count, label):
        sel = spans(name, label)
        return float(sel[-1].counts[count]) if sel else 0.0

    deficiencies = [s.counts["deficiency"] for s in spans("properties.sparsity_deficiency")]
    out = {
        "graph.generate_s": per_unit("graph.generate_"),
        "graph.generate_edges_per_s": per_second("graph.generate_", "edges"),
        "graph.retries": per_unit("graph.generate_", "retries"),
        "graph.read_s": per_unit("graph.read_graph"),
        "graph.write_s": per_unit("graph.write_graph"),
        "simulator.steady_s": per_unit("simulator.steady_state"),
        "simulator.server_time_per_s": per_second("simulator.steady_state", "server_time"),
        "simulator.events_per_s.d2_exp_complete": per_second("simulator.simulate", "events", "simulate.d2_exp_complete"),
        "simulator.events_per_s.d3_det": per_second("simulator.simulate", "events", "simulate.d3_det"),
        "simulator.events_per_s.d3_pareto": per_second("simulator.simulate", "events", "simulate.d3_pareto"),
        "simulator.record_overhead_frac": ablation.get("simulator.record_overhead_frac", 0.0),
        "simulator.route_us.d3": ablation.get("simulator.route_us.d3", 0.0),
        "simulator.rng_floor_frac": ablation.get("simulator.rng_floor_frac", 0.0),
        "simulator.coupled_events_per_s": per_second("simulator.coupled_simulate", "events"),
        "simulator.coupled_mismatch_frac": ratio("simulator.coupled_simulate", "mismatches", "arrivals"),
        "meanfield.rk4_steps_per_s.closed": per_second("meanfield.integrate_ode", "steps", "ode.closed"),
        "meanfield.rk4_steps_per_s.policy": per_second("meanfield.integrate_ode", "steps", "ode.policy"),
        "meanfield.steps_rejected": per_unit("meanfield.integrate_ode", "rejected"),
        "policy.lipschitz_s": per_unit("policy.empirical_lipschitz"),
        "policy.lipschitz_pairs_per_s": per_second("policy.empirical_lipschitz", "pairs"),
        "policy.lipschitz_estimate.d2": last("policy.empirical_lipschitz", "estimate", "lipschitz.d2"),
        "policy.lipschitz_estimate.d3": last("policy.empirical_lipschitz", "estimate", "lipschitz.d3"),
        "properties.sparsity_s": per_unit("properties.sparsity_deficiency"),
        "properties.subsets_probed": per_unit("properties.sparsity_deficiency", "probed"),
        "properties.probes_per_s": per_second("properties.sparsity_deficiency", "probed"),
        "properties.deficiency_lb_mean": statistics.fmean(deficiencies) if deficiencies else 0.0,
        "properties.maxflow_s": per_unit("properties.optimal_subcriticality_load"),
        "properties.gamma_support": per_unit("properties.optimal_subcriticality_load", "gamma_support"),
        "properties.uniform_metric_s": per_unit("properties.uniform_subcriticality_metric"),
        "records.csv_write_s": per_unit("records.write_"),
        "records.csv_read_s": per_unit("records.read_"),
        "records.compare_s": per_unit("records.compare_"),
    }
    self_s = tracer.self_seconds("pass")
    for layer in ("graph", "simulator", "meanfield", "policy", "properties", "records", "bench"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / passes
    # a mean, like the self times, so that they sum to it
    out["trace.pass_wall_s"] = statistics.fmean(walls[True])
    out["trace.overhead_frac"] = statistics.median(walls_norm[True]) / statistics.median(walls_norm[False]) - 1.0
    out["trace.spans_per_pass"] = len(tracer.select("pass")) / passes
    out["checks.fail_frac"] = fail_frac
    return out


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    t_imported = time.perf_counter()

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        seeds = [int(x) for x in np.random.SeedSequence(args.seed).generate_state(32)]
        work = WORKLOADS[args.workload](scale, seeds, workdir)
        tracer = Tracer()
        instrument(tracer)

        speed = SpeedReference()
        boundaries = [speed.samples()]

        def speed_factor() -> float:
            """REF_NOMINAL_S over the mean reference time at the boundaries
            just before and just after the timed unit that ended now."""
            boundaries.append(speed.samples())
            return REF_NOMINAL_S / statistics.fmean(boundaries[-2] + boundaries[-1])

        import_s = t_imported - T_START
        import_norm = import_s * REF_NOMINAL_S / statistics.fmean(boundaries[0])
        build, build_norm = [], []
        for rep in range(scale.setup_reps):
            tracer.recording = bool(args.trace)
            with tracer.op("setup", "setup", rep):
                seconds = timed(work.setup, rep)[1]
            build.append(seconds)
            build_norm.append(seconds * speed_factor())

        walls = {False: [], True: []}
        walls_norm = {False: [], True: []}
        stats = []
        t_begin = time.perf_counter()
        p = 0
        while p < 1 + args.trace or time.perf_counter() - t_begin < args.seconds:
            tracer.recording = bool(args.trace) and p % 2 == 1
            with tracer.op("pass", "pass", p):
                pass_stats, wall = timed(work.run_pass, tracer, p)
            factor = speed_factor()
            walls[tracer.recording].append(wall)
            walls_norm[tracer.recording].append(wall * factor)
            stats.append({key: value / factor for key, value in pass_stats.items()})
            p += 1
        tracer.recording = False
        # timed experiment calls: the operations inside each pass
        attempted = sum(1 for op in tracer.ops if op.kind == "pass" and op.label != "pass")

        checks = work.checks(tracer)
        ablation = work.ablations() if args.trace else {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = sum(1 for c in checks if not c.ok)
    fail_frac = failed_checks / len(checks)
    correct = all(c.ok or c.known_finding for c in checks)
    refs = [x for samples in boundaries for x in samples]
    report = {
        "setup_s": import_norm + statistics.median(build_norm),
        "wall_s": statistics.median(walls_norm[False]),
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": fail_frac,
        "passes": p,
        "setup_raw_s": import_s + statistics.median(build),
        "wall_raw_s": statistics.median(walls[False]),
        "ref_s": statistics.fmean(refs),
    }
    for key in stats[0]:
        report[key] = statistics.median(st[key] for st in stats)
    if isinstance(work, SteadySparse):
        report["degree_sweep_s"] = work.degree_sweep_s

    if args.trace:
        values = layer_metrics(tracer, walls, walls_norm, ablation, fail_frac)
        values["trace.ref_s"] = report["ref_s"]
        units = LAYER_UNITS
    else:
        values = {name: report[name] for name in E2E_UNITS}
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}

    machine = machine_info()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
             "machine": machine, "report": report, "checks": [vars(c) for c in checks], "result": result,
             "setup_seconds": build, "pass_seconds": walls[False], "traced_pass_seconds": walls[True],
             "ref_seconds": boundaries},
            fh, indent=1,
        )
    if args.trace:
        tracer.dump(out_dir / f"{stem}-spans.json")

    print("machine " + json.dumps(machine))
    for c in checks:
        status = "PASS" if c.ok else ("FAIL (known finding)" if c.known_finding else "FAIL")
        print(f"check {status}: {c.name}: {c.detail}")
    print("report " + json.dumps({"workload": args.workload, "seed": args.seed, **report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "sparselb" / "__init__.py").is_file():
        print(f"run.py: no sparselb sources under {SRC}; run it from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy as np

    from sparselb import cli, graph, meanfield, policy, properties, records, simulator
    from tracing import Tracer

    sys.exit(main())
