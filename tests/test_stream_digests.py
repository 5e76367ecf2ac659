"""Pinned random streams of the simulator kernels.

Each case hashes everything a seeded run returns. All three kernels
draw their input in numpy blocks of `simulator.BLOCK` events from the
generator of SeedSequence(seed, spawn_key=(replica,)), `coupled_simulate`
from replica 0's. The `simulate` and `steady_state` digests were recorded
when that kernel replaced the Mersenne Twister one, and the long cases
span several blocks, so a change at the seam between blocks shows too.
The coupled digests were recorded when the coupled run moved onto the
block-drawn stream and became JSQ(d) on the graph (row placement,
without-replacement ranks). The tied-completion digests were recorded
while the completion heap still held (time, server) pairs, before it came
to hold bare times. A mismatch means the stream changed, which re-rolls
every seeded statistical gate.
"""

import hashlib
import math

import numpy as np
import pytest

from sparselb import simulator
from sparselb.graph import (
    braess_example,
    complete_bipartite,
    generate_fixed_server_degree,
    perfect_matching,
)
from sparselb.simulator import BLOCK, coupled_simulate, simulate, steady_state

# 2.7 servers per dispatcher on average; rows of 1-3 servers exercise the
# d >= nrow and d=2, nrow=2 branches
SPARSE = generate_fixed_server_degree(40, 30, 2, seed=4)
COMPLETE = complete_bipartite(12, 5)
GRAPHS = {
    "complete": COMPLETE,
    "sparse": SPARSE,
    "matching": perfect_matching(8),  # disconnected: one server per dispatcher
    "braess": braess_example(),
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            dtype = "<f8" if part.dtype.kind == "f" else "<i8"
            h.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _record_digest(rec) -> str:
    return _digest(
        rec.sample_times, rec.occupancy, rec.overflow, rec.final_queue_lengths,
        rec.event_count, rec.arrival_count, rec.departure_count,
    )


SIMULATE = {
    ("complete", 1, "exponential"): "889bb9c9a13149ea",
    ("complete", 1, "deterministic"): "ab135da3a3bffcf7",
    ("complete", 1, "pareto"): "69c70c951c432ac3",
    ("complete", 2, "exponential"): "e794055ae95d9cb4",
    ("complete", 2, "deterministic"): "f35a53a6b8363996",
    ("complete", 2, "pareto"): "d3f135ddc38fbccf",
    ("complete", 3, "exponential"): "75c6653a62ed4b33",
    ("complete", 3, "deterministic"): "9d8292bdcd6da8b4",
    ("complete", 3, "pareto"): "c9311465c27f0924",
    ("sparse", 1, "exponential"): "b57ccb0c89b86e3e",
    ("sparse", 1, "deterministic"): "95668a3cdbd6a48a",
    ("sparse", 1, "pareto"): "09f22fe9994962a7",
    ("sparse", 2, "exponential"): "5ddd257583e4b15a",
    ("sparse", 2, "deterministic"): "3565b15a139b469d",
    ("sparse", 2, "pareto"): "fd66df04cb7c04e3",
    ("sparse", 3, "exponential"): "7696d58b001dc114",
    ("sparse", 3, "deterministic"): "3e441b91abddc40c",
    ("sparse", 3, "pareto"): "f4e8a17b21d2077b",
}


# depth 2 clips the recorded levels, so the overflow column is nonzero; the
# queues also climb past the initial top level 3, opening new levels
SIMULATE_DEPTH2 = {
    ("sparse", 1, "exponential"): "269ddc3a2e99da1c",
    ("sparse", 2, "exponential"): "bb591e0b930edc61",
}


def _simulate_run(name, d, service, horizon, depth=6):
    g = GRAPHS[name]
    init = [(v * 7) % 4 for v in range(g.n_servers)]  # starts busy: service draws at t=0
    return simulate(g, d, 0.9, horizon, service=service, initial_lengths=init,
                    sample_interval=0.5, seed=17, depth=depth, debug=True)


@pytest.mark.parametrize("case", sorted(SIMULATE), ids=lambda c: "-".join(map(str, c)))
def test_simulate_stream(case):
    assert _record_digest(_simulate_run(*case, horizon=25.0)) == SIMULATE[case]


@pytest.mark.parametrize("case", sorted(SIMULATE_DEPTH2), ids=lambda c: "-".join(map(str, c)))
def test_simulate_overflow_stream(case):
    rec = _simulate_run(*case, horizon=25.0, depth=2)
    assert rec.overflow.any() and rec.final_queue_lengths.max() > 3
    assert _record_digest(rec) == SIMULATE_DEPTH2[case]


# horizon 250: more than two blocks of arrivals, so at least two seams
SIMULATE_LONG = {
    ("sparse", 2, "exponential"): "8a72f8d364ad7f93",
    ("sparse", 3, "pareto"): "8e0ed0b469cea54a",
}


@pytest.mark.parametrize("case", sorted(SIMULATE_LONG), ids=lambda c: "-".join(map(str, c)))
def test_simulate_stream_across_blocks(case):
    rec = _simulate_run(*case, horizon=250.0)
    assert rec.arrival_count > 2 * BLOCK
    assert _record_digest(rec) == SIMULATE_LONG[case]


# Every server starts with 2 tasks, so under deterministic service all of
# them complete at t = 1 and again at t = 2: the completion heap pops long
# runs of equal times, and the samples at 1 and 2 fall on them. Under
# "integer" service (1, 2 or 3, drawn from the run's stream) ties recur all
# run long, and each tied server draws its next service in pop order, so a
# change of the tie order, ascending server index, moves the digest.
TIED = {
    ("complete", 2, "deterministic"): "da188da6f9d02ae6",
    ("sparse", 3, "deterministic"): "889ad1e4d8b7c595",
    ("sparse", 3, "pareto"): "31dc7b830d89bf1d",
    ("sparse", 3, "integer"): "9ac0dc6dc6d925fa",
}
# the same starts through the window path of steady_state, the window
# opening at t = 1 on the first run of ties
TIED_AREA = {
    ("sparse", 2, "deterministic"): "f357e6c0c6ec7a2b",
    ("sparse", 3, "integer"): "d920031f67bff199",
}


def _tied_service(service, monkeypatch):
    if service != "integer":
        return service
    monkeypatch.setattr(simulator.ServiceDistribution, "draw",
                        lambda self, gen, size: gen.integers(1, 4, size).astype(float))
    return "pareto"


@pytest.mark.parametrize("case", sorted(TIED), ids=lambda c: "-".join(map(str, c)))
def test_simulate_stream_with_tied_completions(case, monkeypatch):
    name, d, service = case
    g = GRAPHS[name]
    rec = simulate(g, d, 0.9, 12.0, service=_tied_service(service, monkeypatch),
                   initial_lengths=[2] * g.n_servers, sample_interval=0.5, seed=37, depth=6, debug=True)
    assert _record_digest(rec) == TIED[case]


@pytest.mark.parametrize("case", sorted(TIED_AREA), ids=lambda c: "-".join(map(str, c)))
def test_window_stream_with_tied_completions(case, monkeypatch):
    name, d, service = case
    g = GRAPHS[name]
    service = simulator.ServiceDistribution(_tied_service(service, monkeypatch))
    _, area = simulator._simulate_core(g, d, 0.9, 12.0, service, simulator._replica_stream(41, 0),
                                       [2] * g.n_servers, None, 1.0, 6, True, None)
    assert _digest(area) == TIED_AREA[case]


STEADY = {
    ("complete", 2, "exponential"): "e7b796d790f652cb",
    ("sparse", 2, "exponential"): "d93af390cd73dd8b",
    ("sparse", 3, "exponential"): "e9d9ea5d37fb151b",
    ("sparse", 2, "deterministic"): "4656c6daaf6e5970",
    ("sparse", 3, "pareto"): "820e91fc32d958ee",
}


def _steady_digest(case) -> str:
    name, d, service = case
    s = steady_state(GRAPHS[name], d, 0.9, warmup=5.0, measure=20.0, replicas=2,
                     service=service, seed=23, depth=8)
    return _digest(s.replica_mean_qlen, s.replica_occupancy, s.mean_qlen, s.mean_qlen_stderr,
                   s.occupancy_mean, s.occupancy_stderr)


@pytest.mark.parametrize("case", sorted(STEADY), ids=lambda c: "-".join(map(str, c)))
def test_steady_state_stream(case):
    assert _steady_digest(case) == STEADY[case]


@pytest.mark.parametrize("case", sorted(STEADY), ids=lambda c: "-".join(map(str, c)))
def test_steady_state_stream_whatever_sum_does(case, monkeypatch):
    # builtin sum() adds floats left to right up to Python 3.11 and with
    # compensation from 3.12; the exactly rounded fsum stands in for the
    # latter, and the replica means must keep their bits under it
    monkeypatch.setattr(simulator, "sum", math.fsum, raising=False)
    assert _steady_digest(case) == STEADY[case]


# warmup 250 spans more than two blocks of events (at least 9,000 at rate
# lambda*N, 19,000 at (lambda+1)*N), so the window opens inside a block
# after at least two seams; the exponential cases at d <= 2 run their
# warmup on queue lengths alone
STEADY_LONG = {
    ("sparse", 1, "exponential"): "5226670a9d5ce246",
    ("sparse", 2, "exponential"): "2659342e80a7c947",
    ("sparse", 2, "deterministic"): "f17640b9d760571f",
}


@pytest.mark.parametrize("case", sorted(STEADY_LONG), ids=lambda c: "-".join(map(str, c)))
def test_steady_state_stream_warmup_across_blocks(case):
    name, d, service = case
    g = GRAPHS[name]
    warmup = 250.0
    assert 0.9 * g.n_servers * warmup > 2 * BLOCK
    s = steady_state(g, d, 0.9, warmup=warmup, measure=40.0, replicas=2, service=service, seed=31, depth=8)
    got = _digest(s.replica_mean_qlen, s.replica_occupancy, s.mean_qlen, s.mean_qlen_stderr,
                  s.occupancy_mean, s.occupancy_stderr)
    assert got == STEADY_LONG[case]


COUPLED = {
    ("braess", 2): "a22ce9791ce142c6",
    ("complete", 2): "d0c78c1abd66e9ac",
    ("matching", 2): "dc4581dda25c8b38",
    ("sparse", 1): "e04c8845a2e5a2eb",
    ("sparse", 2): "0034bfb7788a9f22",
    ("sparse", 3): "d652664cf220d787",
}
# depth 2 clips both systems' occupancy, so the overflow columns are nonzero
COUPLED_DEPTH2 = {
    ("sparse", 2): "6f89f8a51f81f925",
}


def _coupled_run(name: str, d: int, depth: int):
    return coupled_simulate(GRAPHS[name], d, 0.9, 25.0, seed=29, sample_interval=0.5,
                            depth=depth, allow_disconnected=True)


def _coupled_digest(c) -> str:
    return _digest(
        _record_digest(c.g_record), _record_digest(c.k_record), c.delta_series,
        c.margin_series, c.mismatch_count, c.margin_min, c.event_count, c.arrival_count,
    )


@pytest.mark.parametrize("case", sorted(COUPLED), ids=lambda c: "-".join(map(str, c)))
def test_coupled_stream(case):
    assert _coupled_digest(_coupled_run(*case, depth=6)) == COUPLED[case]


@pytest.mark.parametrize("case", sorted(COUPLED_DEPTH2), ids=lambda c: "-".join(map(str, c)))
def test_coupled_overflow_stream(case):
    c = _coupled_run(*case, depth=2)
    assert c.g_record.overflow.any() and c.k_record.overflow.any()
    assert _coupled_digest(c) == COUPLED_DEPTH2[case]
