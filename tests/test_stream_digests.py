"""Pinned random streams of the simulator kernels.

Each case hashes everything a seeded run returns. The digests were
recorded before the kernels inlined their `randrange`/`expovariate`
calls; a match proves the inline draws consume the Mersenne Twister
stream exactly as those calls did, so existing seeds reproduce the same
paths. A mismatch means the stream changed, which re-rolls every seeded
statistical gate.
"""

import hashlib

import numpy as np
import pytest

from sparselb.graph import (
    braess_example,
    complete_bipartite,
    generate_fixed_server_degree,
    perfect_matching,
)
from sparselb.simulator import coupled_simulate, simulate, steady_state

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
    ("complete", 1, "exponential"): "a9f347b01c421029",
    ("complete", 1, "deterministic"): "8a8e34bc1fbce215",
    ("complete", 1, "pareto"): "76701c69343ec673",
    ("complete", 2, "exponential"): "b245442362c057c8",
    ("complete", 2, "deterministic"): "3c431912bfecf8d1",
    ("complete", 2, "pareto"): "e4b19e3d128d50eb",
    ("complete", 3, "exponential"): "77549642c6c9c2f5",
    ("complete", 3, "deterministic"): "5e3c6fa957eb2be0",
    ("complete", 3, "pareto"): "00c17f26cd5ffbb4",
    ("sparse", 1, "exponential"): "3fefa904b8790c5c",
    ("sparse", 1, "deterministic"): "5bedf1b5aa7ca87a",
    ("sparse", 1, "pareto"): "09905d3a4510fd82",
    ("sparse", 2, "exponential"): "1c608622cae522e7",
    ("sparse", 2, "deterministic"): "67ad7823b4c75c53",
    ("sparse", 2, "pareto"): "e20f7310b9c388d0",
    ("sparse", 3, "exponential"): "2dd781fb529661a6",
    ("sparse", 3, "deterministic"): "1b90ff111ef4a8c3",
    ("sparse", 3, "pareto"): "2049e13fb4a1224b",
}


@pytest.mark.parametrize("case", sorted(SIMULATE), ids=lambda c: "-".join(map(str, c)))
def test_simulate_stream(case):
    name, d, service = case
    g = GRAPHS[name]
    init = [(v * 7) % 4 for v in range(g.n_servers)]  # starts busy: service draws at t=0
    rec = simulate(g, d, 0.9, 25.0, service=service, initial_lengths=init,
                   sample_interval=0.5, seed=17, depth=6, debug=True)
    assert _record_digest(rec) == SIMULATE[case]


STEADY = {
    ("complete", 2, "exponential"): "8e96d5e4e60a6f99",
    ("sparse", 2, "exponential"): "955a366fdaa33b96",
    ("sparse", 3, "exponential"): "107ee2d2b1f77d38",
    ("sparse", 2, "deterministic"): "cb9eced5791a1f59",
    ("sparse", 3, "pareto"): "fa0d687d6999dbac",
}


@pytest.mark.parametrize("case", sorted(STEADY), ids=lambda c: "-".join(map(str, c)))
def test_steady_state_stream(case):
    name, d, service = case
    s = steady_state(GRAPHS[name], d, 0.9, warmup=5.0, measure=20.0, replicas=2,
                     service=service, seed=23, depth=8)
    got = _digest(s.replica_mean_qlen, s.replica_occupancy, s.mean_qlen, s.mean_qlen_stderr,
                  s.occupancy_mean, s.occupancy_stderr)
    assert got == STEADY[case]


COUPLED = {
    ("braess", 2): "17686d12dd274da7",
    ("complete", 2): "d8b089c5d4549644",
    ("matching", 2): "3946d26a20c4dbf4",
    ("sparse", 1): "9450eb55b556358a",
    ("sparse", 2): "8650789798d9f918",
    ("sparse", 3): "3cd3b7270ca8b86e",
}
# depth 2 clips both systems' occupancy, so the overflow columns are nonzero
COUPLED_DEPTH2 = {
    ("sparse", 2): "9793c2d5e3abea7e",
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
