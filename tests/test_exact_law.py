"""The simulator against the exact law of the chain it claims to simulate.

With exponential service, JSQ(d) on a graph is a continuous-time Markov
chain on queue-length vectors. On three-server graphs, truncated where
the cut level carries less than 1e-4 of the mass, its stationary law is
solved exactly (`oracles.jsqd_stationary`). Each case runs SEEDS
independent single-replica estimates and requires their mean to lie
within Z_MAX standard errors of the exact value, the error estimated from
the spread of those runs, not from one run's replicas. Both `steady_state`
and the constrained system of `coupled_simulate` are held to the law.
"""

import functools

import numpy as np
import pytest

from oracles import jsqd_stationary
from sparselb.graph import BipartiteGraph
from sparselb.simulator import coupled_simulate, steady_state

SEEDS = 20
Z_MAX = 4.0
LAMBDA = 0.5
LEVEL = 20
WARMUP, MEASURE = 50.0, 3000.0
# the coupled run is read from its samples at t >= WARMUP
COUPLED_HORIZON, COUPLED_INTERVAL = 3000.0, 5.0

PATH3 = [[0], [0, 1], [1, 2]]
ROW3 = [[0], [0, 1, 2], [1, 2]]  # the middle row samples two of three at d = 2
CASES = {"path3-d2": (PATH3, 2), "row3-d2": (ROW3, 2), "row3-d3": (ROW3, 3)}


@functools.cache
def _exact_occupancy(case: str) -> np.ndarray:
    rows, d = CASES[case]
    occupancy, cut_mass = jsqd_stationary(rows, 3, d, LAMBDA, LEVEL)
    assert cut_mass < 1e-4
    return occupancy


def _assert_matches_exact(case: str, mean_qlen, q2) -> None:
    """The per-seed mean queue lengths and fractions of servers holding two
    or more tasks, each within Z_MAX standard errors of the exact law."""
    occupancy = _exact_occupancy(case)
    for got, exact in ((np.array(mean_qlen), occupancy.sum()), (np.array(q2), occupancy[1])):
        z = (got.mean() - exact) / (got.std(ddof=1) / np.sqrt(SEEDS))
        assert abs(z) <= Z_MAX, f"{case}: {got.mean():.5f} against exact {exact:.5f}, z = {z:+.2f}"


def _graph(case: str) -> tuple[BipartiteGraph, int]:
    rows, d = CASES[case]
    return BipartiteGraph(3, len(rows), rows), d


@pytest.mark.parametrize("case", sorted(CASES))
def test_steady_state_matches_exact_law(case):
    g, d = _graph(case)
    runs = [steady_state(g, d, LAMBDA, warmup=WARMUP, measure=MEASURE, replicas=1, seed=s)
            for s in range(SEEDS)]
    _assert_matches_exact(case, [r.mean_qlen for r in runs], [r.occupancy_mean[1] for r in runs])


@pytest.mark.parametrize("case", sorted(CASES))
def test_coupled_constrained_system_matches_exact_law(case):
    g, d = _graph(case)
    means = []
    for s in range(SEEDS):
        rec = coupled_simulate(g, d, LAMBDA, COUPLED_HORIZON, seed=s,
                               sample_interval=COUPLED_INTERVAL, depth=LEVEL).g_record
        means.append(rec.occupancy[rec.sample_times >= WARMUP].mean(axis=0))
    _assert_matches_exact(case, [m.sum() for m in means], [m[1] for m in means])
