"""The simulator against the exact law of the chain it claims to simulate.

With exponential service, JSQ(d) on a graph is a continuous-time Markov
chain on queue-length vectors. On three-server graphs, truncated where
the cut level carries less than 1e-4 of the mass, its stationary law is
solved exactly (`oracles.jsqd_stationary`). Each case runs SEEDS
independent single-replica `steady_state` estimates and requires their
mean to lie within Z_MAX standard errors of the exact value, the error
estimated from the spread of those runs, not from one run's replicas.
"""

import numpy as np
import pytest

from oracles import jsqd_stationary
from sparselb.graph import BipartiteGraph
from sparselb.simulator import steady_state

SEEDS = 20
Z_MAX = 4.0
LAMBDA = 0.5
LEVEL = 20
WARMUP, MEASURE = 50.0, 3000.0

PATH3 = [[0], [0, 1], [1, 2]]
ROW3 = [[0], [0, 1, 2], [1, 2]]  # the middle row samples two of three at d = 2
CASES = {"path3-d2": (PATH3, 2), "row3-d2": (ROW3, 2), "row3-d3": (ROW3, 3)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_steady_state_matches_exact_law(case):
    rows, d = CASES[case]
    occupancy, cut_mass = jsqd_stationary(rows, 3, d, LAMBDA, LEVEL)
    assert cut_mass < 1e-4
    g = BipartiteGraph(3, len(rows), rows)
    runs = [steady_state(g, d, LAMBDA, warmup=WARMUP, measure=MEASURE, replicas=1, seed=s)
            for s in range(SEEDS)]
    # the mean queue length, and the fraction of servers holding two or more
    for got, exact in ((np.array([r.mean_qlen for r in runs]), occupancy.sum()),
                       (np.array([r.occupancy_mean[1] for r in runs]), occupancy[1])):
        z = (got.mean() - exact) / (got.std(ddof=1) / np.sqrt(SEEDS))
        assert abs(z) <= Z_MAX, f"{case}: {got.mean():.5f} against exact {exact:.5f}, z = {z:+.2f}"
