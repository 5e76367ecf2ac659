"""Every callable that sparselb exports, read from the package, is called on a
small valid base call with each scalar parameter set in turn to a fixed
hostile alphabet. Only ValueError, TypeError and the package's own errors
may escape, and no call may run past its time limit."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import sparselb
from oracles import TimeLimit, time_limit
from sparselb.graph import FAMILIES
from sparselb.meanfield import ODEStepError

_ALPHABET = [
    0, -1, 1, 2**31, 2**63, 10**20, True, 1.5, math.nan, math.inf, -math.inf, 1e308, -0.0, 1e-308, 5e-324,
    "3", None, [], [1], np.int64(3), np.float64(0.5), np.bool_(True), np.array([1, 2]),
]
_ALLOWED = (ValueError, TypeError, sparselb.GraphGenerationError, ODEStepError)
# legal values of these may run for hours, so they get only the values that
# must be refused: every one but a positive finite number
_COSTLY = {"trials", "budget", "replicas", "warmup", "measure", "horizon"}
_PUBLIC = {
    name: obj for name, obj in vars(sparselb).items()
    if not name.startswith("_") and callable(obj) and not (inspect.isclass(obj) and issubclass(obj, BaseException))
}


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """A small valid keyword call per public callable; a data class takes
    the fields of an instance that the library returned."""
    tmp = tmp_path_factory.mktemp("fuzz")
    rows = [[0, 1], [1, 2], [2, 3], [3, 0]]
    g = sparselb.BipartiteGraph(4, 4, rows)
    sparselb.write_graph(g, tmp / "g.bpg")
    run = dict(graph=g, d=2, lam=0.5, horizon=1.0, depth=10)
    record = sparselb.simulate(**run)
    policy = sparselb.jsqd_policy(2)
    weights = sparselb.stability_weights(0.5, 10)
    calls = {
        "AssignmentPolicy": dict(name="jsq", evaluator=policy.evaluator, declared_lipschitz_bound=8.0),
        "BipartiteGraph": dict(n_servers=4, n_dispatchers=4, adjacency=rows),
        "GraphSpec": dict(kind="fixed-degree", n=4, c=2),
        "ServiceDistribution": dict(kind="deterministic"),
        "braess_example": {},
        "compare_trajectories": dict(a=record, b=record, levels=2),
        "complete_bipartite": dict(n_servers=3, n_dispatchers=2),
        "coupled_simulate": run,
        "default_depth": dict(lam=0.5, d=2),
        "empirical_lipschitz": dict(policy=policy, trials=4, rng=np.random.default_rng(0)),
        "empty_occupancy": dict(depth=4),
        "fixed_point": dict(lam=0.5, d=2, depth=4),
        "generate_fixed_server_degree": dict(n_servers=4, n_dispatchers=4, c=2, seed=0),
        "generate_geometric": dict(n_servers=4, n_dispatchers=4, radius=0.8, seed=0),
        "generate_inhomogeneous": dict(n_servers=4, n_dispatchers=4, p=0.5, seed=0),
        "integrate_ode": dict(lam=0.5, q0=sparselb.empty_occupancy(4), horizon=1.0, depth=4),
        "jsqd_policy": dict(d=2),
        "lyapunov_series": dict(record=record, k=1),
        "optimal_subcriticality_load": dict(graph=g, d=2),
        "perfect_matching": dict(n=3),
        "psi_series": dict(record=record, weights=weights, q_star=sparselb.fixed_point(0.5, 2, 10)),
        "read_graph": dict(path=tmp / "g.bpg"),
        "simulate": run,
        "sparsity_deficiency": dict(graph=g, epsilon=0.25, budget=8),
        "sparsity_trend": dict(family=FAMILIES["fixed-degree-4"], epsilons=[0.25], sizes=[8], seeds=[0], budget=8),
        "stability_weights": dict(lam=0.5, depth=10),
        "steady_state": dict(graph=g, d=2, lam=0.5, warmup=0.5, measure=0.5, replicas=2, depth=10),
        "tail_moment_margin": dict(occupancy_mean=[0.5, 0.2, 0.05], lam=0.5, k=2),
        "uniform_subcriticality_metric": dict(graph=g),
        "write_graph": dict(graph=g, path=tmp / "out.bpg"),
    }
    returned = [record, weights, sparselb.coupled_simulate(**run), sparselb.steady_state(**calls["steady_state"]),
                sparselb.sparsity_deficiency(**calls["sparsity_deficiency"]), sparselb.optimal_subcriticality_load(g, 2)]
    for obj in returned:
        calls[type(obj).__name__] = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}
    return calls


def _call(fn, kwargs):
    """fn(**kwargs); a GraphSpec is checked when it is built."""
    out = fn(**kwargs)
    if isinstance(out, sparselb.GraphSpec):
        out.build()


def _is_scalar(value, parameter) -> bool:
    if value is None:  # an unset optional number
        return parameter.annotation in ("Optional[int]", "Optional[float]")
    return isinstance(value, (int, float, str, np.generic))


def _positive(value) -> bool:
    try:
        return bool(0 < value < math.inf)
    except (TypeError, ValueError):  # a string, a list, an array
        return False


def test_every_public_callable_has_a_base_call(bases):
    assert sorted(bases) == sorted(_PUBLIC)


@pytest.mark.parametrize("name", sorted(_PUBLIC))
def test_public_api_refuses_hostile_scalars(bases, name):
    fn, base = _PUBLIC[name], bases[name]
    with time_limit(2):
        _call(fn, base)
    faults = []
    for parameter in inspect.signature(fn).parameters.values():
        if not _is_scalar(base.get(parameter.name, parameter.default), parameter):
            continue
        for value in _ALPHABET:
            if parameter.name in _COSTLY and _positive(value):
                continue
            try:
                with time_limit(2):
                    _call(fn, {**base, parameter.name: value})
            except _ALLOWED:
                pass
            except (Exception, TimeLimit) as exc:
                faults.append(f"{name}({parameter.name}={value!r}): {type(exc).__name__}: {exc}")
    assert not faults, "\n".join(faults)
