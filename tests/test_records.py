import re
from unittest import mock

import numpy as np
import pytest
from oracles import time_limit

from sparselb.graph import complete_bipartite
from sparselb.meanfield import stability_weights
from sparselb.policy import jsqd_policy
from sparselb.properties import sparsity_deficiency
from sparselb.records import (
    TrajectoryFormatError,
    TrajectoryRecord,
    check_compatible_metadata,
    compare_trajectories,
    level_columns,
    read_trajectory_csv,
    sample_grid,
    write_trajectory_csv,
)
from sparselb.simulator import lyapunov_series, simulate, steady_state, tail_moment_margin


def _record(times, occ, overflow=None):
    occ = np.asarray(occ, dtype=float)
    return TrajectoryRecord(
        sample_times=np.asarray(times, dtype=float),
        occupancy=occ,
        overflow=np.zeros(len(times), dtype=np.int64) if overflow is None else overflow,
    )


def test_trajectory_csv_round_trip(tmp_path):
    rec = _record([0.0, 0.1, 0.2], [[0.5, 0.1], [0.4, 0.2], [0.3, 0.3]])
    path = tmp_path / "t.csv"
    write_trajectory_csv(rec, path, {"lambda": 0.8, "d": 2, "depth": 2})
    back, meta = read_trajectory_csv(path)
    assert meta["lambda"] == "0.8" and meta["d"] == "2"
    assert np.allclose(back.occupancy, rec.occupancy, atol=1e-12)
    assert np.allclose(back.sample_times, rec.sample_times)


@pytest.mark.parametrize(
    "text, message",
    [("", "no header row"),
     ("# lambda: 0.8\n", "no header row"),
     ("# lambda: 0.8\nreplica,mean_qlen,q1\n", "line 2: not a trajectory CSV"),
     ("# lambda: 0.8\nt,q1,overflow\n\n", "t.csv: no data rows")],
)
def test_trajectory_csv_header_errors(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(TrajectoryFormatError, match=message):
        read_trajectory_csv(path)


def test_compare_identical_is_zero():
    rec = _record([0.0, 0.5, 1.0], [[0.5], [0.4], [0.3]])
    assert compare_trajectories(rec, rec) == (0.0, 0.0)


def test_compare_interpolates_mismatched_grids():
    a = _record([0.0, 0.5, 1.0], [[0.0], [0.5], [1.0]])
    b = _record([0.0, 0.25, 0.5, 0.75, 1.0], [[0.0], [0.25], [0.5], [0.75], [1.0]])
    sup, l1 = compare_trajectories(a, b)
    assert sup <= 1e-12 and l1 <= 1e-12


def test_compare_rejects_horizon_mismatch():
    a = _record([0.0, 1.0], [[0.1], [0.1]])
    b = _record([0.0, 2.0], [[0.1], [0.1]])
    with pytest.raises(ValueError):
        compare_trajectories(a, b)


def test_compare_levels_cap():
    a = _record([0.0, 1.0], [[0.5, 0.9], [0.5, 0.9]])
    b = _record([0.0, 1.0], [[0.5, 0.0], [0.5, 0.0]])
    sup_all, _ = compare_trajectories(a, b)
    sup_one, _ = compare_trajectories(a, b, levels=1)
    assert sup_all == 0.9 and sup_one == 0.0


@pytest.mark.parametrize("levels", [0, -3])
def test_compare_levels_must_be_positive(levels):
    rec = _record([0.0, 1.0], [[0.5, 0.9], [0.5, 0.9]])
    with pytest.raises(ValueError, match=f"levels must be a positive integer, not {levels}"):
        compare_trajectories(rec, rec, levels=levels)


@pytest.mark.parametrize("horizon, interval", [(1e308, 0.1), (1.0, 1e-300), (2.0**31, 1.0)])
def test_sample_grid_of_more_than_2_31_samples_is_refused(horizon, interval):
    # refused before np.arange allocates the grid
    with mock.patch.object(np, "arange", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError, match="^" + re.escape(f"horizon {horizon} / sample_interval {interval} asks for more")):
            sample_grid(horizon, interval)
    with mock.patch.object(np, "arange") as arange:  # 2^31 samples, the largest grid allowed
        sample_grid(2.0**31 - 1, 1.0)
    arange.assert_called_once_with(2**31)


def test_metadata_compatibility_gate():
    check_compatible_metadata({"lambda": "0.8"}, {"lambda": "0.8", "d": "2"})
    with pytest.raises(ValueError):
        check_compatible_metadata({"lambda": "0.8"}, {"lambda": "0.5"})
    with pytest.raises(ValueError):
        check_compatible_metadata({"depth": "30"}, {"depth": "10"})


def _small_record():
    return simulate(complete_bipartite(2, 2), 1, 0.5, 1.0, seed=0)


# (argument name, call taking the bad value): every whole-number argument is
# checked by require_positive_int, so the error names it
_INTEGER_ARGUMENTS = {
    "sparsity_deficiency-budget": (
        "budget", lambda v: sparsity_deficiency(complete_bipartite(4, 4), 0.1, budget=v)),
    "steady_state-replicas": (
        "replicas", lambda v: steady_state(complete_bipartite(2, 2), 1, 0.5, warmup=1.0, measure=1.0, replicas=v)),
    "stability_weights-depth": ("depth", lambda v: stability_weights(0.5, v)),
    "lyapunov_series-k": ("k", lambda v: lyapunov_series(_small_record(), v)),
    "tail_moment_margin-k": ("k", lambda v: tail_moment_margin([0.5, 0.25, 0.125], 0.5, v)),
    "jsqd_policy-d": ("d", lambda v: jsqd_policy(v)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, float("nan")])
@pytest.mark.parametrize("case", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_are_named(case, value):
    name, call = _INTEGER_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, not {value}$"):
        call(value)


@pytest.mark.parametrize("value", [2**31, 2**63])
@pytest.mark.parametrize("case", ["lyapunov_series-k", "jsqd_policy-d"])
def test_counts_from_2_31_are_named(case, value):
    # jsqd_policy would otherwise form d! for its declared bound
    name, call = _INTEGER_ARGUMENTS[case]
    with time_limit(2), pytest.raises(ValueError, match=rf"^{name} must be below 2\^31, not {value}$"):
        call(value)


@pytest.mark.parametrize("lam", [1, 2, 0, -0.5, float("nan")])
def test_tail_moment_margin_refuses_a_load_outside_0_1(lam):
    with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 1\)$"):
        tail_moment_margin([0.5, 0.25], lam, 1)


@pytest.mark.parametrize("k", [3, 5, 2**63])
def test_tail_moment_margin_refuses_k_past_the_recorded_levels(k):
    with pytest.raises(ValueError, match=f"^k must be at most the 2 recorded levels, not {k}$"):
        tail_moment_margin([0.5, 0.25], 0.5, k)


def test_sample_grid_takes_an_int_interval_as_a_float():
    # np.arange(1) * 2**63 would overflow int64
    assert sample_grid(1.0, 2**63).tolist() == [0.0]
    grid = sample_grid(3, 1)
    assert grid.dtype == np.float64 and grid.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_level_columns_refuse_a_depth_they_cannot_list():
    assert level_columns(3) == ["q1", "q2", "q3"]
    for depth, message in [(0, "depth must be a positive integer, not 0"),
                           (99999999999999999999, "depth must be below 2^31, not 99999999999999999999")]:
        with pytest.raises(ValueError) as info:
            level_columns(depth)
        assert str(info.value) == message
