"""Result containers and their CSV wire formats.

Every CSV the package writes goes through `write_table`: a '#'-prefixed
metadata block (config echo, package version, seed) so outputs are
self-describing, then a header row and the data rows. The schemas kept
here are:

    trajectory:   t, q1, ..., qK, overflow
    steady state: replica, mean_qlen, q1, ..., qK
    coupled run:  t, q1, ..., qK, overflow, delta, margin_min_so_far

The simulator and the ODE integrator share the trajectory schema so their
outputs diff directly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__

FORMAT_VERSION = f"sparselb v{__version__}"
INDEX_LIMIT = 2**31  # bounds N, M, a depth and a replica count: int32 indices, int64 edge keys v*M + w

# metadata keys that must agree before two trajectory files are compared
_COMPARE_KEYS = ("lambda", "d", "depth")
_TIME_TOL = 1e-9  # sample times closer than this count as equal in compare_trajectories


class TrajectoryFormatError(ValueError):
    """A trajectory CSV is malformed; the message names the file and line."""


@dataclass
class TrajectoryRecord:
    """Occupancy path sampled on a regular grid.

    occupancy[s, i-1] holds q_i at sample_times[s]; overflow[s] counts
    servers whose queue exceeded the recording depth (dynamics are never
    truncated, only the recording).
    """

    sample_times: np.ndarray
    occupancy: np.ndarray
    overflow: np.ndarray
    n_servers: Optional[int] = None
    event_count: int = 0
    arrival_count: int = 0
    departure_count: int = 0
    final_queue_lengths: Optional[np.ndarray] = None

    @property
    def depth(self) -> int:
        return self.occupancy.shape[1]


def require_finite_positive(name: str, value: float) -> None:
    """Raise a ValueError that names the argument unless `value` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, not {value}")


def require_int(name: str, value) -> int:
    """`value` as an int; a ValueError that names it unless it is an integer
    type (int, numpy integer): a float is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


def require_positive_int(name: str, value) -> int:
    """`value` as an int; a ValueError that names the argument unless it is
    an integer type (int, numpy integer) >= 1. Floats are refused, 2.0 too."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be a positive integer, not {value}")
    return count


def require_count(name: str, value) -> int:
    """`value` as an int; a ValueError that names the argument unless it is
    a positive integer below INDEX_LIMIT, so it can size an array axis."""
    count = require_positive_int(name, value)
    if count >= INDEX_LIMIT:
        raise ValueError(f"{name} must be below 2^31, not {count}")
    return count


def require_seed(seed) -> int:
    """`seed` as an int, the one numpy is handed; a ValueError that names it
    unless it is an integer type >= 0."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed}")
    return value


def sample_grid(horizon: float, interval: float) -> np.ndarray:
    """Sample times 0, interval, 2*interval, ... up to horizon (within
    1e-9 of a step); `interval` must be finite and positive, and the grid
    at most 2^31 samples long."""
    require_finite_positive("sample_interval", interval)
    interval = float(interval)  # an int past 2^63 would overflow the int64 grid
    steps = horizon / interval + 1e-9
    if not steps < 2**31:  # inf and NaN too
        raise ValueError(f"horizon {horizon} / sample_interval {interval} asks for more than 2^31 samples")
    return np.arange(int(math.floor(steps)) + 1) * interval


@dataclass
class SteadyStateSummary:
    """Time-averaged occupancy per replica plus across-replica statistics."""

    replica_mean_qlen: np.ndarray
    replica_occupancy: np.ndarray
    mean_qlen: float
    mean_qlen_stderr: float
    occupancy_mean: np.ndarray
    occupancy_stderr: np.ndarray
    config: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return self.replica_occupancy.shape[1]


@dataclass
class CoupledRecord:
    """Joint path of a constrained system and its fully flexible twin.

    delta_series tracks the running count of arrivals routed to different
    queue lengths in the two systems; margin_series the smallest value of
    2*delta - sum_i |Q_i(flexible) - Q_i(constrained)| seen so far.
    """

    g_record: TrajectoryRecord
    k_record: TrajectoryRecord
    delta_series: np.ndarray
    margin_series: np.ndarray
    mismatch_count: int
    margin_min: int
    event_count: int
    arrival_count: int


# ---------------------------------------------------------------------------
# CSV I/O


def _cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return "" if x is None else str(x)


def write_table(path, metadata: dict, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the '#' metadata block, the header row and one line per row.

    Floats get 12 significant digits, None an empty cell, anything else
    str(). Rows are consumed before the file opens, so a row that raises
    leaves no partial file.
    """
    lines = [",".join(map(_cell, row)) + "\n" for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# artifact: {FORMAT_VERSION}\n")
        fh.writelines(f"# {key}: {value}\n" for key, value in metadata.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def level_columns(depth: int) -> list[str]:
    return [f"q{i}" for i in range(1, require_count("depth", depth) + 1)]


def trajectory_rows(record: TrajectoryRecord) -> Iterator[tuple]:
    """Rows (t, q1, ..., qK, overflow) of a trajectory record."""
    columns = (record.sample_times.tolist(), record.occupancy.tolist(), record.overflow.tolist())
    return ((t, *occ, over) for t, occ, over in zip(*columns))


def write_trajectory_csv(record: TrajectoryRecord, path, metadata: Optional[dict] = None) -> None:
    header = ["t", *level_columns(record.depth), "overflow"]
    write_table(path, metadata or {}, header, trajectory_rows(record))


def read_trajectory_csv(path) -> tuple[TrajectoryRecord, dict]:
    """Read a trajectory CSV and its '#' metadata block.

    A missing or foreign header, a ragged row, a non-numeric cell or no
    data row at all raises TrajectoryFormatError naming the file (and line).
    """
    meta: dict = {}
    header = None
    times, occ, over = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header is None:
                if line.startswith("#"):
                    body = line[1:].strip()
                    if ":" in body:
                        key, value = body.split(":", 1)
                        meta[key.strip()] = value.strip()
                    continue
                header = line.strip().split(",")
                if header[0] != "t" or header[-1] != "overflow":
                    raise TrajectoryFormatError(
                        f"{path}, line {lineno}: not a trajectory CSV (header {header[:3]}...)"
                    )
                width = len(header)
                continue
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != width:
                raise TrajectoryFormatError(
                    f"{path}, line {lineno}: expected {width} cells, found {len(parts)}"
                )
            try:
                times.append(float(parts[0]))
                occ.append([float(v) for v in parts[1:-1]])
                over.append(int(parts[-1]))
            except ValueError as exc:
                raise TrajectoryFormatError(f"{path}, line {lineno}: {exc}") from None
    if header is None:
        raise TrajectoryFormatError(f"{path}: no header row")
    if not times:
        raise TrajectoryFormatError(f"{path}: no data rows")
    record = TrajectoryRecord(
        sample_times=np.array(times),
        occupancy=np.array(occ).reshape(len(times), width - 2),
        overflow=np.array(over, dtype=np.int64),
    )
    return record, meta


def write_steady_csv(summary: SteadyStateSummary, path, metadata: Optional[dict] = None) -> None:
    meta = {
        **(metadata or {}),
        "mean_qlen": _cell(summary.mean_qlen),
        "mean_qlen_stderr": _cell(summary.mean_qlen_stderr),
    }
    means = summary.replica_mean_qlen.tolist()
    rows = ((r, means[r], *occ) for r, occ in enumerate(summary.replica_occupancy.tolist()))
    write_table(path, meta, ["replica", "mean_qlen", *level_columns(summary.depth)], rows)


def write_coupled_csv(coupled: CoupledRecord, path, metadata: Optional[dict] = None) -> None:
    rec = coupled.g_record
    header = ["t", *level_columns(rec.depth), "overflow", "delta", "margin_min_so_far"]
    delta, margin = coupled.delta_series.tolist(), coupled.margin_series.tolist()
    rows = ((*row, delta[s], margin[s]) for s, row in enumerate(trajectory_rows(rec)))
    write_table(path, metadata or {}, header, rows)


# ---------------------------------------------------------------------------
# trajectory comparison


def check_compatible_metadata(meta_a: dict, meta_b: dict) -> None:
    """Refuse comparison when lambda, d, or depth disagree."""
    for key in _COMPARE_KEYS:
        va, vb = meta_a.get(key), meta_b.get(key)
        if va is not None and vb is not None and va != vb:
            raise ValueError(f"metadata mismatch on {key!r}: {va} vs {vb}")


def compare_trajectories(
    a: TrajectoryRecord,
    b: TrajectoryRecord,
    levels: Optional[int] = None,
) -> tuple[float, float]:
    """(sup, l1) distances between two occupancy paths.

    sup is the largest |q_i^a(t) - q_i^b(t)| over sampled times and levels
    i <= `levels` (a positive integer); l1 the largest per-time sum over
    those levels. When the sample grids differ, b is linearly interpolated
    onto a's grid; the horizons must agree.
    """
    k = min(a.depth, b.depth)
    if levels is not None:
        k = min(k, require_positive_int("levels", levels))
    ta, tb = a.sample_times, b.sample_times
    if abs(ta[-1] - tb[-1]) > _TIME_TOL or abs(ta[0] - tb[0]) > _TIME_TOL:
        raise ValueError(
            f"trajectory horizons differ: [{ta[0]}, {ta[-1]}] vs [{tb[0]}, {tb[-1]}]"
        )
    if len(ta) == len(tb) and np.allclose(ta, tb, atol=_TIME_TOL, rtol=0):
        qb = b.occupancy[:, :k]
    else:
        qb = np.column_stack(
            [np.interp(ta, tb, b.occupancy[:, i]) for i in range(k)]
        )
    diff = np.abs(a.occupancy[:, :k] - qb)
    return float(diff.max()), float(diff.sum(axis=1).max())
