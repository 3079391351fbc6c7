"""Load-data ingestion, synthetic households, and forecast views.

A demand CSV holds whole days, as many as the file has;
:func:`slice_days` cuts an experiment's window from them.

A "forecast" here is just another :class:`~prepaid_ems.model.DemandSeries`:
perfect forecasts are the true series, imperfect ones have their days
shuffled, and limited-granularity forecasts are flattened to the daily
average power. Representing all of them as ordinary series means the
downstream optimizers need no special cases.
"""

import csv
import enum
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from prepaid_ems.model import DemandSeries, LoadSet, TimeGrid, daily_average
from prepaid_ems.rng import SplitMix64, permutation


class CsvError(ValueError):
    """A load CSV failed validation."""


class MissingColumn(CsvError):
    pass


class RowCountMismatch(CsvError):
    pass


class NegativePower(CsvError):
    pass


class UnparseableNumber(CsvError):
    pass


#: Timestamps in exported CSVs are informational only; the grid is
#: defined by configuration. A fixed epoch keeps exports deterministic.
_EXPORT_EPOCH = datetime(2000, 1, 1)


def ingest_csv(path, loads: LoadSet, step_minutes: int) -> DemandSeries:
    """Read a demand series of ``step_minutes`` steps from ``path``.

    Expected schema: header ``timestamp,<load1>,...,<loadK>`` with the
    loads in the same order as ``loads``, then one row per timestep,
    powers in W. The file sets the number of days: it must hold a
    positive whole number of days (:func:`slice_days` cuts a window from
    them). Any shape or value problem raises a :class:`CsvError`
    subclass naming the offending line; nothing is silently truncated or
    padded. A byte-order mark before the header is ignored.

    The file is read once. ``csv`` reads the header. When the data lines
    are plain (see :func:`_plain_power`) numpy's C reader parses their
    load columns in one call; when they are not, or that parse fails or
    yields a non-finite or negative value, ``csv`` splits the data rows
    and :func:`_parse_power` parses them cell by cell, and raises the
    error for the first offending line.
    """
    steps_per_day = TimeGrid.from_minutes(step_minutes, 1).steps_per_day
    expected_header = ["timestamp", *loads.names]
    with open(path, newline="") as fh:
        head = csv.reader(fh)
        header = next(head, None)
        if header is None:
            raise MissingColumn(f"{path}: empty file, expected header line")
        # A file saved with a byte-order mark starts with U+FEFF.
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        if header != expected_header:
            missing = [c for c in expected_header if c not in header]
            if missing:
                raise MissingColumn(
                    f"{path}:1: header is missing column(s) {missing}"
                )
            raise MissingColumn(
                f"{path}:1: header {header} does not match expected "
                f"{expected_header}"
            )
        body = fh.read()

    power = _plain_power(body, len(loads))
    if power is None:
        reader = csv.reader(io.StringIO(body, newline=""))
        # Each record with the body line it ends on.
        rows = [(row, reader.line_num) for row in reader]
        count = len(rows)
    else:
        count = power.shape[1]
    if not count or count % steps_per_day != 0:
        raise RowCountMismatch(
            f"{path}: {count} data rows is not a whole number of "
            f"{steps_per_day}-step days"
        )
    grid = TimeGrid.from_minutes(step_minutes, count // steps_per_day)
    if power is None:
        power = _parse_power(rows, head.line_num, loads, path)
    return DemandSeries(grid, power)


def _plain_power(body: str, num_loads: int) -> np.ndarray | None:
    """Power ``[load, step]`` of the data lines ``body``, parsed by
    numpy's C reader, or ``None`` if they are not plain or a value does
    not parse, is non-finite or is negative.

    Plain lines end in LF or CRLF, none is blank, each holds exactly
    ``num_loads`` commas (at least one), and none holds a quote, a ``#``
    or one of the separators U+001C-U+001F (whitespace to numpy, not to
    ``float``). Then each line is one ``csv`` row, and numpy reads each
    load cell as ``float`` does or fails.
    """
    if not (body and num_loads) or any(c in body for c in '"#\x1c\x1d\x1e\x1f'):
        return None
    # In UTF-8, LF, CR and the comma are single bytes that no other
    # character's encoding holds.
    text = np.frombuffer(body.encode(), dtype=np.uint8)
    lf = np.flatnonzero(text == ord("\n"))
    cr = np.flatnonzero(text == ord("\r"))
    if cr.size and not np.array_equal(cr + 1, lf):
        return None
    ends = lf if body.endswith("\n") else np.append(lf, text.size)
    # Commas before each line end: num_loads more per line.
    commas = np.searchsorted(np.flatnonzero(text == ord(",")), ends)
    if not np.array_equal(commas, num_loads * np.arange(1, ends.size + 1)):
        return None
    try:
        power = np.loadtxt(
            io.StringIO(body),
            delimiter=",",
            comments=None,
            usecols=range(1, num_loads + 1),
            ndmin=2,
        )
    except ValueError:
        return None
    if not (np.isfinite(power).all() and (power >= 0).all()):
        return None
    return np.ascontiguousarray(power.T)


def _parse_power(rows: list, header_lines: int, loads: LoadSet, path) -> np.ndarray:
    """Power ``[load, step]`` from the data rows' load columns, parsed
    cell by cell by ``float``.

    This runs for a file whose data lines are not plain, or whose plain
    lines numpy's C reader could not take (see :func:`ingest_csv`). It
    raises the error for the first offending record and column, naming
    the physical line the record starts on. ``rows`` pairs each record
    with the line of the body it ends on, and the header takes the
    file's first ``header_lines`` lines; a quoted field can span lines.
    """
    width = len(loads) + 1
    power = np.empty((len(loads), len(rows)))
    ended = 0
    for i, (row, end) in enumerate(rows):
        line, ended = header_lines + ended + 1, end
        if len(row) != width:
            raise MissingColumn(
                f"{path}:{line}: expected {width} fields, got {len(row)}"
            )
        for k, name in enumerate(loads.names):
            cell = row[k + 1]
            try:
                value = float(cell)
            except ValueError:
                raise UnparseableNumber(
                    f"{path}:{line}: column {name!r} has unparseable value "
                    f"{cell!r}"
                ) from None
            if not math.isfinite(value):
                raise UnparseableNumber(
                    f"{path}:{line}: column {name!r} has non-finite value {cell!r}"
                )
            if value < 0:
                raise NegativePower(
                    f"{path}:{line}: column {name!r} has negative power {value}"
                )
            power[k, i] = value
    return power


def export_csv(demand: DemandSeries, loads: LoadSet, path) -> None:
    """Write a series in the schema accepted by :func:`ingest_csv`."""
    if demand.num_loads != len(loads):
        raise ValueError(
            f"series has {demand.num_loads} loads, load set has {len(loads)}"
        )
    step = timedelta(hours=demand.grid.step_hours)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *loads.names])
        for t in range(demand.grid.total_steps):
            stamp = (_EXPORT_EPOCH + t * step).isoformat()
            writer.writerow([stamp, *(repr(float(v)) for v in demand.power[:, t])])


def day_permutation(num_days: int, seed: int) -> list[int]:
    """The day ordering used by :func:`shuffle_days` for this seed."""
    return permutation(num_days, SplitMix64(seed))


def shuffle_days(demand: DemandSeries, seed: int) -> DemandSeries:
    """Permute whole-day blocks of the series, deterministically per seed.

    Day ``i`` of the output is day ``perm[i]`` of the input, where
    ``perm`` comes from :func:`day_permutation`. The multiset of day
    blocks is preserved exactly.
    """
    grid = demand.grid
    perm = day_permutation(grid.num_days, seed)
    per_day = demand.power.reshape(demand.num_loads, grid.num_days, grid.steps_per_day)
    return DemandSeries(grid, per_day[:, perm, :].reshape(demand.num_loads, -1))


def to_limited(demand: DemandSeries) -> DemandSeries:
    """Flatten each load-day to its average power for all 24 hours.

    Total energy per load per day is preserved, so budgets computed from
    the limited view match those from the detailed one.
    """
    grid = demand.grid
    avg = daily_average(demand)
    flat = np.repeat(avg.power, grid.steps_per_day, axis=1)
    return DemandSeries(grid, flat)


def slice_days(demand: DemandSeries, start_day: int, num_days: int) -> DemandSeries:
    """Window of ``num_days`` whole days starting at ``start_day``."""
    grid = demand.grid
    if start_day < 0 or num_days <= 0 or start_day + num_days > grid.num_days:
        raise ValueError(
            f"cannot slice days [{start_day}, {start_day + num_days}) from a "
            f"{grid.num_days}-day series"
        )
    window = TimeGrid(grid.step_hours, grid.steps_per_day, num_days)
    lo = start_day * grid.steps_per_day
    hi = (start_day + num_days) * grid.steps_per_day
    return DemandSeries(window, demand.power[:, lo:hi])


class Fidelity(enum.Enum):
    PERFECT = "perfect"
    IMPERFECT_SHUFFLED = "imperfect"


class Granularity(enum.Enum):
    DETAILED = "detailed"
    LIMITED = "limited"


@dataclass(frozen=True)
class ForecastSpec:
    """One forecast regime: how accurate the view is and how fine."""

    fidelity: Fidelity
    granularity: Granularity
    shuffle_seed: int | None = None

    def __post_init__(self):
        if self.fidelity is Fidelity.IMPERFECT_SHUFFLED and self.shuffle_seed is None:
            raise ValueError("shuffled forecasts need a shuffle_seed")
        if self.fidelity is Fidelity.PERFECT and self.shuffle_seed is not None:
            raise ValueError("perfect forecasts take no shuffle_seed")

    @property
    def label(self) -> str:
        return f"{self.fidelity.value}-{self.granularity.value}"

    def apply(self, truth: DemandSeries) -> DemandSeries:
        """Build this regime's forecast view of the true series."""
        series = truth
        if self.fidelity is Fidelity.IMPERFECT_SHUFFLED:
            series = shuffle_days(series, self.shuffle_seed)
        if self.granularity is Granularity.LIMITED:
            series = to_limited(series)
        return series


@dataclass(frozen=True)
class ApplianceProfile:
    """Rectangular on/off usage model for one synthetic load."""

    rated_w: float
    on_probability: float
    mean_on_hours: float

    def __post_init__(self):
        if not (math.isfinite(self.rated_w) and self.rated_w >= 0):
            raise ValueError(f"rated_w must be non-negative, got {self.rated_w}")
        if not (0.0 <= self.on_probability <= 1.0):
            raise ValueError(
                f"on_probability must lie in [0, 1], got {self.on_probability}"
            )
        if not (0.0 <= self.mean_on_hours <= 24.0):
            raise ValueError(
                f"mean_on_hours must lie in [0, 24], got {self.mean_on_hours}"
            )


def synth_household(
    seed: int,
    loads: LoadSet,
    grid: TimeGrid,
    profiles: dict[str, ApplianceProfile],
) -> DemandSeries:
    """Generate a deterministic synthetic household series.

    Each load fires at most one rectangular block per day: with
    probability ``on_probability`` it is on for a duration drawn
    uniformly from ``[0.5, 1.5] * mean_on_hours`` (clipped to the day),
    starting at a uniform offset, at ``rated_w`` watts. Three draws are
    consumed per load-day regardless of the outcome, so streams stay
    aligned across parameter changes.
    """
    missing = [name for name in loads.names if name not in profiles]
    if missing:
        raise ValueError(f"no appliance profile for load(s) {missing}")
    rng = SplitMix64(seed)
    spd = grid.steps_per_day
    power = np.zeros((len(loads), grid.total_steps))
    for k, name in enumerate(loads.names):
        profile = profiles[name]
        for d in range(grid.num_days):
            u_on = rng.uniform()
            u_duration = rng.uniform()
            u_start = rng.uniform()
            if u_on >= profile.on_probability:
                continue
            duration_h = min(24.0, profile.mean_on_hours * (0.5 + u_duration))
            steps = round(duration_h / grid.step_hours)
            steps = min(max(steps, 0), spd)
            if steps == 0 or profile.rated_w == 0:
                continue
            start = int(u_start * (spd - steps + 1))
            lo = d * spd + start
            power[k, lo : lo + steps] = profile.rated_w
    return DemandSeries(grid, power)
