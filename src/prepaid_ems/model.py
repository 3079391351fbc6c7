"""Core domain types and service metrics.

Conventions used throughout the package:

* power is in watts, energy in watt-hours, money in dollars
* the electricity rate is a flat dollars-per-watt-hour tariff
* a horizon is a whole number of days, each day split into equal steps
* matrices are dense numpy arrays indexed ``[load, timestep]`` or
  ``[load, day]``

Household instances are small (tens of loads, a month of 15-minute
steps), so every type here is an immutable value object: cheap to copy,
safe to share between concurrently evaluated scenarios.
"""

import math
from dataclasses import dataclass

import numpy as np

#: Fraction of the wallet balance held back by every policy whose spend
#: must stay strictly below the balance. A strict inequality has no
#: attained optimum, so plans target ``balance * (1 - BUDGET_MARGIN)``;
#: the leftover sliver keeps the real wallet positive through the last
#: planned step.
BUDGET_MARGIN = 1e-9


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Load:
    """A named appliance with a positive priority weight."""

    name: str
    gamma: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("load name must be non-empty")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(
                f"priority factor for {self.name!r} must be a positive finite "
                f"number, got {self.gamma}"
            )


@dataclass(frozen=True)
class LoadSet:
    """Ordered collection of loads; order fixes the row index of every
    demand matrix in the package."""

    loads: tuple[Load, ...]

    def __post_init__(self):
        names = [load.name for load in self.loads]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate load names: {dupes}")

    @classmethod
    def from_pairs(cls, pairs) -> "LoadSet":
        return cls(tuple(Load(name, gamma) for name, gamma in pairs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(load.name for load in self.loads)

    @property
    def gammas(self) -> np.ndarray:
        return _frozen([load.gamma for load in self.loads])

    def __len__(self) -> int:
        return len(self.loads)

    def __iter__(self):
        return iter(self.loads)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization: ``num_days`` days of
    ``steps_per_day`` steps, each ``step_hours`` hours long."""

    step_hours: float
    steps_per_day: int
    num_days: int

    def __post_init__(self):
        if not (math.isfinite(self.step_hours) and self.step_hours > 0):
            raise ValueError(f"step_hours must be positive, got {self.step_hours}")
        if self.steps_per_day <= 0 or self.num_days <= 0:
            raise ValueError("steps_per_day and num_days must be positive")
        if abs(self.step_hours * self.steps_per_day - 24.0) > 1e-12:
            raise ValueError(
                f"{self.steps_per_day} steps of {self.step_hours} h do not "
                f"make a 24 h day"
            )

    @classmethod
    def from_minutes(cls, step_minutes: int, num_days: int) -> "TimeGrid":
        if step_minutes <= 0 or 1440 % step_minutes != 0:
            raise ValueError(
                f"step_minutes must divide 1440 evenly, got {step_minutes}"
            )
        return cls(step_minutes / 60.0, 1440 // step_minutes, num_days)

    @property
    def total_steps(self) -> int:
        return self.steps_per_day * self.num_days

    def day_of(self, t: int) -> int:
        return t // self.steps_per_day


@dataclass(frozen=True)
class Tariff:
    """Flat electricity rate in dollars per watt-hour."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"tariff must be positive, got {self.alpha}")


@dataclass(frozen=True)
class Budget:
    """Initial real wallet balance in dollars."""

    initial_balance: float

    def __post_init__(self):
        if not (math.isfinite(self.initial_balance) and self.initial_balance >= 0):
            raise ValueError(
                f"initial balance must be non-negative, got {self.initial_balance}"
            )


def effective_budget(budget: Budget) -> float:
    """Spendable amount for policies whose total cost must stay strictly
    below the wallet balance."""
    return budget.initial_balance * (1.0 - BUDGET_MARGIN)


@dataclass(frozen=True)
class DemandSeries:
    """Per-load power demand on a uniform time grid, W."""

    grid: TimeGrid
    power: np.ndarray  # [load, timestep]

    def __post_init__(self):
        power = np.array(self.power, dtype=float)
        if power.ndim != 2:
            raise ValueError(f"power must be 2-D [load, timestep], got {power.ndim}-D")
        if power.shape[1] != self.grid.total_steps:
            raise ValueError(
                f"power has {power.shape[1]} timesteps but the grid has "
                f"{self.grid.total_steps}"
            )
        if not np.all(np.isfinite(power)):
            raise ValueError("power contains non-finite entries")
        if np.any(power < 0):
            k, t = np.argwhere(power < 0)[0]
            raise ValueError(f"negative power {power[k, t]} at load {k}, step {t}")
        power.setflags(write=False)
        object.__setattr__(self, "power", power)

    @property
    def num_loads(self) -> int:
        return self.power.shape[0]


@dataclass(frozen=True)
class DailyAverageDemand:
    """Average power demand per load per day, W."""

    power: np.ndarray  # [load, day]

    def __post_init__(self):
        power = np.array(self.power, dtype=float)
        if power.ndim != 2:
            raise ValueError(f"power must be 2-D [load, day], got {power.ndim}-D")
        if not np.all(np.isfinite(power)) or np.any(power < 0):
            raise ValueError("daily averages must be finite and non-negative")
        power.setflags(write=False)
        object.__setattr__(self, "power", power)

    @property
    def num_days(self) -> int:
        return self.power.shape[1]


def compute_budget(demand: DemandSeries, tariff: Tariff, fraction: float) -> Budget:
    """Wallet balance covering ``fraction`` of the total energy cost of
    ``demand``.

    Returns ``fraction * alpha * step_hours * sum(power)`` dollars.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    total_energy_wh = demand.grid.step_hours * float(demand.power.sum())
    return Budget(fraction * tariff.alpha * total_energy_wh)


def demand_indicator(demand: DemandSeries) -> np.ndarray:
    """Binary matrix marking the timesteps with strictly positive demand.

    The comparison is exact (no tolerance); cleaning of near-zero sensor
    readings belongs in ingestion, not here.
    """
    return _frozen(demand.power > 0, dtype=np.int8)


def daily_average(demand: DemandSeries) -> DailyAverageDemand:
    """Collapse a series to average power per load per day: the day's
    energy divided by 24 h."""
    grid = demand.grid
    k = demand.num_loads
    per_day = demand.power.reshape(k, grid.num_days, grid.steps_per_day)
    energy_wh = per_day.sum(axis=2) * grid.step_hours
    return DailyAverageDemand(energy_wh / 24.0)


def psf(
    actuation: np.ndarray, indicator: np.ndarray, loads: LoadSet
) -> tuple[np.ndarray, float]:
    """Per-load service factors and their priority-weighted sum.

    The service factor of a load is the fraction of its demanded
    timesteps that were actually served. Loads that were never demanded
    have no meaningful ratio; their service factor is reported as NaN
    and they are excluded from the weighted sum.

    ``actuation`` may stack several plans on a leading axis
    (``[plan, load, timestep]``); the service factors and PSF then come
    back per plan, the PSF as an array.

    Raises ``ValueError`` if a load is marked served where there was no
    demand -- that is a simulator bug, not a data condition.
    """
    a = np.asarray(actuation)
    d = np.asarray(indicator)
    if a.shape[-2:] != d.shape:
        raise ValueError(f"actuation shape {a.shape} != indicator shape {d.shape}")
    if d.shape[0] != len(loads):
        raise ValueError(f"expected {len(loads)} loads, got {d.shape[0]} rows")
    # Each check holds at most one temporary the size of the stack.
    if np.count_nonzero(a == 0) + np.count_nonzero(a == 1) != a.size:
        raise ValueError("actuation matrix must be binary")
    excess = a == 1
    excess &= d == 0
    if excess.any():
        k, t = np.argwhere(excess)[0][-2:]
        raise ValueError(
            f"load {loads.names[k]!r} marked served at step {t} without demand"
        )
    served = a.sum(axis=-1, dtype=float)
    demanded = d.sum(axis=1, dtype=float)
    sf = np.full(served.shape, np.nan)
    mask = demanded > 0
    sf[..., mask] = served[..., mask] / demanded[mask]
    # Contiguous rows, so that numpy sums each plan's row as it sums a
    # single plan's (pairwise from 8 loads on).
    weighted = loads.gammas[mask] * np.ascontiguousarray(sf[..., mask])
    value = weighted.sum(axis=-1)
    sf.setflags(write=False)
    return sf, float(value) if a.ndim == 2 else value
