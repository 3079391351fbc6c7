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

#: Pruning slack of the OBM and DFM searches, as a share of the total
#: value on offer. Their bounds are float sums, whose relative error is
#: at most about (items) x 2**-53, some 1e-12 at 10^4 items; a bound
#: computed a hair low must never prune an optimum, so a branch is kept
#: until its bound falls this far below the best value found.
BOUND_SLACK = 1e-9

#: Added on top of the recharges summed through a day to pin a disabled
#: load's threshold above any balance the virtual wallet can reach that
#: day, unspent balance carried over from earlier days included.
THRESHOLD_MARGIN = 1e-4


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
            raise ValueError(f"tariff must be positive finite, got {self.alpha}")


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
        if not np.isfinite(power).all():
            raise ValueError("power contains non-finite entries")
        if (power < 0).any():
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
        if not np.isfinite(power).all() or (power < 0).any():
            raise ValueError("daily averages must be finite and non-negative")
        power.setflags(write=False)
        object.__setattr__(self, "power", power)


@dataclass(frozen=True)
class ThresholdPlan:
    """Control setpoints for the wallet simulator: per-day virtual
    recharges and per-load per-day disable thresholds, in dollars."""

    thresholds: np.ndarray  # [load, day], $
    recharges: np.ndarray  # [day], $

    def __post_init__(self):
        thr = np.array(self.thresholds, dtype=float)
        rec = np.array(self.recharges, dtype=float)
        if thr.ndim != 2 or rec.ndim != 1 or thr.shape[1] != rec.shape[0]:
            raise ValueError(
                f"thresholds {thr.shape} must be [load, day] with one recharge "
                f"per day, got {rec.shape}"
            )
        if not (np.isfinite(thr).all() and np.isfinite(rec).all()):
            raise ValueError("thresholds and recharges must be finite")
        if (thr < 0).any():
            raise ValueError("thresholds must be non-negative")
        if (rec < 0).any():
            raise ValueError("recharges must be non-negative")
        thr.setflags(write=False)
        rec.setflags(write=False)
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "recharges", rec)

    @property
    def num_days(self) -> int:
        return self.recharges.shape[0]


def pinned_off(recharges: np.ndarray) -> np.ndarray:
    """Per-day threshold that keeps a load off: just above the recharges
    summed through that day, the most the virtual wallet can hold."""
    return np.cumsum(recharges, axis=-1) + THRESHOLD_MARGIN


def _step_costs(served, demand: DemandSeries, tariff: Tariff) -> np.ndarray:
    """What the actuations ``served[..., load, step]`` cost on ``demand``,
    as ``[..., day, step of the day]``."""
    grid = demand.grid
    cost = tariff.alpha * grid.step_hours * (demand.power * served).sum(axis=-2)
    return cost.reshape(*cost.shape[:-1], grid.num_days, grid.steps_per_day)


def mid_band_thresholds(
    served: np.ndarray, demand: DemandSeries, tariff: Tariff, recharges: np.ndarray
) -> np.ndarray:
    """Threshold matrix ``[load, day]`` that makes the simulator repeat
    the actuation ``served[load, step]`` on ``demand``, with
    ``recharges`` the daily recharges; or a stack of them, one per plan
    of ``served[plan, load, step]`` and ``recharges[plan, day]``.

    The actuation is paid for on ``demand``, and each load-day's
    threshold goes mid-band: halfway between the virtual balance at the
    start of the load's last served step and the balance after paying
    for it, the next lower one the view reaches. A load-day never
    served is pinned off. This is the one decoder of the threshold
    policies: DFM decodes its counts with it, AFG its whole steps.
    """
    grid = demand.grid
    num_loads, num_days, n = demand.num_loads, grid.num_days, grid.steps_per_day
    stacked = np.ndim(served) == 3
    served = np.asarray(served, dtype=bool).reshape(-1, num_loads, num_days, n)
    recharges = np.reshape(recharges, (len(served), num_days))
    flat = served.reshape(len(served), num_loads, grid.total_steps)
    cost = _step_costs(flat, demand, tariff)
    # Virtual balance at each day start, and what the day has paid before
    # each of its steps and after its last: [plan, day, step].
    spent = np.cumsum(cost.sum(axis=2), axis=1)
    before = np.concatenate([np.zeros_like(spent[:, :1]), spent[:, :-1]], axis=1)
    start = np.cumsum(recharges, axis=1) - before
    paid = np.cumsum(cost, axis=2)
    paid = np.concatenate([np.zeros_like(paid[..., :1]), paid], axis=2)
    # The last served step is the first in reverse order.
    last = n - 1 - np.argmax(np.ascontiguousarray(served[..., ::-1]), axis=3)
    plan, day = np.arange(len(served))[:, None, None], np.arange(num_days)
    top = start[plan, day] - paid[plan, day, last]
    bottom = start[plan, day] - paid[plan, day, last + 1]
    mid = np.maximum((top + bottom) / 2, 0.0)
    off = pinned_off(recharges)[:, None, :]
    thresholds = np.where(served.any(axis=3), mid, off)
    return thresholds if stacked else thresholds[0]


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
