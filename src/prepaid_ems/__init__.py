"""Energy rationing for prepaid electricity customers.

The package implements three rationing policies that decide which
household loads to serve from a limited prepaid wallet balance, a
discrete-time wallet simulator used to evaluate them against true
demand, and an experiment harness that sweeps budget levels and
forecast regimes:

* ``AFG`` -- average-forecast greedy: needs only daily average power
  per load, solved exactly by a fractional-knapsack greedy pass.
* ``DFM`` -- detailed-forecast MILP: optimizes per-day wallet
  thresholds against per-timestep demand forecasts, each day recharged
  with what the plan spends that day as in AFG, solved exactly by a
  dynamic program over per-day served counts.
* ``OBM`` -- optimal benchmark MILP: directly schedules every load at
  every timestep. Under perfect detailed forecasts it bounds every plan
  that keeps the real balance at or above the budget's margin, which
  AFG does not (K4 in ROADMAP.md: AFG can overdraw by part of a step).
* ``BSL`` -- unrationed baseline: serve everything until the wallet
  runs dry.
"""

from prepaid_ems.model import (
    Budget,
    DailyAverageDemand,
    DemandSeries,
    Load,
    LoadSet,
    Tariff,
    TimeGrid,
    compute_budget,
    daily_average,
    demand_indicator,
    psf,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "DailyAverageDemand",
    "DemandSeries",
    "Load",
    "LoadSet",
    "Tariff",
    "TimeGrid",
    "compute_budget",
    "daily_average",
    "demand_indicator",
    "psf",
    "__version__",
]
