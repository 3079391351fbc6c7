"""Discrete-time wallet simulator.

This is the ground truth every policy is judged against: step through
the horizon, serve whatever the policy's enable rules allow, pay for
the served energy, and disconnect permanently once the prepaid balance
is gone.

Semantics shared by all entry points:

* balances are checked at the start of a step, before that step's
  energy is paid for; a step that overdraws the wallet is still served
  if the balance was positive when it began (one-step overshoot)
* a load is only ever served where it actually has demand
* once the real balance is <= 0 at a step start, everything stays off
  for the rest of the horizon (prepaid disconnection, no reconnection)

Balance traces record start-of-step values, matching the convention
used by the threshold optimizer's wallet variables; the end-of-horizon
balances are carried separately.

One kernel runs every entry point, for a stack of plans at once, and
moves from event to event rather than step by step. It splits the
horizon into spans: a day for threshold plans, the whole horizon for
schedules. Within a span the virtual balance never rises, so a load is
on from the span start until its threshold first trips and stays off
after it; nothing runs from the first step that starts with a real
balance <= 0. Between two such events the set of enabled loads is
fixed, so each step's cost is a column sum over the enabled loads and
both balances are running differences, paid in step order exactly as a
step-by-step loop pays them. A step's cost sums the enabled loads left
to right. numpy sums 8 or more elements pairwise, so with 8 or more
loads the last bits can differ from a loop that sums the served loads
with ``ndarray.sum``.
"""

from dataclasses import dataclass

import numpy as np

from prepaid_ems.afg import ThresholdPlan
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    demand_indicator,
    psf,
)


class PlanShapeMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run."""

    actuation: np.ndarray  # [load, timestep], 0/1
    real_balance_trace: np.ndarray  # start-of-step, $
    virtual_balance_trace: np.ndarray | None  # start-of-step, $; None without a virtual wallet
    final_real_balance: float
    final_virtual_balance: float | None
    sf: np.ndarray  # per-load service factor, NaN where never demanded
    psf: float
    total_spend: float
    disconnection_days: int
    first_disconnect_step: int | None


def count_disconnection_days(real_balance_trace: np.ndarray, grid: TimeGrid) -> int:
    """Whole calendar days with a non-positive balance at every step."""
    trace = np.asarray(real_balance_trace, dtype=float)
    if trace.shape != (grid.total_steps,):
        raise ShapeMismatch(
            f"trace has {trace.shape[0] if trace.ndim == 1 else trace.shape} "
            f"entries, grid has {grid.total_steps} steps"
        )
    days = trace.reshape(grid.num_days, grid.steps_per_day)
    return int((days <= 0).all(axis=1).sum())


def _finalize(
    truth: DemandSeries,
    loads: LoadSet,
    budget: Budget,
    actuation: np.ndarray,
    z_trace: np.ndarray,
    x_trace: np.ndarray | None,
    final_real: float,
    final_virtual: float | None,
    total_spend: float,
) -> SimResult:
    sf, value = psf(actuation, demand_indicator(truth), loads)
    below = np.flatnonzero(z_trace <= 0)
    first_disconnect = int(below[0]) if below.size else None
    actuation.setflags(write=False)
    z_trace.setflags(write=False)
    if x_trace is not None:
        x_trace.setflags(write=False)
    return SimResult(
        actuation=actuation,
        real_balance_trace=z_trace,
        virtual_balance_trace=x_trace,
        final_real_balance=final_real,
        final_virtual_balance=final_virtual,
        sf=sf,
        psf=value,
        total_spend=total_spend,
        disconnection_days=count_disconnection_days(z_trace, truth.grid),
        first_disconnect_step=first_disconnect,
    )


def _running(start: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Balances ``[plan, step + 1]`` from ``start`` as ``cost[plan, step]``
    is paid, subtracted in step order."""
    return np.subtract.accumulate(
        np.concatenate([start[:, None], cost], axis=1), axis=1
    )


def _simulate(power, thresholds, recharges, cost_factor, balance):
    """Simulate a stack of plans at once, event to event.

    ``power[1 or plan, load, step]`` is the demand each plan may serve,
    ``thresholds[plan, load, span]`` and ``recharges[1 or plan, span]``
    its virtual wallet; the spans split the horizon evenly. Returns the
    actuation ``[plan, load, step]`` (bool), the start-of-step real and
    virtual balances ``[plan, step]``, and the final real balance,
    virtual balance and spend ``[plan]``.
    """
    plans, num_loads, num_spans = thresholds.shape
    n = power.shape[-1] // num_spans
    step = np.arange(n)
    actuation = np.empty((plans, num_loads, n * num_spans), dtype=bool)
    z_trace = np.empty((plans, n * num_spans))
    x_trace = np.empty((plans, n * num_spans))
    real = np.full(plans, float(balance))
    virtual = np.zeros(plans)
    spend = np.zeros(plans)
    for s in range(num_spans):
        span = slice(s * n, (s + 1) * n)
        w = power[..., span]
        thr = thresholds[..., s]
        virtual = virtual + recharges[:, s]
        # off[p, k]: the step of the span from which load k stays off
        off = np.where((virtual[:, None] >= thr) & (real[:, None] > 0), n, 0)
        while True:
            on = step < off[..., None]
            cost = cost_factor * np.where(on, w, 0.0).sum(axis=1)
            z = _running(real, cost)
            x = _running(virtual, cost)
            # Both balances only fall, so counting the steps that pass a
            # test finds where it first fails: a load's first step below
            # its threshold, and the first step begun with no money.
            # Only the earliest of these events per plan is certain; the
            # ones after it move once its load is off. A load already
            # off, or an empty wallet with every load off, is no event.
            cross = (x[:, :n, None] >= thr[:, None, :]).sum(axis=1)
            cross[cross >= off] = n
            dark = (z[:, :n] > 0).sum(axis=1)
            dark[dark >= off.max(axis=1, initial=0)] = n
            event = np.minimum(cross.min(axis=1, initial=n), dark)
            if (event == n).all():
                break
            hit = (cross == event[:, None]) | (dark == event)[:, None]
            off = np.where(hit, np.minimum(off, event[:, None]), off)
        actuation[..., span] = on & (w > 0)
        z_trace[:, span] = z[:, :n]
        x_trace[:, span] = x[:, :n]
        real, virtual = z[:, n], x[:, n]
        spend = np.add.accumulate(
            np.concatenate([spend[:, None], cost], axis=1), axis=1
        )[:, n]
    return actuation, z_trace, x_trace, real, virtual, spend


def simulate_thresholds(
    plan: ThresholdPlan,
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> SimResult:
    """Run a threshold plan against true demand.

    The virtual wallet starts empty and receives the day's recharge at
    each day start. A load is enabled at a step iff the virtual balance
    has stayed at or above its threshold for the day so far and the
    real wallet is still positive. Both wallets pay for every served
    step.
    """
    num_loads = truth.num_loads
    grid = truth.grid
    if plan.thresholds.shape[0] != num_loads or plan.thresholds.shape[0] != len(loads):
        raise PlanShapeMismatch(
            f"plan covers {plan.thresholds.shape[0]} loads, expected {len(loads)}"
        )
    if plan.num_days != grid.num_days:
        raise PlanShapeMismatch(
            f"plan covers {plan.num_days} days, the horizon has {grid.num_days}"
        )
    actuation, z, x, real, virtual, spend = _simulate(
        truth.power[None],
        plan.thresholds[None],
        plan.recharges[None],
        tariff.alpha * grid.step_hours,
        budget.initial_balance,
    )
    return _finalize(
        truth,
        loads,
        budget,
        actuation[0].astype(np.int8),
        z[0],
        x[0],
        float(real[0]),
        float(virtual[0]),
        float(spend[0]),
    )


def threshold_psf(
    thresholds: np.ndarray,
    recharges: np.ndarray,
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> np.ndarray:
    """PSF of each plan in ``thresholds[plan, load, day]``, all sharing
    ``recharges[day]``, simulated at once. Entry ``p`` equals the
    ``psf`` of ``simulate_thresholds`` on plan ``p``."""
    actuation = _simulate(
        truth.power[None],
        thresholds,
        recharges[None],
        tariff.alpha * truth.grid.step_hours,
        budget.initial_balance,
    )[0]
    return psf(actuation, demand_indicator(truth), loads)[1]


def simulate_schedule(
    schedule: np.ndarray,
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> SimResult:
    """Run a fixed on/off schedule against true demand.

    A scheduled step is served only where demand actually occurs, and
    only while the prepaid wallet holds out; a schedule computed from a
    wrong forecast simply burns its budget at the wrong times.
    """
    sched = np.asarray(schedule)
    if sched.shape != truth.power.shape:
        raise ShapeMismatch(
            f"schedule shape {sched.shape} != demand shape {truth.power.shape}"
        )
    if not np.isin(sched, (0, 1)).all():
        raise ShapeMismatch("schedule must be a binary matrix")

    # One span over the whole horizon whose thresholds never bind: only
    # the schedule and the real wallet switch loads off.
    actuation, z, _, real, _, spend = _simulate(
        (truth.power * (sched == 1))[None],
        np.full((1, truth.num_loads, 1), -np.inf),
        np.zeros((1, 1)),
        tariff.alpha * truth.grid.step_hours,
        budget.initial_balance,
    )
    return _finalize(
        truth,
        loads,
        budget,
        actuation[0].astype(np.int8),
        z[0],
        None,
        float(real[0]),
        None,
        float(spend[0]),
    )


def simulate_baseline(
    truth: DemandSeries, loads: LoadSet, tariff: Tariff, budget: Budget
) -> SimResult:
    """Unrationed use: serve all demand until the wallet is empty."""
    if truth.num_loads != len(loads):
        raise ShapeMismatch(
            f"series has {truth.num_loads} loads, load set has {len(loads)}"
        )
    return simulate_schedule(
        np.ones_like(truth.power, dtype=np.int8), truth, loads, tariff, budget
    )


def _run_reprs(trace: np.ndarray) -> list[str]:
    """``repr`` of every entry of a float trace, computed once per run of
    equal bit patterns (so ``-0.0`` after ``0.0`` starts a new run)."""
    trace = np.ascontiguousarray(trace, dtype=float)
    bits = trace.view(np.int64)
    starts = np.flatnonzero(np.concatenate([[True], bits[1:] != bits[:-1]]))
    texts = np.array(list(map(repr, trace[starts].tolist())), dtype=object)
    return np.repeat(texts, np.diff(starts, append=trace.size)).tolist()


def write_trace_csv(result: SimResult, loads: LoadSet, path) -> None:
    """Per-step trace: balances and per-load actuation.

    The bytes are those of ``csv.writer`` writing the header
    ``t,real_balance,virtual_balance,a_<load>...`` and then one row per
    step: the step index, ``repr`` of the start-of-step real and virtual
    balances (the virtual field is empty for a result without a virtual
    wallet, i.e. a schedule), and each load's actuation as 0 or 1. Every
    line ends in ``\\r\\n``.

    No body field needs quoting, so the body is built in one ``%``
    format: balances are ``repr``-ed once per run of equal values and
    the actuation columns come from one label per on/off pattern that
    occurs.
    """
    import csv

    num_loads, total = result.actuation.shape
    # Each step's on/off pattern as one byte string of '0'/'1' digits.
    digits = np.asarray(result.actuation, dtype=np.uint8).T + np.uint8(ord("0"))
    patterns, which = np.unique(
        np.ascontiguousarray(digits).view(f"S{num_loads}"), return_inverse=True
    )
    labels = np.array([",".join(p.decode()) for p in patterns.tolist()], dtype=object)
    virtual = result.virtual_balance_trace
    fields = [None] * (4 * total)
    fields[0::4] = range(total)
    fields[1::4] = _run_reprs(result.real_balance_trace)
    fields[2::4] = [""] * total if virtual is None else _run_reprs(virtual)
    fields[3::4] = labels[which.reshape(-1)].tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["t", "real_balance", "virtual_balance", *(f"a_{n}" for n in loads.names)]
        )
        fh.write("%d,%s,%s,%s\r\n" * total % tuple(fields))


def write_summary_csv(result: SimResult, loads: LoadSet, path) -> None:
    """One-run summary: service factors, spend, disconnection count."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["psf", repr(result.psf)])
        writer.writerow(["total_spend", repr(result.total_spend)])
        writer.writerow(["disconnection_days", result.disconnection_days])
        writer.writerow(
            [
                "first_disconnect_step",
                "" if result.first_disconnect_step is None else result.first_disconnect_step,
            ]
        )
        for k, name in enumerate(loads.names):
            writer.writerow([f"sf_{name}", repr(float(result.sf[k]))])
