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
horizon into spans, one a day (or one for the whole horizon, for
schedules on one-step days). Within a span the virtual balance never
rises, so a load is on from the span start until its threshold first
trips and stays off after it; nothing runs from the first step that
starts with a real balance <= 0. A schedule runs as a plan whose
thresholds never trip, masked by its on/off steps. Between two such
events the set of enabled loads is fixed, so each step's cost is a
column sum over the enabled loads and both balances are running
differences, paid in step order exactly as a step-by-step loop pays
them. A step's cost sums the enabled loads left to right, except in
spans of one step, where numpy sums 8 or more loads pairwise; so with
8 or more loads the last bits can differ from a loop that sums the
served loads with ``ndarray.sum``.

The stacked entry points, :func:`simulate_threshold_plans` and
:func:`simulate_schedules`, run any number of plans that share the true
demand, the tariff and the budget in one kernel pass and score them
with one ``psf`` call. Schedules reach the kernel as 0/1 masks on the
shared demand, so a stack holds no per-plan copy of it. Each plan's
result is the same, bit for bit, as a pass of that plan alone:
:func:`simulate_thresholds`, :func:`simulate_schedule` and
:func:`simulate_baseline` are such one-plan passes. An experiment
plans all cells of a budget fraction first and then simulates them in
two such passes, one per kind of plan.
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
    actuation: np.ndarray,
    z_trace: np.ndarray,
    x_trace: np.ndarray | None,
    final_real: np.ndarray,
    final_virtual: np.ndarray | None,
    total_spend: np.ndarray,
) -> list[SimResult]:
    """One :class:`SimResult` per plan of a kernel pass, scored with one
    ``psf`` call over the whole stack. ``x_trace`` and ``final_virtual``
    are ``None`` for plans without a virtual wallet."""
    sf, value = psf(actuation, demand_indicator(truth), loads)
    for trace in (actuation, z_trace, x_trace):
        if trace is not None:
            trace.setflags(write=False)
    results = []
    for p, z in enumerate(z_trace):
        below = np.flatnonzero(z <= 0)
        results.append(
            SimResult(
                actuation=actuation[p],
                real_balance_trace=z,
                virtual_balance_trace=None if x_trace is None else x_trace[p],
                final_real_balance=float(final_real[p]),
                final_virtual_balance=(
                    None if final_virtual is None else float(final_virtual[p])
                ),
                sf=sf[p],
                psf=float(value[p]),
                total_spend=float(total_spend[p]),
                disconnection_days=count_disconnection_days(z, truth.grid),
                first_disconnect_step=int(below[0]) if below.size else None,
            )
        )
    return results


def _running(start: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Balances ``[plan, step + 1]`` from ``start`` as ``cost[plan, step]``
    is paid, subtracted in step order."""
    return np.subtract.accumulate(
        np.concatenate([start[:, None], cost], axis=1), axis=1
    )


def _simulate(power, thresholds, recharges, cost_factor, balance, mask=None):
    """Simulate a stack of plans at once, event to event.

    ``power[load, step]`` is the demand every plan may serve and
    ``mask[plan, load, step]`` (bool), if given, the steps each plan's
    schedule may serve; ``thresholds[plan, load, span]`` and
    ``recharges[1 or plan, span]`` are each plan's virtual wallet; the
    spans split the horizon evenly. Returns the actuation
    ``[plan, load, step]`` (0/1 int8), the start-of-step real and virtual
    balances ``[plan, step]``, and the final real balance, virtual
    balance and spend ``[plan]``.
    """
    plans, num_loads, num_spans = thresholds.shape
    n = power.shape[-1] // num_spans
    step = np.arange(n)
    actuation = np.empty((plans, num_loads, n * num_spans), dtype=np.int8)
    z_trace = np.empty((plans, n * num_spans))
    x_trace = np.empty((plans, n * num_spans))
    real = np.full(plans, float(balance))
    virtual = np.zeros(plans)
    spend = np.zeros(plans)
    for s in range(num_spans):
        span = slice(s * n, (s + 1) * n)
        w = power[:, span]
        scheduled = None if mask is None else mask[..., span]
        thr = thresholds[..., s]
        virtual = virtual + recharges[:, s]
        # off[p, k]: the step of the span from which load k stays off
        off = np.where((virtual[:, None] >= thr) & (real[:, None] > 0), n, 0)
        while True:
            on = step < off[..., None]
            if scheduled is not None:
                on &= scheduled
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


def simulate_threshold_plans(
    plans: list[ThresholdPlan],
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> list[SimResult]:
    """Run threshold plans against true demand, all in one kernel pass.

    The virtual wallet starts empty and receives the day's recharge at
    each day start. A load is enabled at a step iff the virtual balance
    has stayed at or above its threshold for the day so far and the
    real wallet is still positive. Both wallets pay for every served
    step. Entry ``p`` of the result is plan ``p``'s run, the same as
    ``simulate_thresholds`` on it alone.
    """
    num_loads = truth.num_loads
    num_days = truth.grid.num_days
    for plan in plans:
        covered = plan.thresholds.shape[0]
        if covered != num_loads or covered != len(loads):
            raise PlanShapeMismatch(
                f"plan covers {covered} loads, expected {len(loads)}"
            )
        if plan.num_days != num_days:
            raise PlanShapeMismatch(
                f"plan covers {plan.num_days} days, the horizon has {num_days}"
            )
    if not plans:
        return []
    actuation, z, x, real, virtual, spend = _simulate(
        truth.power,
        np.stack([plan.thresholds for plan in plans]),
        np.stack([plan.recharges for plan in plans]),
        tariff.alpha * truth.grid.step_hours,
        budget.initial_balance,
    )
    return _finalize(truth, loads, actuation, z, x, real, virtual, spend)


def simulate_thresholds(
    plan: ThresholdPlan,
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> SimResult:
    """Run one threshold plan; see :func:`simulate_threshold_plans`."""
    return simulate_threshold_plans([plan], truth, loads, tariff, budget)[0]


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
        truth.power,
        thresholds,
        recharges[None],
        tariff.alpha * truth.grid.step_hours,
        budget.initial_balance,
    )[0]
    return psf(actuation, demand_indicator(truth), loads)[1]


def simulate_schedules(
    schedules: list[np.ndarray],
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> list[SimResult]:
    """Run fixed on/off schedules against true demand, all in one kernel
    pass.

    A scheduled step is served only where demand actually occurs, and
    only while the prepaid wallet holds out; a schedule computed from a
    wrong forecast simply burns its budget at the wrong times. Entry
    ``p`` of the result is schedule ``p``'s run, the same as
    ``simulate_schedule`` on it alone.
    """
    masks = []
    for schedule in schedules:
        sched = np.asarray(schedule)
        if sched.shape != truth.power.shape:
            raise ShapeMismatch(
                f"schedule shape {sched.shape} != demand shape {truth.power.shape}"
            )
        if not ((sched == 0) | (sched == 1)).all():
            raise ShapeMismatch("schedule must be a binary matrix")
        masks.append(sched == 1)
    if not masks:
        return []
    # Thresholds that never bind: only the schedule and the real wallet
    # switch loads off. Day-long spans keep the kernel's arrays small; a
    # one-step span would make numpy sum the loads pairwise rather than
    # left to right, so one-step days run as one span.
    grid = truth.grid
    spans = grid.num_days if grid.steps_per_day > 1 else 1
    actuation, z, _, real, _, spend = _simulate(
        truth.power,
        np.full((len(masks), truth.num_loads, spans), -np.inf),
        np.zeros((1, spans)),
        tariff.alpha * grid.step_hours,
        budget.initial_balance,
        mask=np.stack(masks),
    )
    return _finalize(truth, loads, actuation, z, None, real, None, spend)


def simulate_schedule(
    schedule: np.ndarray,
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> SimResult:
    """Run one fixed on/off schedule; see :func:`simulate_schedules`."""
    return simulate_schedules([schedule], truth, loads, tariff, budget)[0]


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

