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
starts with a real balance <= 0. A schedule runs without thresholds,
masked by its on/off steps. Between two such events the set of enabled
loads is fixed, so each step's cost is a column sum over the enabled
loads and both balances are running differences, paid in step order
exactly as a step-by-step loop pays them. A step's cost sums the
enabled loads left to right, except in spans of one step, where numpy
sums 8 or more loads pairwise; so with 8 or more loads the last bits
can differ from a loop that sums the served loads with ``ndarray.sum``.

The stacked entry points, :func:`simulate_threshold_plans` and
:func:`simulate_schedules`, run any number of plans that share the true
demand and the tariff, each with its own budget or all with one, in one
kernel pass and score them with one ``psf`` call. Schedules reach the
kernel as 0/1 masks on the shared demand, so a stack holds no per-plan
copy of it, and have no virtual wallet, so their pass keeps no virtual
balance. Each plan's result is the same, bit for bit, as a pass of that
plan alone: :func:`simulate_thresholds`, :func:`simulate_schedule` and
:func:`simulate_baseline` are such one-plan passes. An experiment plans
the cells of every budget fraction first and then simulates the whole
sweep in two such passes, one per kind of plan.

Trace files (:func:`write_trace_csvs`) are built as bytes in numpy, one
array per file, with no Python string per row or balance. The balances'
texts come from ``floatrepr.repr_bytes``, the same bytes as ``repr``:
computed in numpy for magnitudes in [1e-4, 1e16), and by ``repr`` itself
only for 0.0, -0.0, non-finite values and the magnitudes it prints with
an exponent.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from prepaid_ems.afg import ThresholdPlan
from prepaid_ems.floatrepr import repr_bytes
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    demand_indicator,
    psf,
)


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
    """One :class:`SimResult` per plan of a kernel pass, scored over the
    whole stack at once: one ``psf`` call, and the disconnection days and
    first disconnect steps as array expressions. ``x_trace`` and
    ``final_virtual`` are ``None`` for plans without a virtual wallet."""
    sf, value = psf(actuation, demand_indicator(truth), loads)
    for trace in (actuation, z_trace, x_trace):
        if trace is not None:
            trace.setflags(write=False)
    grid = truth.grid
    below = z_trace <= 0
    # Whole days at or below zero at every step, as count_disconnection_days.
    days = below.reshape(len(below), grid.num_days, grid.steps_per_day).all(axis=2)
    dark_days = days.sum(axis=1).tolist()
    first = np.where(below.any(axis=1), below.argmax(axis=1), -1).tolist()
    return [
        SimResult(
            actuation=actuation[p],
            real_balance_trace=z_trace[p],
            virtual_balance_trace=None if x_trace is None else x_trace[p],
            final_real_balance=float(final_real[p]),
            final_virtual_balance=(
                None if final_virtual is None else float(final_virtual[p])
            ),
            sf=sf[p],
            psf=float(value[p]),
            total_spend=float(total_spend[p]),
            disconnection_days=dark_days[p],
            first_disconnect_step=None if first[p] < 0 else first[p],
        )
        for p in range(len(z_trace))
    ]


def _running(start: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Balances ``[plan, step + 1]`` from ``start`` as ``cost[plan, step]``
    is paid, subtracted in step order."""
    return np.subtract.accumulate(
        np.concatenate([start[:, None], cost], axis=1), axis=1
    )


def _simulate(power, cost_factor, balances, num_spans, wallet=None, mask=None):
    """Simulate a stack of plans at once, event to event.

    ``power[load, step]`` is the demand every plan may serve,
    ``balances[plan]`` each plan's initial real balance, and the
    ``num_spans`` spans split the horizon evenly. ``wallet``, if given,
    is each plan's virtual wallet: ``(thresholds[plan, load, span],
    recharges[1 or plan, span])``; ``mask[plan, load, step]`` (bool), if
    given, the steps each plan's schedule may serve. A pass without a
    wallet keeps no virtual balance: only the schedule and the real
    wallet switch loads off. Returns the actuation ``[plan, load, step]``
    (0/1 int8), the start-of-step real and virtual balances ``[plan,
    step]``, and the final real balance, virtual balance and spend
    ``[plan]``; the virtual ones are ``None`` without a wallet.
    """
    num_loads, total = power.shape
    plans = len(balances)
    n = total // num_spans
    step = np.arange(n)
    actuation = np.empty((plans, num_loads, total), dtype=np.int8)
    z_trace = np.empty((plans, total))
    x_trace = None if wallet is None else np.empty((plans, total))
    real = np.asarray(balances, dtype=float)
    virtual = None if wallet is None else np.zeros(plans)
    spend = np.zeros(plans)
    for s in range(num_spans):
        span = slice(s * n, (s + 1) * n)
        w = power[:, span]
        scheduled = None if mask is None else mask[..., span]
        # off[p, k]: the step of the span from which load k stays off;
        # without a wallet all loads of a plan share one (off[p, 0]).
        enabled = real[:, None] > 0
        if wallet is not None:
            thr = wallet[0][..., s]
            virtual = virtual + wallet[1][:, s]
            enabled = enabled & (virtual[:, None] >= thr)
        off = np.where(enabled, n, 0)
        while True:
            on = step < off[..., None]
            if scheduled is not None:
                on = on & scheduled
            cost = cost_factor * np.where(on, w, 0.0).sum(axis=1)
            z = _running(real, cost)
            # Both balances only fall, so counting the steps that pass a
            # test finds where it first fails: a load's first step below
            # its threshold, and the first step begun with no money.
            # Only the earliest of these events per plan is certain; the
            # ones after it move once its load is off. A load already
            # off, or an empty wallet with every load off, is no event.
            dark = (z[:, :n] > 0).sum(axis=1)
            dark[dark >= off.max(axis=1, initial=0)] = n
            event = dark
            if wallet is not None:
                x = _running(virtual, cost)
                cross = (x[:, :n, None] >= thr[:, None, :]).sum(axis=1)
                cross[cross >= off] = n
                event = np.minimum(cross.min(axis=1, initial=n), dark)
            if (event == n).all():
                break
            hit = (dark == event)[:, None]
            if wallet is not None:
                hit = hit | (cross == event[:, None])
            off = np.where(hit, np.minimum(off, event[:, None]), off)
        actuation[..., span] = on & (w > 0)
        z_trace[:, span] = z[:, :n]
        real = z[:, n]
        if wallet is not None:
            x_trace[:, span] = x[:, :n]
            virtual = x[:, n]
        spend = np.add.accumulate(
            np.concatenate([spend[:, None], cost], axis=1), axis=1
        )[:, n]
    return actuation, z_trace, x_trace, real, virtual, spend


def _balances(budget, count: int) -> np.ndarray:
    """Initial real balance of each of ``count`` plans, from one
    ``Budget`` they all share or a sequence of one per plan."""
    if isinstance(budget, Budget):
        return np.full(count, budget.initial_balance, dtype=float)
    if len(budget) != count:
        raise ShapeMismatch(f"{len(budget)} budgets for {count} plans")
    return np.array([b.initial_balance for b in budget], dtype=float)


def simulate_threshold_plans(
    plans: list[ThresholdPlan],
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget | list[Budget],
) -> list[SimResult]:
    """Run threshold plans against true demand, all in one kernel pass.

    The virtual wallet starts empty and receives the day's recharge at
    each day start. A load is enabled at a step iff the virtual balance
    has stayed at or above its threshold for the day so far and the
    real wallet is still positive. Both wallets pay for every served
    step. ``budget`` is shared by all plans or is a list of one per
    plan. Entry ``p`` of the result is plan ``p``'s run, the same as
    ``simulate_thresholds`` on it alone with its budget.
    """
    num_loads = truth.num_loads
    num_days = truth.grid.num_days
    for plan in plans:
        covered = plan.thresholds.shape[0]
        if covered != num_loads or covered != len(loads):
            raise ShapeMismatch(f"plan covers {covered} loads, expected {len(loads)}")
        if plan.num_days != num_days:
            raise ShapeMismatch(
                f"plan covers {plan.num_days} days, the horizon has {num_days}"
            )
    balances = _balances(budget, len(plans))
    if not plans:
        return []
    wallet = (
        np.stack([plan.thresholds for plan in plans]),
        np.stack([plan.recharges for plan in plans]),
    )
    actuation, z, x, real, virtual, spend = _simulate(
        truth.power,
        tariff.alpha * truth.grid.step_hours,
        balances,
        num_days,
        wallet,
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
        tariff.alpha * truth.grid.step_hours,
        _balances(budget, len(thresholds)),
        truth.grid.num_days,
        (thresholds, recharges[None]),
    )[0]
    return psf(actuation, demand_indicator(truth), loads)[1]


def simulate_schedules(
    schedules: list[np.ndarray],
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget | list[Budget],
) -> list[SimResult]:
    """Run fixed on/off schedules against true demand, all in one kernel
    pass.

    A scheduled step is served only where demand actually occurs, and
    only while the prepaid wallet holds out; a schedule computed from a
    wrong forecast simply burns its budget at the wrong times.
    ``budget`` is shared by all schedules or is a list of one per
    schedule. Entry ``p`` of the result is schedule ``p``'s run, the
    same as ``simulate_schedule`` on it alone with its budget.
    """
    balances = _balances(budget, len(schedules))
    mask = np.empty((len(schedules), *truth.power.shape), dtype=bool)
    for scheduled, schedule in zip(mask, schedules):
        sched = np.asarray(schedule)
        if sched.shape != truth.power.shape:
            raise ShapeMismatch(
                f"schedule shape {sched.shape} != demand shape {truth.power.shape}"
            )
        np.equal(sched, 1, out=scheduled)
        if not (scheduled | (sched == 0)).all():
            raise ShapeMismatch("schedule must be a binary matrix")
    if not schedules:
        return []
    # Day-long spans keep the kernel's arrays small; a one-step span
    # would make numpy sum the loads pairwise rather than left to right,
    # so one-step days run as one span.
    grid = truth.grid
    actuation, z, _, real, _, spend = _simulate(
        truth.power,
        tariff.alpha * grid.step_hours,
        balances,
        grid.num_days if grid.steps_per_day > 1 else 1,
        mask=mask,
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


def _balance_bytes(traces: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(texts, code)`` for equally long float traces: row
    ``code[trace, step]`` of ``texts`` is the ``floatrepr.repr_bytes`` of that
    entry, cut to the columns some text uses. Each distinct bit pattern
    is formatted once; bits, not floats, are compared, so ``0.0`` and
    ``-0.0`` keep their own text."""
    bits = np.array(traces, dtype=float).view(np.int64)
    # A step with the bits of the step before it repeats that step's text.
    new = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    starts = bits[new]
    # Each array goes once used: a group's arrays set the emit's peak
    # memory.
    del bits
    patterns, inverse = np.unique(starts, return_inverse=True)
    # The inverse's shape differs across numpy 2.0.x.
    inverse = inverse.reshape(-1).astype(np.int32)
    code = inverse[np.cumsum(new, dtype=np.int32) - 1].reshape(new.shape)
    del starts, inverse, new
    texts = repr_bytes(patterns.view(np.float64))
    shown = np.flatnonzero(texts.any(axis=0))
    return texts[:, shown[0] : shown[-1] + 1].copy(), code


def write_trace_csvs(results: list[SimResult], loads: LoadSet, paths: list) -> None:
    """Write the trace of ``results[i]`` to ``paths[i]``, each file
    as :func:`write_trace_csv` writes it, formatting the results
    together.

    The results share one horizon. A result listed more than once is
    formatted once and its bytes written to each of its paths. The
    balances of all results are formatted together by
    :func:`_balance_bytes`, once per distinct bit pattern: the plans of
    one budget fraction keep passing through the same balances. The
    texts live until the call returns, so a call should hold one such
    group, not a whole sweep.

    Each file's body is built as one byte array: a row per step of
    fixed-width, NUL-padded fields, with the actuation digits taken
    straight from the 0/1 actuation; the NULs are dropped once, and the
    body is written after the header.
    """
    groups = {}  # id(result) -> (result, its paths)
    for result, path in zip(results, paths, strict=True):
        groups.setdefault(id(result), (result, []))[1].append(path)
    if not groups:
        return
    traces = []
    for result, _ in groups.values():
        traces.append(result.real_balance_trace)
        if result.virtual_balance_trace is not None:
            traces.append(result.virtual_balance_trace)
    texts, code = _balance_bytes(traces)
    head = io.StringIO()
    csv.writer(head).writerow(
        ["t", "real_balance", "virtual_balance", *(f"a_{n}" for n in loads.names)]
    )
    # Row layout: the step, ',', the real balance, ',', the virtual
    # balance, then ',' and a digit per load, and the line end. The
    # frame holds what all files of the call share.
    total = code.shape[1]
    steps = np.arange(total)
    places = 10 ** np.arange(len(str(total - 1)))[::-1]
    real = len(places) + 1
    virtual = real + texts.shape[1] + 1
    acts = virtual + texts.shape[1] + 1
    frame = np.zeros((total, acts + 2 * len(loads) + 1), dtype=np.uint8)
    frame[:, : real - 1] = steps[:, None] // places % 10 + ord("0")
    frame[:, : real - 1][(steps[:, None] < places) & (places > 1)] = 0  # no leading 0s
    frame[:, [real - 1, virtual - 1]] = ord(",")
    frame[:, acts - 1 : -2 : 2] = ord(",")
    frame[:, -2:] = [ord("\r"), ord("\n")]
    rows = iter(code)
    for result, result_paths in groups.values():
        body = frame.copy()
        body[:, real : virtual - 1] = texts.take(next(rows), axis=0)
        if result.virtual_balance_trace is not None:
            body[:, virtual : acts - 1] = texts.take(next(rows), axis=0)
        body[:, acts:-2:2] = result.actuation.T + ord("0")
        body = body[body != 0]
        for path in result_paths:
            with open(path, "w", newline="") as fh:
                fh.write(head.getvalue())
                fh.flush()
                fh.buffer.write(body)


def write_trace_csv(result: SimResult, loads: LoadSet, path) -> None:
    """Per-step trace: balances and per-load actuation.

    The bytes are those of ``csv.writer`` writing the header
    ``t,real_balance,virtual_balance,a_<load>...`` and then one row per
    step: the step index, ``repr`` of the start-of-step real and virtual
    balances (the virtual field is empty for a result without a virtual
    wallet, i.e. a schedule), and each load's actuation as 0 or 1. Every
    line ends in ``\\r\\n``. The header is written as text, in the
    encoding ``open`` picks.

    This is :func:`write_trace_csvs` on one result. No body field needs
    quoting, so the body is built as bytes in numpy; the balances'
    digits are computed there too, and ``repr`` is called only for
    0.0, -0.0, non-finite values and values outside ±[1e-4, 1e16).
    """
    write_trace_csvs([result], loads, [path])
