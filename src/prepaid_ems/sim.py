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
real balance is carried separately.

One kernel runs every entry point, for a stack of plans at once. It
settles the virtual wallet per day and the real wallet per horizon.
Within a day the virtual balance never rises, so a threshold plan's load
is on from the day start until its threshold first trips and stays off
after it: the day loop moves from trip to trip rather than step by
step, as though the real wallet never ran out. A schedule has no
virtual wallet and no day loop: its on/off steps fix what it serves.
Each step's cost is a column sum over the served loads, and the real
balance is one running difference of those costs over the horizon,
paid in step order exactly as a step-by-step loop pays it. Service ends
at the first step that starts with a real balance <= 0: until then the
real wallet has switched nothing off, and from then on the real balance
holds, while the virtual balance holds to the end of that day and then
rises by each later day's recharge. A step's cost sums the served loads
left to right, except in a threshold plan's days of one step, where
numpy sums 8 or more loads pairwise; so with 8 or more loads the last
bits can differ from a loop that sums the served loads with
``ndarray.sum``.

There are two stacked passes, :func:`simulate_threshold_plans` and
:func:`simulate_schedules`. Each runs any number of plans that share the
true demand and the tariff, each plan with its own budget, in one kernel
pass and scores them with one ``psf`` call. The same pass gives each
plan's first disconnect step and dark days from the step at which it
ended that plan's service: the real balance only falls, so every step
from there on starts <= 0, and a day is dark iff it starts at or after
that step. Schedules reach the kernel as 0/1 masks on the shared
demand, so a stack holds no per-plan copy of it, and have no virtual
wallet, so their pass keeps no virtual balance.
An experiment plans the cells of every budget fraction first and then
simulates the whole sweep in these two passes, one per kind of plan.
The three one-plan passes, :func:`simulate_thresholds`,
:func:`simulate_schedule` and :func:`simulate_baseline`, are a stacked
pass of one plan, the same bit for bit as that plan's entry in any
stack; they exist for the benchmark's hooks and the tests.

Trace files (:func:`write_trace_csvs`) are built as bytes in numpy, one
array per distinct trace, with no Python string per row or balance.
Results with the same trace bytes are one group (:func:`trace_groups`),
formatted once; ``files`` says how a group's paths become files. The
balances' texts come from ``floatrepr.repr_bytes``, the same bytes as
``repr``: computed in numpy for magnitudes in [1e-4, 1e15), and by
``repr`` itself only for 0.0, -0.0, non-finite values and the other
magnitudes. :func:`_balance_bytes` formats each distinct bit pattern of
a call's balances once: ``np.unique`` over the first step of each run of
equal steps, and ``np.repeat`` of each run's row. On a paper-scale
budget fraction (about 13,500 runs, 8,700 distinct balances) the
formatting takes two thirds of its time and ``np.unique`` a fifth.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from prepaid_ems.files import encode_text, write_file
from prepaid_ems.floatrepr import repr_bytes
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
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
    sf: np.ndarray  # per-load service factor, NaN where never demanded
    psf: float
    total_spend: float
    disconnection_days: int
    first_disconnect_step: int | None


def _running(start: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Balances ``[plan, step + 1]`` from ``start`` as ``cost[plan, step]``
    is paid, subtracted in step order."""
    balance = np.empty((len(start), cost.shape[1] + 1))
    balance[:, 0] = start
    balance[:, 1:] = cost
    return np.subtract.accumulate(balance, axis=1, out=balance)


def _trip_days(power, cost_factor, thresholds, recharges):
    """Run each plan's virtual wallet day by day, as though the real
    wallet never ran out.

    ``thresholds[plan, load, day]`` and ``recharges[plan, day]`` are each
    plan's virtual wallet. Returns the actuation ``[plan, load, step]``
    (0/1 int8), each step's cost and the start-of-step virtual balances
    ``[plan, step]``.
    """
    num_loads, total = power.shape
    plans, num_days = recharges.shape
    n = total // num_days
    step = np.arange(n)
    actuation = np.empty((plans, num_loads, total), dtype=np.int8)
    cost = np.empty((plans, total))
    x_trace = np.empty((plans, total))
    virtual = np.zeros(plans)
    for day in range(num_days):
        span = slice(day * n, (day + 1) * n)
        w = power[:, span]
        thr = thresholds[..., day]
        virtual = virtual + recharges[:, day]
        # off[p, k]: the step of the day from which load k stays off.
        off = np.where(virtual[:, None] >= thr, n, 0)
        while True:
            on = step < off[..., None]
            c = cost_factor * np.where(on, w, 0.0).sum(axis=1)
            x = _running(virtual, c)
            # The balance only falls, so counting the steps that start at
            # or above a threshold finds the load's first step below it.
            # Only the earliest trip per plan is certain; the ones after
            # it move once its load is off. A load already off is no trip.
            trip = (x[:, None, :n] >= thr[..., None]).sum(axis=2)
            trip[trip >= off] = n
            first = trip.min(axis=1, initial=n)
            if (first == n).all():
                break
            off = np.minimum(off, np.where(trip == first[:, None], trip, n))
        actuation[..., span] = on & (w > 0)
        cost[:, span] = c
        x_trace[:, span] = x[:, :n]
        virtual = x[:, n]
    return actuation, cost, x_trace


def _simulate(truth, loads, tariff, balances, wallet=None, mask=None):
    """Simulate a stack of plans at once; one :class:`SimResult` per plan.

    ``truth.power[load, step]`` is the demand every plan may serve and
    ``balances[plan]`` each plan's initial real balance. ``wallet``, if
    given, is each plan's virtual wallet: ``(thresholds[plan, load, day],
    recharges[plan, day])``; ``mask[plan, load, step]`` (bool), if given,
    the steps each plan's schedule may serve, and is overwritten by the
    actuation. A pass without a wallet keeps no virtual balance: only
    the schedule and the real wallet switch loads off, and its results
    carry no virtual trace.
    """
    power = truth.power
    cost_factor = tariff.alpha * truth.grid.step_hours
    if wallet is None:
        # The served loads' costs, summed left to right. Unserved loads
        # add nothing, not 0.0: the sign of a zero cost changes no
        # balance that is still positive, nor the spend.
        cost = np.where(mask[:, 0], power[0], 0.0)
        for k in range(1, len(power)):
            np.add(cost, power[k], out=cost, where=mask[:, k])
        cost *= cost_factor
        # The mask becomes the actuation: served where there is demand.
        actuation = np.logical_and(mask, power > 0, out=mask).view(np.int8)
        x_trace = None
    else:
        actuation, cost, x_trace = _trip_days(power, cost_factor, *wallet)
    total = power.shape[1]
    z = _running(balances, cost)
    # The real balance only falls: the steps that start above 0 are
    # those before the first one begun with no money. Until then the
    # real wallet has switched nothing off, so the run above is the
    # plan's; from then on nothing is served or paid.
    dark = (z[:, :total] > 0).sum(axis=1)
    for p in np.flatnonzero(dark < total):
        t = dark[p]
        actuation[p, :, t:] = 0
        cost[p, t:] = 0.0
        z[p, t + 1 :] = z[p, t]
        if x_trace is not None:
            # The virtual balance holds to the end of the day, then
            # rises by each later day's recharge.
            recharges = wallet[1][p]
            days = x_trace[p].reshape(len(recharges), -1)
            day, start = divmod(t, days.shape[1])
            held = np.add.accumulate(
                np.concatenate([x_trace[p, t : t + 1], recharges[day + 1 :]])
            )
            days[day, start:] = held[0]
            days[day + 1 :] = held[1:, None]
    # The spend sums the costs in step order. The step loop's sum starts
    # at 0.0; adding that 0.0 last gives the same bits, for a sum of
    # -0.0s too.
    spend = np.add.accumulate(cost, axis=1, out=cost)[:, -1] + 0.0
    sf, value = psf(actuation, demand_indicator(truth), loads)
    for trace in (actuation, z, x_trace):
        if trace is not None:
            trace.setflags(write=False)
    # Every step from ``dark`` on starts <= 0, so the dark days are the
    # days that start at or after it: all but the first
    # ceil(dark / steps_per_day).
    grid = truth.grid
    dark_days = (grid.num_days + -dark // grid.steps_per_day).tolist()
    return [
        SimResult(
            actuation=actuation[p],
            real_balance_trace=z[p, :total],
            virtual_balance_trace=None if x_trace is None else x_trace[p],
            final_real_balance=float(z[p, total]),
            sf=sf[p],
            psf=float(value[p]),
            total_spend=float(spend[p]),
            disconnection_days=dark_days[p],
            first_disconnect_step=t if t < total else None,
        )
        for p, t in enumerate(dark.tolist())
    ]


def _balances(budgets: list[Budget], count: int) -> np.ndarray:
    """Initial real balance of each of ``count`` plans, one budget each."""
    if len(budgets) != count:
        raise ShapeMismatch(f"{len(budgets)} budgets for {count} plans")
    return np.array([b.initial_balance for b in budgets], dtype=float)


def simulate_threshold_plans(
    plans: list[ThresholdPlan],
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budgets: list[Budget],
) -> list[SimResult]:
    """Run threshold plans against true demand, all in one kernel pass.

    The virtual wallet starts empty and receives the day's recharge at
    each day start. A load is enabled at a step iff the virtual balance
    has stayed at or above its threshold for the day so far and the
    real wallet is still positive. Both wallets pay for every served
    step. ``budgets[p]`` is plan ``p``'s budget. Entry ``p`` of the
    result is plan ``p``'s run, the same as ``simulate_thresholds`` on
    it alone with its budget.
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
    balances = _balances(budgets, len(plans))
    if not plans:
        return []
    wallet = (
        np.stack([plan.thresholds for plan in plans]),
        np.stack([plan.recharges for plan in plans]),
    )
    return _simulate(truth, loads, tariff, balances, wallet)


def simulate_thresholds(
    plan: ThresholdPlan,
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> SimResult:
    """Run one threshold plan; see :func:`simulate_threshold_plans`."""
    return simulate_threshold_plans([plan], truth, loads, tariff, [budget])[0]


def simulate_schedules(
    schedules: list[np.ndarray],
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budgets: list[Budget],
) -> list[SimResult]:
    """Run fixed on/off schedules against true demand, all in one kernel
    pass.

    A scheduled step is served only where demand actually occurs, and
    only while the prepaid wallet holds out; a schedule computed from a
    wrong forecast simply burns its budget at the wrong times.
    ``budgets[p]`` is schedule ``p``'s budget. Entry ``p`` of the result
    is schedule ``p``'s run, the same as ``simulate_schedule`` on it
    alone with its budget.
    """
    balances = _balances(budgets, len(schedules))
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
    # The real wallet is settled per horizon and the virtual wallet per
    # day; a schedule has no virtual wallet, so its pass has no day loop.
    return _simulate(truth, loads, tariff, balances, mask=mask)


def simulate_schedule(
    schedule: np.ndarray,
    truth: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
) -> SimResult:
    """Run one fixed on/off schedule; see :func:`simulate_schedules`."""
    return simulate_schedules([schedule], truth, loads, tariff, [budget])[0]


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
    ``code[trace, step]`` of ``texts`` is the ``floatrepr.repr_bytes`` of
    that entry. Each distinct bit pattern is formatted once; bits, not
    floats, are compared, so ``0.0`` and ``-0.0`` keep their own text."""
    bits = np.array(traces, dtype=float).view(np.int64)
    # A step with the bits of the step before it repeats that step's text.
    new = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    starts = bits[new]
    # Each array goes once used: a group's arrays set the emit's peak
    # memory.
    del bits
    patterns, inverse = np.unique(starts, return_inverse=True)
    # Each run of equal steps repeats its first step's row; traces start
    # runs, so no run crosses from one trace into the next. The
    # inverse's shape differs across numpy 2.0.x.
    at = np.flatnonzero(new)
    code = np.repeat(inverse.reshape(-1).astype(np.int32), np.diff(at, append=new.size))
    del starts, inverse, at
    return repr_bytes(patterns.view(np.float64)), code.reshape(new.shape)


def _same_bits(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether two balance traces, or ``None``s, hold the same bits, so
    that ``0.0`` and ``-0.0`` differ; compares views, copying nothing."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def trace_groups(results: list[SimResult], paths: list) -> list[tuple]:
    """``(result, path, twins)`` per distinct trace, in the order of first
    appearance. Results whose trace files hold the same bytes, i.e. with
    equal actuation and the same bits in each balance trace, are one
    group: its file is written to the last of their paths, ``path``, and
    linked to the others, ``twins``."""
    groups = []
    # Results of one sweep with equal traces share these scalars, so only
    # the groups with a result's scalars can hold it.
    buckets = {}
    for result, path in zip(results, paths, strict=True):
        key = (
            result.psf,
            result.total_spend,
            result.final_real_balance,
            result.first_disconnect_step,
        )
        bucket = buckets.setdefault(key, [])
        for first, group_paths in bucket:
            if first is result or (
                np.array_equal(first.actuation, result.actuation)
                and _same_bits(first.real_balance_trace, result.real_balance_trace)
                and _same_bits(
                    first.virtual_balance_trace, result.virtual_balance_trace
                )
            ):
                group_paths.append(path)
                break
        else:
            bucket.append((result, [path]))
            groups.append(bucket[-1])
    return [(result, paths[-1], paths[:-1]) for result, paths in groups]


def write_trace_csvs(groups: list[tuple], loads: LoadSet, write=write_file) -> None:
    """Write the trace of each ``(result, path, twins)`` of ``groups``, as
    :func:`trace_groups` gives them, to ``path`` and its ``twins``, each
    file as :func:`write_trace_csv` writes it, formatting the results
    together.

    The results share one horizon. Each group's bytes are built once;
    how its path and twins become files is ``files``' rule. The balances
    of all groups are formatted together by :func:`_balance_bytes`, once
    per distinct bit pattern: the plans of one budget fraction keep
    passing through the same balances. The texts live until the call
    returns, so a call should hold one such fraction, not a whole sweep.

    Each file's body is built as one byte array: a row per step of
    fixed-width, NUL-padded fields, with the actuation digits taken
    straight from the 0/1 actuation; the NULs are dropped once. The
    calling thread does all of this formatting, and hands each group's
    header and body bytes to ``write(path, chunks, twins)``. By default
    that is ``files.write_file``, which writes and links the files on
    the calling thread before the next group is formatted.
    ``emit_outputs`` passes ``files.BundleWriter.write`` instead: it
    queues the group for the writer's one thread and returns once the
    bounded queue has room, so that the files are written while the
    next are formatted, and they are complete once ``emit_outputs`` has
    joined that thread.
    """
    if not groups:
        return
    traces = []
    for result, _, _ in groups:
        traces.append(result.real_balance_trace)
        if result.virtual_balance_trace is not None:
            traces.append(result.virtual_balance_trace)
    texts, code = _balance_bytes(traces)
    head = io.StringIO()
    csv.writer(head).writerow(
        ["t", "real_balance", "virtual_balance", *(f"a_{n}" for n in loads.names)]
    )
    head = encode_text(head.getvalue())
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
    for result, path, twins in groups:
        # Each result's fields overwrite the last one's in the frame.
        frame[:, real : virtual - 1] = texts.take(next(rows), axis=0)
        if result.virtual_balance_trace is not None:
            frame[:, virtual : acts - 1] = texts.take(next(rows), axis=0)
        else:
            frame[:, virtual : acts - 1] = 0
        frame[:, acts:-2:2] = result.actuation.T + ord("0")
        body = frame[frame != 0]
        write(path, (head, body), twins)


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
    0.0, -0.0, non-finite values and magnitudes outside [1e-4, 1e15).
    """
    write_trace_csvs([(result, path, ())], loads)
