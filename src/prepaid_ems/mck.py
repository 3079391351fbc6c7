"""Knapsack pieces that the DFM and OBM searches share: the Dantzig
bound, the LP relaxation that takes every group's hull steps in falling
slope order until the money runs out (Pisinger, *EJOR* 83, 1995), and
the runs of indices from which both form their candidate pairs."""

import numpy as np


def runs(owner, start, width):
    """Each ``owner`` repeated ``width`` times, beside the indices
    ``start .. start + width - 1`` of its run."""
    offset = start - (np.cumsum(width) - width)
    return np.repeat(owner, width), np.arange(width.sum()) + np.repeat(offset, width)


def chunked_runs(owner, start, width, size: int):
    """:func:`runs` of consecutive owners, about ``size`` indices at a
    time, in owner order: at least one chunk, and none empty unless all
    runs are. A run wider than ``size`` makes one chunk of its own."""
    ends = np.cumsum(width)
    cuts = np.searchsorted(ends, np.arange(size, ends[-1], size), side="right")
    # Each owner bound once, and none before the first index.
    cuts = np.unique(cuts[cuts > np.searchsorted(ends, 0, side="right")])
    for lo, hi in zip([0, *cuts], [*cuts, len(width)]):
        yield runs(owner[lo:hi], start[lo:hi], width[lo:hi])


def ranked_table(width, rise):
    """The bound of steps ranked by falling slope, as a function of the
    money on offer: breakpoints at their cumulative width and rise."""
    return tuple(np.concatenate(([0.0], np.cumsum(a))) for a in (width, rise))


def dantzig(table, x):
    """The bound of a table of breakpoints ``(xs, ys)``, ``xs`` ascending,
    at each ``x``: linear between breakpoints, flat past either end."""
    return np.interp(x, *table)
