"""A fixed reference job that measures how fast the host runs right now.

On a shared host the same sweep takes up to 1.8 times as long while
another tenant keeps the core busy, and such spells last from seconds
to minutes, longer than a whole run. The benchmark therefore times this
job right before and after every sweep and reports the sweep's wall
time as a multiple of the job's. The job mixes the kinds of work a
sweep does (an interpreted per-step loop, small-array numpy calls and
CSV text formatting) so that a busy host slows both alike. It uses
nothing from the package under test, so a change to the program never
moves it.
"""

import csv
import io

import numpy as np

STEPS = 40_000
ARRAY_STEPS = 6_000


def reference_job() -> int:
    """Run the fixed job; returns a checksum so no part is skipped."""
    balance, trace, last = 100.0, [], {}
    for t in range(STEPS):
        draw = (t * 37 % 101) * 0.01
        balance = balance - draw if balance > draw else balance + 50.0
        last[t & 63] = balance
        trace.append(balance)
    rates = np.linspace(0.0, 1.0, 4)
    level = np.zeros(4)
    for _ in range(ARRAY_STEPS):
        level = np.minimum(level + rates * 0.5, 3.0)
        if level.sum() > 10.0:
            level = level * 0.5
    text = io.StringIO()
    writer = csv.writer(text)
    for t in range(0, STEPS, 2):
        writer.writerow([t, repr(trace[t]), repr(trace[t + 1]), t & 1, t & 3])
    return len(text.getvalue()) + len(last) + int(level.sum() * 1000)
