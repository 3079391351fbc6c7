"""Seeded sweep workloads.

Each workload turns a seed into the inputs a user would hand to
``prepaid-ems run``: a config dict (and, for ``noisy-csv``, a demand CSV
written next to it). The program under test only ever sees those
generated inputs.

Why these three (see also BENCHMARK.json):

* ``paper-synth`` -- paper scale (4 loads, 30 days, 15-minute steps).
  Few, long simulations (2880 steps each), OBM on flat demand whose
  items collapse into a handful of knapsack groups, and a large emit
  (one 2880-row trace per cell). DFM is left out: at this scale the
  grid backend only hits its candidate cap.
* ``dfm-grid`` -- the two-load fridge/heater household over 2 days at
  60-minute steps with all four policies. ``solve_dfm_grid`` simulates
  256 candidate plans per DFM cell, so per-call simulator overhead
  dominates and OBM is negligible. Both loads run every day, which pins
  the candidate count independently of the seed.
* ``noisy-csv`` -- the default household at paper scale with 1%
  multiplicative uniform noise per step, read back through the CSV
  ingest path: AFG and BSL on non-flat demand. OBM is left out because
  noise makes every knapsack item distinct, and the depth-first branch
  and bound in ``solve_knapsack_bb`` then runs for seconds to minutes on
  some seeds even at 2 days and 60-minute steps. This is the workload an
  OBM change must not move.
"""

import json
from pathlib import Path

import numpy as np

ALL_REGIMES = [
    "perfect-detailed",
    "perfect-limited",
    "imperfect-detailed",
    "imperfect-limited",
]
FRACTIONS = [0.7, 0.8, 0.9]
ALPHA_PER_WH = 0.00016

#: Mirrors ``prepaid_ems.config.DEFAULT_HOUSEHOLD`` as plain JSON so the
#: workload does not depend on a program constant.
DEFAULT_HOUSEHOLD = {
    "refrigerator": (0.48, 150.0, 1.0, 10.0),
    "air_compressor": (0.24, 1100.0, 0.5, 2.0),
    "microwave": (0.16, 1200.0, 0.9, 0.5),
    "washing_machine": (0.12, 500.0, 0.35, 1.5),
}

FRIDGE_HEATER = {
    "fridge": (0.7, 160.0, 1.0, 10.0),
    "heater": (0.3, 1000.0, 1.0, 4.0),
}

NOISE = 0.01

#: Candidates per demanded load-day are zero, this many levels up to the
#: recharge, and pinned-off: 4 here, so 4**4 = 256 plans per DFM cell.
DFM_GRID_RESOLUTION = 2


def _loads(household: dict) -> list[dict]:
    return [{"name": n, "gamma": g} for n, (g, *_rest) in household.items()]


def _profiles(household: dict) -> dict:
    return {
        n: {"rated_w": w, "on_probability": p, "mean_on_hours": h}
        for n, (_g, w, p, h) in household.items()
    }


def sweep_config(
    household: dict,
    seed: int,
    step_minutes: int,
    horizon_days: int,
    policies: list[str],
    data: dict | None = None,
) -> dict:
    """A full-factorial sweep config over all regimes and fractions."""
    return {
        "loads": _loads(household),
        "data": data
        or {"synthetic": {"seed": seed, "profiles": _profiles(household)}},
        "alpha_per_wh": ALPHA_PER_WH,
        "step_minutes": step_minutes,
        "horizon_days": horizon_days,
        "budget_fractions": list(FRACTIONS),
        "regimes": list(ALL_REGIMES),
        "shuffle_seed": seed,
        "policies": policies,
        "dfm": {"backend": "grid"},
        "output_dir": "out",
    }


def noisy_demand(power: np.ndarray, seed: int) -> np.ndarray:
    """``power * (1 + NOISE * u)`` with ``u`` uniform on [-1, 1), per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return power * (1.0 + NOISE * rng.uniform(-1.0, 1.0, power.shape))


def write_noisy_csv(seed: int, path: Path, step_minutes: int, days: int) -> None:
    """Synthesize the default household, add noise, export as CSV."""
    from prepaid_ems.forecast import ApplianceProfile, export_csv, synth_household
    from prepaid_ems.model import DemandSeries, LoadSet, TimeGrid

    loads = LoadSet.from_pairs((n, g) for n, (g, *_r) in DEFAULT_HOUSEHOLD.items())
    profiles = {
        n: ApplianceProfile(w, p, h) for n, (_g, w, p, h) in DEFAULT_HOUSEHOLD.items()
    }
    grid = TimeGrid.from_minutes(step_minutes, days)
    clean = synth_household(seed, loads, grid, profiles)
    export_csv(DemandSeries(grid, noisy_demand(clean.power, seed)), loads, path)


def _paper_synth(seed: int, workdir: Path) -> dict:
    return sweep_config(DEFAULT_HOUSEHOLD, seed, 15, 30, ["BSL", "AFG", "OBM"])


def _dfm_grid(seed: int, workdir: Path) -> dict:
    config = sweep_config(FRIDGE_HEATER, seed, 60, 2, ["BSL", "AFG", "DFM", "OBM"])
    config["dfm"]["grid_resolution"] = DFM_GRID_RESOLUTION
    return config


def _noisy_csv(seed: int, workdir: Path) -> dict:
    step_minutes, days = 15, 30
    csv_path = workdir / f"noisy_seed{seed}.csv"
    write_noisy_csv(seed, csv_path, step_minutes, days)
    return sweep_config(
        DEFAULT_HOUSEHOLD,
        seed,
        step_minutes,
        days,
        ["BSL", "AFG"],
        data={"csv": csv_path.name},
    )


#: Workload name -> (seed, work directory) -> config dict; a workload may
#: write data files into the work directory.
WORKLOADS = {
    "paper-synth": _paper_synth,
    "dfm-grid": _dfm_grid,
    "noisy-csv": _noisy_csv,
}


def write_inputs(make_config, seed: int, workdir: Path) -> Path:
    """Generate one workload input in ``workdir``; returns the config path."""
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(make_config(seed, workdir), indent=1))
    return config_path
