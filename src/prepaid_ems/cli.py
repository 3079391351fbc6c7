"""Command-line interface.

``run`` executes the experiment sweep described by a JSON config,
``synth`` generates a synthetic household CSV, ``validate`` checks a
config without running it. Exit codes: 0 success, 2 config error,
3 data error, or an output error (``run`` cannot write its results,
e.g. ``--out`` names an existing file).

A relative ``run --out`` is resolved against the working directory; a
relative ``output_dir`` in the config, like its ``data.csv``, against
the config file's directory.

The bundle that ``run --out`` writes follows the file rule of
``prepaid_ems.files``: trace files with the same bytes are hard links,
and a run into an existing bundle leaves a ``cp -al`` snapshot of it
its bytes.
"""

import argparse
import logging
import sys
from pathlib import Path

from prepaid_ems import __version__, config as config_mod, experiment
from prepaid_ems.config import ConfigError, ExperimentConfig
from prepaid_ems.forecast import CsvError, export_csv, synth_household
from prepaid_ems.model import LoadSet, TimeGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prepaid-ems",
        description=(
            "Energy rationing for prepaid electricity customers: compute "
            "wallet-threshold or schedule setpoints under several forecast "
            "regimes and simulate them against true demand."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment sweep from a config")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument(
        "--out",
        help="output directory, relative to the working directory (overrides "
        "the config's output_dir, which is relative to the config file)",
    )
    run.add_argument(
        "--seed", type=int, help="day-shuffle seed (overrides the config)"
    )

    synth = sub.add_parser("synth", help="generate a synthetic household CSV")
    synth.add_argument("--seed", type=int, default=1)
    synth.add_argument("--days", type=int, required=True)
    synth.add_argument("--out", required=True, help="CSV path to write")
    synth.add_argument(
        "--config",
        help="take loads/profiles/step from this config instead of the defaults",
    )

    validate = sub.add_parser("validate", help="check a config file")
    validate.add_argument("--config", required=True)
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.out:
        config.output_dir = Path(args.out)
    if args.seed is not None:
        seed = config_mod.parse_seed(args.seed, "--seed")
        config.regimes = [
            config_mod.parse_regime(regime.label, seed) for regime in config.regimes
        ]
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(config_mod.from_file(args.config), args)
    try:
        results = experiment.run_experiment(config)
    except (CsvError, OSError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        written = experiment.emit_outputs(results, config.output_dir)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_DATA
    solved = sum(1 for c in results.cells if c.status == "ok")
    print(
        f"{len(results.cells)} cells ({solved} solved), "
        f"{len(written)} files written to {config.output_dir}"
    )
    if results.excluded_loads:
        print(
            "loads never demanded (excluded from the weighted service "
            f"factor): {', '.join(results.excluded_loads)}"
        )
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.config:
        config = config_mod.from_file(args.config)
        loads = config.loads
        profiles = config.profiles
        if profiles is None:
            raise ConfigError(
                f"{args.config} uses a CSV data source; synth needs profiles"
            )
        step_minutes = config.step_minutes
    else:
        loads = LoadSet.from_pairs(
            (name, gamma) for name, (gamma, _) in config_mod.DEFAULT_HOUSEHOLD.items()
        )
        profiles = {
            name: profile
            for name, (_, profile) in config_mod.DEFAULT_HOUSEHOLD.items()
        }
        step_minutes = 15
    if args.days <= 0:
        raise ConfigError(f"--days must be positive, got {args.days}")
    seed = config_mod.parse_seed(args.seed, "--seed")
    grid = TimeGrid.from_minutes(step_minutes, args.days)
    series = synth_household(seed, loads, grid, profiles)
    try:
        export_csv(series, loads, args.out)
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {grid.total_steps} rows x {len(loads)} loads to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = config_mod.from_file(args.config)
    cells = (
        len(config.budget_fractions) * len(config.regimes) * len(config.policies)
    )
    print(
        f"config ok: {len(config.loads)} loads, {config.horizon_days} days, "
        f"{cells} sweep cells"
    )
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CsvError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
