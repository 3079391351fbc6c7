import hashlib
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sim_reference
from prepaid_ems import cli, dfm, sim
from prepaid_ems.config import ConfigError, from_dict, from_file
from prepaid_ems.experiment import emit_outputs, load_truth, run_experiment
from prepaid_ems.forecast import Fidelity, Granularity, export_csv, synth_household
from prepaid_ems.model import DemandSeries, TimeGrid, daily_average
from prepaid_ems.rng import SplitMix64


HEATER = {"name": "heater", "gamma": 0.3}
FRIDGE_PROFILE = {"rated_w": 150, "on_probability": 1.0, "mean_on_hours": 10}
ALL_REGIMES = [
    "perfect-detailed",
    "perfect-limited",
    "imperfect-detailed",
    "imperfect-limited",
]


def base_config(**overrides):
    data = {
        "loads": [{"name": "fridge", "gamma": 0.7}, {"name": "heater", "gamma": 0.3}],
        "data": {
            "synthetic": {
                "seed": 3,
                "profiles": {
                    "fridge": dict(FRIDGE_PROFILE),
                    "heater": {"rated_w": 900, "on_probability": 0.8, "mean_on_hours": 4},
                },
            }
        },
        "alpha_per_wh": 0.00016,
        "step_minutes": 60,
        "horizon_days": 2,
        "budget_fractions": [0.7, 1.0],
        "regimes": ["perfect-detailed", "imperfect-limited"],
        "shuffle_seed": 11,
        "policies": ["BSL", "AFG", "OBM"],
        "dfm": {"grid_resolution": 2},
        "output_dir": "out",
    }
    data.update(overrides)
    return data


def with_profiles(**profiles):
    """Overrides replacing the base config's synthetic ``profiles``."""
    data = base_config()["data"]
    data["synthetic"]["profiles"].update(profiles)
    return {"data": data}


def write_noisy_csv(path, days):
    """The base config's household over ``days`` 60-minute days, each
    power scaled by ``1 + 0.01 * u`` with ``u`` uniform on [-1, 1) from a
    fixed splitmix64 stream, written by ``export_csv``."""
    config = from_dict(base_config(), path.parent)
    clean = synth_household(
        4, config.loads, TimeGrid.from_minutes(60, days), config.profiles
    )
    rng = SplitMix64(17)
    noise = [1.0 + 0.01 * (2.0 * rng.uniform() - 1.0) for _ in range(clean.power.size)]
    power = clean.power * np.reshape(noise, clean.power.shape)
    export_csv(DemandSeries(clean.grid, power), config.loads, path)


class TestConfig:
    def test_parse_and_validate(self, tmp_path):
        config = from_dict(base_config(), tmp_path)
        assert config.loads.names == ("fridge", "heater")
        assert config.regimes[1].fidelity is Fidelity.IMPERFECT_SHUFFLED
        assert config.regimes[1].shuffle_seed == 11
        assert config.output_dir == tmp_path / "out"

    def test_bad_fraction_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="fraction"):
            from_dict(base_config(budget_fractions=[1.5]), tmp_path)

    def test_step_minutes_must_divide_day(self, tmp_path):
        with pytest.raises(ConfigError, match="1440"):
            from_dict(base_config(step_minutes=7), tmp_path)

    def test_policies_required(self, tmp_path):
        with pytest.raises(ConfigError, match="policy"):
            from_dict(base_config(policies=[]), tmp_path)
        with pytest.raises(ConfigError, match="unknown"):
            from_dict(base_config(policies=["XYZ"]), tmp_path)

    def test_unknown_regime(self, tmp_path):
        with pytest.raises(ConfigError, match="regime"):
            from_dict(base_config(regimes=["sideways-detailed"]), tmp_path)

    def test_missing_profile(self, tmp_path):
        data = base_config()
        del data["data"]["synthetic"]["profiles"]["heater"]
        with pytest.raises(ConfigError, match="heater"):
            from_dict(data, tmp_path)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        config = from_file(path)
        assert config.horizon_days == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            from_file(path)


class TestLoadTruth:
    def test_csv_window(self, tmp_path):
        from prepaid_ems.forecast import export_csv, synth_household
        from prepaid_ems.model import TimeGrid

        config = from_dict(base_config(), tmp_path)
        full_grid = TimeGrid.from_minutes(60, 5)
        series = synth_household(9, config.loads, full_grid, config.profiles)
        csv_path = tmp_path / "data.csv"
        export_csv(series, config.loads, csv_path)

        windowed = from_dict(
            base_config(data={"csv": "data.csv"}, start_day=2), tmp_path
        )
        truth = load_truth(windowed)
        assert truth.grid.num_days == 2
        assert np.array_equal(truth.power, series.power[:, 48:96])

    def test_csv_not_whole_days(self, tmp_path):
        config = from_dict(base_config(data={"csv": "data.csv"}), tmp_path)
        lines = ["timestamp,fridge,heater"] + [f"t{i},1,2" for i in range(30)]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="whole"):
            load_truth(config)


class TestRunExperiment:
    def test_cell_counts_and_psf_sanity(self, tmp_path):
        config = from_dict(base_config(), tmp_path)
        results = run_experiment(config)
        assert len(results.cells) == 2 * 2 * 3  # fractions x regimes x policies
        full = [
            c
            for c in results.cells
            if c.policy == "BSL" and c.fraction == 1.0
        ]
        # unrationed with a full budget serves everything
        assert all(c.result.psf == pytest.approx(1.0) for c in full)
        assert all(c.result.disconnection_days == 0 for c in full)

    def test_improvement_is_exact_difference(self, tmp_path):
        config = from_dict(base_config(), tmp_path)
        results = run_experiment(config)
        by_key = {(c.fraction, c.regime, c.policy): c for c in results.cells}
        for cell in results.cells:
            if cell.result is None:
                continue
            bsl = by_key[(cell.fraction, cell.regime, "BSL")]
            assert cell.improvement_pts == pytest.approx(
                (cell.result.psf - bsl.result.psf) * 100, abs=1e-12
            )

    def test_afg_sees_daily_average_of_milp_view(self, tmp_path):
        # information-set consistency: both policies inside a cell look at
        # the same forecast, AFG just gets the averaged version
        config = from_dict(base_config(), tmp_path)
        truth = load_truth(config)
        for regime in config.regimes:
            view = regime.apply(truth)
            limited = daily_average(view)
            if regime.granularity is Granularity.LIMITED:
                assert np.allclose(view.power[:, 0], limited.power[:, 0])

    def test_unsolved_dfm_cell_does_not_abort(self, tmp_path, monkeypatch):
        # Past the DFM solver's work bound a cell reads "unsolved" with
        # the reason, and the rest of the sweep runs.
        monkeypatch.setattr(dfm, "WORK_BOUND", 100)
        config = from_dict(
            base_config(policies=["BSL", "DFM"], horizon_days=4), tmp_path
        )
        results = run_experiment(config)
        dfm_cells = [c for c in results.cells if c.policy == "DFM"]
        assert dfm_cells and all(c.status == "unsolved" for c in dfm_cells)
        assert all(c.result is None for c in dfm_cells)
        assert {c.note for c in dfm_cells} == {
            "unsolved: DFM needs more than 100 candidate pairs"
        }
        assert all(c.status == "ok" for c in results.cells if c.policy == "BSL")


class TestEmitOutputs:
    def test_file_set_and_row_counts(self, tmp_path):
        config = from_dict(base_config(output_dir="results"), tmp_path)
        results = run_experiment(config)
        emit_outputs(results, config.output_dir)
        out = config.output_dir
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + len(results.cells)
        assert (out / "table2.csv").exists()
        assert (out / "table3.csv").exists()
        assert (out / "run_info.csv").exists()
        assert sorted(p.name for p in (out / "traces").iterdir())
        plots = list(out.glob("plotdata_*.csv"))
        assert len(plots) == len(config.regimes)

    def test_table2_columns(self, tmp_path):
        config = from_dict(base_config(), tmp_path)
        results = run_experiment(config)
        emit_outputs(results, config.output_dir)
        header = (config.output_dir / "table2.csv").read_text().splitlines()[0]
        assert header == "balance,detailed_AFG,detailed_OBM"

    def test_table_text(self, tmp_path):
        # Every policy solves; BSL closes Table 3's rows.
        config = from_dict(
            base_config(
                policies=["BSL", "AFG", "DFM", "OBM"],
                horizon_days=4,
                regimes=["perfect-detailed", "perfect-limited", "imperfect-limited"],
            ),
            tmp_path,
        )
        emit_outputs(run_experiment(config), config.output_dir)
        assert (config.output_dir / "table2.csv").read_bytes() == (
            b"balance,detailed_AFG,detailed_DFM,detailed_OBM,"
            b"limited_AFG,limited_DFM,limited_OBM\r\n"
            b"70%,6.33,11.2,11.2,6.33,8.22,6.33\r\n"
            b"100%,0,-6,-1.56,0,-12.2,0\r\n"
        )
        assert (config.output_dir / "table3.csv").read_bytes() == (
            b"balance,limited_AFG,limited_DFM,limited_OBM,BSL,days\r\n"
            b"70%,79 (8.22),76 (5.22),79 (8.22),70.8,1\r\n"
            b"100%,88 (-12),80.2 (-19.8),88 (-12),100,0\r\n"
        )

    def test_table3_without_baseline(self, tmp_path):
        config = from_dict(
            base_config(policies=["OBM", "AFG"], regimes=["imperfect-detailed"]),
            tmp_path,
        )
        emit_outputs(run_experiment(config), config.output_dir)
        assert not (config.output_dir / "table2.csv").exists()
        assert (config.output_dir / "table3.csv").read_bytes() == (
            b"balance,detailed_AFG,detailed_OBM\r\n"
            b"70%,75.3 (15.8),85 (25.5)\r\n"
            b"100%,100 (0),96.3 (-3.68)\r\n"
        )

    def test_shared_results_match_oracle_bundle(self, tmp_path, monkeypatch):
        # BSL cells of one fraction share one result across the regimes:
        # the traces of a fraction are formatted in one writer call, and
        # every file must be what the row-by-row writer gives for its
        # own cell.
        results = run_experiment(from_dict(base_config(), tmp_path))
        solved = [c for c in results.cells if c.result is not None]
        distinct = {id(c.result) for c in solved}
        assert len(distinct) < len(solved)
        calls = []
        write = sim.write_trace_csvs
        monkeypatch.setattr(
            sim,
            "write_trace_csvs",
            lambda *args: calls.append(args[0]) or write(*args),
        )
        emit_outputs(results, tmp_path / "fast")
        fractions = sorted({c.fraction for c in solved})
        assert [len(call) for call in calls] == [
            sum(c.fraction == f for c in solved) for f in fractions
        ]
        assert {id(r) for call in calls for r in call} == distinct

        def oracle(results, loads, paths):
            for result, path in zip(results, paths, strict=True):
                with open(path, "w", newline="") as fh:
                    fh.write(sim_reference.trace_csv_text(result, loads))

        monkeypatch.setattr(sim, "write_trace_csvs", oracle)
        emit_outputs(results, tmp_path / "oracle")
        fast = {
            p.relative_to(tmp_path / "fast"): p.read_bytes()
            for p in (tmp_path / "fast").rglob("*.csv")
        }
        expected = {
            p.relative_to(tmp_path / "oracle"): p.read_bytes()
            for p in (tmp_path / "oracle").rglob("*.csv")
        }
        assert fast == expected
        for cell in solved:
            frac = round(cell.fraction * 100)
            name = f"{cell.regime.label}_b{frac}_{cell.policy}.csv"
            assert fast[Path("traces", name)] == sim_reference.trace_csv_text(
                cell.result, results.loads
            ).encode()

    def test_rerun_byte_identical(self, tmp_path):
        config = from_dict(base_config(), tmp_path)
        emit_outputs(run_experiment(config), config.output_dir)
        first = {
            p.name: p.read_bytes()
            for p in config.output_dir.rglob("*.csv")
        }
        emit_outputs(run_experiment(config), config.output_dir)
        second = {
            p.name: p.read_bytes()
            for p in config.output_dir.rglob("*.csv")
        }
        assert first == second


    @pytest.mark.parametrize(
        "overrides, digest",
        [
            (
                {"policies": ["BSL", "AFG", "DFM", "OBM"]},
                "c8e4489236eb25a89ea640790450b540f7ea2680710209f25be54433ef212a14",
            ),
            (
                {
                    "step_minutes": 15,
                    "horizon_days": 30,
                    "budget_fractions": [0.6, 0.9],
                },
                "17ab60714a1545073dc12640e99775bb6bc9d48696b2280162aa2a7c65c5b5b0",
            ),
            (
                {
                    "data": {"csv": "house.csv"},
                    "start_day": 1,
                    "horizon_days": 3,
                    "policies": ["BSL", "AFG", "DFM", "OBM"],
                },
                "528a921a71f26e18adf78343f09924e03b520d202fdf67767b768c2af9998544",
            ),
        ],
        ids=["2d-60min-all-policies", "30d-15min", "csv-window-noisy"],
    )
    def test_bundle_digest_pinned(self, tmp_path, overrides, digest):
        """The bundle's bytes for three fixed sweeps over all four regimes,
        digested as the benchmark digests them (each CSV's path and
        bytes, in path order). The CSV sweep reads days 1-3 of a 5-day
        file of noisy demand."""
        if "data" in overrides:
            write_noisy_csv(tmp_path / "house.csv", days=5)
        config = from_dict(base_config(regimes=ALL_REGIMES, **overrides), tmp_path)
        emit_outputs(run_experiment(config), config.output_dir)
        sha = hashlib.sha256()
        for path in sorted(config.output_dir.rglob("*.csv")):
            sha.update(path.relative_to(config.output_dir).as_posix().encode() + b"\0")
            sha.update(path.read_bytes())
        assert sha.hexdigest() == digest


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(budget_fractions=[2.0])))
        assert cli.main(["validate", "--config", str(path)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["validate", "--config", str(tmp_path / "none.json")]) == 2

    def test_missing_data_csv_exit_3(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(data={"csv": "absent.csv"})))
        assert cli.main(["run", "--config", str(path)]) == 3

    def test_synth_then_run_csv(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        csv_path = tmp_path / "house.csv"
        assert (
            cli.main(
                [
                    "synth",
                    "--seed",
                    "5",
                    "--days",
                    "2",
                    "--out",
                    str(csv_path),
                    "--config",
                    str(config_path),
                ]
            )
            == 0
        )
        assert csv_path.exists()
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps(base_config(data={"csv": "house.csv"})))
        assert cli.main(["run", "--config", str(run_config)]) == 0
        out = capsys.readouterr().out
        assert "cells" in out
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_synth_default_household(self, tmp_path):
        csv_path = tmp_path / "default.csv"
        assert cli.main(["synth", "--days", "1", "--out", str(csv_path)]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("timestamp,refrigerator,")

    def test_run_overrides(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        out = tmp_path / "elsewhere"
        assert (
            cli.main(
                ["run", "--config", str(config_path), "--out", str(out), "--seed", "77"]
            )
            == 0
        )
        assert (out / "summary.csv").exists()

    def test_dfm_section_is_an_ignored_key(self, tmp_path, caplog):
        """A ``dfm`` section, even one naming a solver that does not
        exist, validates and runs without a warning and leaves the bundle
        byte-identical to the same config without it."""
        section = {
            "backend": "grid",
            "grid_resolution": 16,
            "solver_cmd": "/missing/solver {lp} {sol}",
            "solver_timeout": 5,
        }
        policies = ["BSL", "AFG", "DFM", "OBM"]
        configs = {
            "with": base_config(policies=policies, dfm=section, output_dir="with"),
            "without": base_config(policies=policies, output_dir="without"),
        }
        del configs["without"]["dfm"]
        bundles = []
        for name, data in configs.items():
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(data))
            with caplog.at_level(logging.WARNING):
                assert cli.main(["validate", "--config", str(config_path)]) == 0
                assert cli.main(["run", "--config", str(config_path)]) == 0
            out = tmp_path / name
            bundles.append(
                {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
            )
        assert not caplog.records
        assert bundles[0] and bundles[0] == bundles[1]

    def test_solver_cmd_option_is_gone(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(config_path), "--solver-cmd", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --solver-cmd" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, overrides",
        [
            # Fractions whose trace files would share one name; round()
            # halves to even, so 0.125 and 0.12 are both b12.
            ("budget_fractions", {"budget_fractions": [0.8, 0.804]}),
            ("budget_fractions", {"budget_fractions": [0.125, 0.12]}),
            ("budget_fractions", {"budget_fractions": [0.7, 0.8, 0.7951]}),
            # A JSON boolean is an int to Python, but no number here.
            ("horizon_days", {"horizon_days": True}),
            ("step_minutes", {"step_minutes": True}),
            ("alpha_per_wh", {"alpha_per_wh": True}),
            ("budget_fractions", {"budget_fractions": [True]}),
            ("step_minutes", {"step_minutes": "hourly"}),
            ("horizon_days", {"horizon_days": [2]}),
            ("alpha_per_wh", {"alpha_per_wh": "cheap"}),
            ("shuffle_seed", {"shuffle_seed": "s"}),
            ("start_day", {"start_day": None}),
            ("budget_fractions", {"budget_fractions": ["x"]}),
            ("budget_fractions", {"budget_fractions": 0.5}),
            ("regimes", {"regimes": "perfect-detailed"}),
            ("policies", {"policies": "AFG"}),
            ("alpha_per_wh", {"alpha_per_wh": float("inf")}),
            ("data", {"data": "house.csv"}),
            ("synthetic", {"data": {"synthetic": 3}}),
            ("csv", {"data": {"csv": 3}}),
            ("output_dir", {"output_dir": None}),
            ("loads[0] gamma", {"loads": [{"name": "fridge", "gamma": "x"}, HEATER]}),
            ("loads[0] is missing 'gamma'", {"loads": [{"name": "fridge"}, HEATER]}),
            ("loads[0] must be an object", {"loads": ["fridge", HEATER]}),
            ("loads[1] name", {"loads": [HEATER, {"name": 5, "gamma": 0.7}]}),
            ("loads must be a list", {"loads": {"fridge": 0.7}}),
            (
                "budget_fractions lists [0.8] more than once",
                {"budget_fractions": [0.8, 0.8]},
            ),
            (
                "regimes lists ['perfect-detailed'] more than once",
                {"regimes": ["perfect-detailed", "perfect-detailed"]},
            ),
            (
                "policies lists ['AFG'] more than once",
                {"policies": ["AFG", "AFG", "BSL"]},
            ),
            # Added last, so the cases above keep their ids.
            ("alpha_per_wh", {"alpha_per_wh": "0.00016"}),
            # Synthetic profiles: booleans and numeric strings are no numbers.
            (
                "profile 'fridge' rated_w",
                with_profiles(fridge={**FRIDGE_PROFILE, "rated_w": True}),
            ),
            (
                "profile 'fridge' on_probability",
                with_profiles(fridge={**FRIDGE_PROFILE, "on_probability": "1"}),
            ),
            (
                "profile 'fridge' mean_on_hours",
                with_profiles(fridge={**FRIDGE_PROFILE, "mean_on_hours": "10"}),
            ),
            (
                "profile 'fridge': on_probability must lie in [0, 1]",
                with_profiles(fridge={**FRIDGE_PROFILE, "on_probability": 2.0}),
            ),
            (
                "profile 'fridge' is missing 'mean_on_hours'",
                with_profiles(fridge={"rated_w": 150, "on_probability": 1.0}),
            ),
            ("profile 'heater' must be an object", with_profiles(heater=900)),
            # A synthetic household has no days before its first.
            ("start_day applies to a CSV source only", {"start_day": 5}),
        ],
    )
    def test_malformed_value_exit_2(self, tmp_path, capsys, field, overrides):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(**overrides)))
        for command in ("validate", "run"):
            assert cli.main([command, "--config", str(config_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "out").exists()

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prepaid_ems", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()
