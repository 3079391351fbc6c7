import collections
import errno
import hashlib
import json
import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import sim_reference
from prepaid_ems import cli, dfm, files, sim
from prepaid_ems.config import ConfigError, from_dict, from_file
from prepaid_ems.experiment import emit_outputs, load_truth, run_experiment
from prepaid_ems.files import BundleWriter
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

    def test_byte_order_mark_is_ignored(self, tmp_path):
        """A copy of a CSV saved with a UTF-8 byte-order mark ingests to
        the plain file's series and gives its bundle."""
        write_noisy_csv(tmp_path / "house.csv", days=2)
        data = (tmp_path / "house.csv").read_bytes()
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + data)
        bundles, series = [], []
        for name in ("house", "bom"):
            config = from_dict(
                base_config(
                    data={"csv": f"{name}.csv"},
                    policies=["BSL", "AFG", "DFM", "OBM"],
                    output_dir=f"out_{name}",
                ),
                tmp_path,
            )
            series.append(load_truth(config))
            emit_outputs(run_experiment(config), config.output_dir)
            out = config.output_dir
            files = sorted(out.rglob("*.csv"))
            bundles.append({p.relative_to(out): p.read_bytes() for p in files})
        assert series[0].grid == series[1].grid
        assert series[0].power.tobytes() == series[1].power.tobytes()
        assert bundles[0] == bundles[1]

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

    def test_synthetic_power_priced_below_the_smallest_float(self, tmp_path):
        """A synthetic ``rated_w`` whose cost per step is below the
        smallest normal float stops the sweep before any planner runs."""
        heater = {"rated_w": 1e-310, "on_probability": 1.0, "mean_on_hours": 4}
        config = from_dict(base_config(**with_profiles(heater=heater)), tmp_path)
        with pytest.raises(ValueError, match="^load 'heater' at step "):
            run_experiment(config)

    def test_unsolved_dfm_cell_does_not_abort(self, tmp_path, monkeypatch):
        # Past the DFM solver's work bound a cell reads "unsolved" with
        # the reason, and the rest of the sweep runs. Noisy detailed views
        # take the dynamic program; a flat view is never past the bound.
        monkeypatch.setattr(dfm, "WORK_BOUND", 100)
        write_noisy_csv(tmp_path / "house.csv", days=4)
        config = from_dict(
            base_config(
                data={"csv": "house.csv"},
                policies=["BSL", "DFM"],
                horizon_days=4,
                regimes=["perfect-detailed", "imperfect-detailed"],
            ),
            tmp_path,
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
            b"70%,4.78,11.2,11.2,4.78,4.78,6.33\r\n"
            b"100%,-1.56,-1.56,-1.56,-1.56,-1.56,0\r\n"
        )
        assert (config.output_dir / "table3.csv").read_bytes() == (
            b"balance,limited_AFG,limited_DFM,limited_OBM,BSL,days\r\n"
            b"70%,79 (8.22),77.4 (6.67),79 (8.22),70.8,1\r\n"
            b"100%,88 (-12),88 (-12),88 (-12),100,0\r\n"
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
            b"70%,85 (25.5),85 (25.5)\r\n"
            b"100%,96.3 (-3.68),96.3 (-3.68)\r\n"
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
        written = emit_outputs(results, tmp_path / "fast")
        # Sizes as the call leaves them, before anything else runs.
        sizes = [p.stat().st_size for p in written]
        # One call per fraction, in order: each of the fraction's trace
        # paths once, as a group's path or as a twin, and each group's
        # result that of one of its cells.
        cell_at = {
            tmp_path
            / "fast"
            / "traces"
            / f"{c.regime.label}_b{round(c.fraction * 100)}_{c.policy}.csv": c
            for c in solved
        }
        fractions = sorted({c.fraction for c in solved})
        assert len(calls) == len(fractions)
        for fraction, groups in zip(fractions, calls):
            named = [[path, *twins] for _, path, twins in groups]
            assert sorted(p for names in named for p in names) == sorted(
                p for p, c in cell_at.items() if c.fraction == fraction
            )
            for (result, _, _), names in zip(groups, named):
                assert any(cell_at[p].result is result for p in names)

        def oracle(groups, loads, write):
            for result, path, twins in groups:
                assert not twins
                write(path, [sim_reference.trace_csv_text(result, loads).encode()])

        # The oracle writes every file from its own cell's result.
        monkeypatch.setattr(
            sim,
            "trace_groups",
            lambda results, paths: [
                (r, p, ()) for r, p in zip(results, paths, strict=True)
            ],
        )
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
        # The returned paths, in the order the serial writer returned
        # them, each already at its final size.
        assert [p.relative_to(tmp_path / "fast").as_posix() for p in written] == [
            "run_info.csv",
            "summary.csv",
            "table2.csv",
            "table3.csv",
            "plotdata_imperfect-limited.csv",
            "plotdata_perfect-detailed.csv",
            *(
                f"traces/{regime}_{tag}_{policy}.csv"
                for tag in ("b70", "b100")
                for regime in ("imperfect-limited", "perfect-detailed")
                for policy in ("AFG", "BSL", "OBM")
            ),
        ]
        assert sizes == [
            len(expected[p.relative_to(tmp_path / "fast")]) for p in written
        ]
        for cell in solved:
            frac = round(cell.fraction * 100)
            name = f"{cell.regime.label}_b{frac}_{cell.policy}.csv"
            assert fast[Path("traces", name)] == sim_reference.trace_csv_text(
                cell.result, results.loads
            ).encode()

    def test_groups_each_fraction_once(self, tmp_path, monkeypatch):
        """One emit groups each budget fraction's trace files once, and
        the formatter gets those same groups."""
        results = run_experiment(from_dict(base_config(), tmp_path))
        grouped, handed = [], []
        group, write = sim.trace_groups, sim.write_trace_csvs
        monkeypatch.setattr(
            sim, "trace_groups", lambda *args: grouped.append(group(*args)) or grouped[-1]
        )
        monkeypatch.setattr(
            sim,
            "write_trace_csvs",
            lambda groups, *args: handed.append(groups) or write(groups, *args),
        )
        emit_outputs(results, tmp_path / "out")
        assert len(grouped) == len({c.fraction for c in results.cells}) == 2
        assert [id(groups) for groups in handed] == [id(groups) for groups in grouped]

    @pytest.mark.parametrize(
        "fault",
        [
            "none",
            "traces-is-a-file",
            "trace-is-a-directory",
            "formatter-raises",
            "disk-full-without-filename",
        ],
    )
    def test_writer_thread_is_joined(self, tmp_path, monkeypatch, fault):
        """The writer's errors reach the caller with their path, an error
        in formatting still stops the writer, and no thread outlives the
        call either way. A failed call leaves no file that it created
        ahead empty, and a trace left by an earlier run that the call
        never reached keeps its bytes."""
        results = run_experiment(from_dict(base_config(), tmp_path))
        out = tmp_path / "bundle"
        out.mkdir()
        failing = {
            "traces-is-a-file": out / "traces",
            "trace-is-a-directory": out / "traces" / "perfect-detailed_b100_AFG.csv",
            "disk-full-without-filename": out / "traces" / "perfect-detailed_b70_AFG.csv",
        }.get(fault)
        kept = out / "traces" / "perfect-detailed_b100_AFG.csv"
        if fault == "traces-is-a-file":
            failing.write_bytes(b"")
        elif fault == "trace-is-a-directory":
            failing.mkdir(parents=True)
        elif fault == "formatter-raises":
            kept.parent.mkdir()
            kept.write_bytes(b"earlier run")
            write_traces = sim.write_trace_csvs

            def second_fails(groups, loads, *args):
                if formatted:
                    # Once the writer has created this fraction's written
                    # files; twins are never created ahead.
                    paths = [path for _, path, _ in groups]
                    deadline = time.monotonic() + 30
                    while not all(map(Path.exists, paths)) and time.monotonic() < deadline:
                        time.sleep(0.001)
                    raise RuntimeError("formatter failed")
                formatted.append(groups)
                write_traces(groups, loads, *args)

            formatted = []
            monkeypatch.setattr(sim, "write_trace_csvs", second_fails)
        elif fault == "disk-full-without-filename":
            write_file = files.write_file

            def disk_full(path, chunks):
                if path == failing:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                write_file(path, chunks)

            monkeypatch.setattr(files, "write_file", disk_full)
        threads = threading.active_count()
        if fault == "none":
            emit_outputs(results, out)
        elif fault == "formatter-raises":
            with pytest.raises(RuntimeError, match="formatter failed"):
                emit_outputs(results, out)
            assert kept.read_bytes() == b"earlier run"
            assert [p.name for p in out.glob("traces/*_b100_*")] == [kept.name]
        else:
            with pytest.raises(OSError) as raised:
                emit_outputs(results, out)
            assert raised.value.filename == str(failing)
            assert str(failing) in str(raised.value)
        assert threading.active_count() == threads
        csvs = [p for p in out.rglob("*.csv") if p.is_file()]
        assert all(p.stat().st_size for p in csvs)

    def test_file_created_ahead_keeps_bytes_written_first(self, tmp_path):
        """Creating the files ahead never truncates one already written:
        here the thread writes ``a`` before its turn to create it comes,
        and ``b`` exists only once ``a``'s turn has passed."""
        a, b = tmp_path / "out" / "a.csv", tmp_path / "out" / "b.csv"
        writer = BundleWriter(tmp_path / "out", ahead=[a, b])
        writer.write(a, [b"bytes"])
        with writer:
            deadline = time.monotonic() + 30
            while not b.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        assert a.read_bytes() == b"bytes"
        assert b.read_bytes() == b""

    def test_non_ascii_names_as_text_files_write_them(self, tmp_path):
        """A load name outside ASCII is written as the bytes that a file
        opened with ``open(path, "w", newline="")`` gets for its text."""
        data = base_config()
        data["loads"][0]["name"] = "Küche"
        profiles = data["data"]["synthetic"]["profiles"]
        profiles["Küche"] = profiles.pop("fridge")
        config = from_dict(data, tmp_path)
        emit_outputs(run_experiment(config), config.output_dir)
        lines = {
            "run_info.csv": "loads,Küche;heater\r\n",
            "summary.csv": "fraction,fidelity,granularity,policy,status,psf,"
            "improvement_pts,total_spend,disconnection_days,first_disconnect_step,"
            "solver_objective,sf_Küche,sf_heater,note\r\n",
            "traces/perfect-detailed_b70_AFG.csv": (
                "t,real_balance,virtual_balance,a_Küche,a_heater\r\n"
            ),
        }
        expected = tmp_path / "expected.csv"
        for name, line in lines.items():
            with open(expected, "w", newline="") as fh:
                fh.write(line)
            assert expected.read_bytes() in (config.output_dir / name).read_bytes()

    def test_each_file_written_once(self, tmp_path, monkeypatch):
        """One emit writes each small CSV and each distinct trace through
        one truncating open, and makes every other trace file with the
        same bytes through one hard link to it; it opens or links no
        other path. The writer may also have created a written trace
        ahead, empty, through one non-truncating open. Each distinct
        trace is one inode."""
        config = from_dict(base_config(step_minutes=15, horizon_days=30), tmp_path)
        results = run_experiment(config)
        opened = collections.Counter()  # (path, truncating) -> opens
        linked = collections.Counter()  # path -> links made to it
        real_open, real_link = os.open, os.link

        def counting_open(path, flags, *args, **kwargs):
            opened[os.fspath(path), bool(flags & os.O_TRUNC)] += 1
            return real_open(path, flags, *args, **kwargs)

        def counting_link(src, dst, *args, **kwargs):
            linked[os.fspath(dst)] += 1
            return real_link(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(os, "link", counting_link)
        paths = emit_outputs(results, tmp_path / "bundle")
        by_bytes = collections.defaultdict(list)
        for path in paths:
            by_bytes[path.read_bytes()].append(str(path))
        assert len(by_bytes) < len(paths)
        written = {path for path, _ in opened}
        assert written | set(linked) == {str(p) for p in paths}
        assert all(opened[path, True] == 1 for path in written)
        assert all(opened[path, False] <= 1 for path in written)
        assert all(count == 1 for count in linked.values())
        assert not written & set(linked)
        for same in by_bytes.values():
            assert len(written.intersection(same)) == 1
            assert len({os.stat(path).st_ino for path in same}) == 1

    def test_rerun_byte_identical(self, tmp_path):
        """A rerun into the same directory writes the same bytes, also
        over files longer than its own, which it truncates."""
        config = from_dict(base_config(), tmp_path)

        def emit():
            emit_outputs(run_experiment(config), config.output_dir)
            return {
                p.name: p.read_bytes()
                for p in config.output_dir.rglob("*.csv")
            }

        first = emit()
        assert emit() == first
        for path in config.output_dir.rglob("*.csv"):
            path.write_bytes(b"junk," * (len(first[path.name]) // 5 + 100))
        assert emit() == first

    def test_rerun_keeps_bytes_of_other_links(self, tmp_path):
        """A rerun of another config into a bundle whose files also have
        names in a snapshot (as ``cp -al`` makes) replaces the bundle's
        files and leaves the snapshot's bytes alone."""
        out, snap = tmp_path / "out", tmp_path / "snap"
        emit_outputs(run_experiment(from_dict(base_config(), tmp_path)), out)
        first = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}
        for name in first:
            (snap / name).parent.mkdir(parents=True, exist_ok=True)
            os.link(out / name, snap / name)
        changed = run_experiment(from_dict(base_config(alpha_per_wh=0.0002), tmp_path))
        emit_outputs(changed, out)
        emit_outputs(changed, tmp_path / "fresh")
        assert {p.relative_to(snap): p.read_bytes() for p in snap.rglob("*.csv")} == first
        assert {
            p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")
        } == {
            p.relative_to(tmp_path / "fresh"): p.read_bytes()
            for p in (tmp_path / "fresh").rglob("*.csv")
        }

    def test_failed_links_write_each_file(self, tmp_path, monkeypatch):
        """Where the file system refuses hard links, every file is written
        in full: the same bundle, one inode per file, no empty file."""
        config = from_dict(base_config(policies=["BSL", "AFG", "DFM", "OBM"]), tmp_path)
        results = run_experiment(config)
        linked = emit_outputs(results, tmp_path / "linked")

        def refuse(*args, **kwargs):
            raise OSError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(os, "link", refuse)
        copied = emit_outputs(results, tmp_path / "copied")
        assert any(p.stat().st_nlink > 1 for p in linked)
        assert [p.read_bytes() for p in copied] == [p.read_bytes() for p in linked]
        assert all(p.stat().st_nlink == 1 for p in copied)
        assert all(p.stat().st_size for p in copied)

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            (
                {"policies": ["BSL", "AFG", "DFM", "OBM"]},
                "c3a4b2ec01077a49a8744f8ebda73dc90a80e4d16cadaa9f5f3ee08e909bbc8a",
            ),
            (
                {
                    "step_minutes": 15,
                    "horizon_days": 30,
                    "budget_fractions": [0.6, 0.9],
                },
                "78b3af6efce7b15af7a1eefa5595fce4d82debc7c76d443fc4d4c2ff8ae1c970",
            ),
            (
                {
                    "data": {"csv": "house.csv"},
                    "start_day": 1,
                    "horizon_days": 3,
                    "policies": ["BSL", "AFG", "DFM", "OBM"],
                },
                "0aeca0b6ae52b521311f721a2c7cd586b147cde2adb4566aa26044714efd95fb",
            ),
            (
                {
                    "step_minutes": 15,
                    "horizon_days": 30,
                    "policies": ["BSL", "AFG", "DFM", "OBM"],
                },
                "40f4cb0304ea28d8feaf6cfd1669f82a75697ad883687a20bdd128bad71502d5",
            ),
        ],
        ids=["2d-60min-all-policies", "30d-15min", "csv-window-noisy", "30d-15min-dfm"],
    )
    def test_bundle_digest_pinned(self, tmp_path, overrides, digest):
        """The bundle's bytes for four fixed sweeps over all four regimes,
        digested as the benchmark digests them (each CSV's path and
        bytes, in path order). The CSV sweep reads days 1-3 of a 5-day
        file of noisy demand; the last sweep runs DFM over 30 days of
        15-minute steps and solves every cell."""
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

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        threads = threading.active_count()
        argv = ["run", "--config", str(config_path), "--out", str(config_path)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert str(config_path) in err
        assert threading.active_count() == threads

    @pytest.mark.parametrize("value", [1e-320, 1e-310])
    @pytest.mark.parametrize("policy", ["AFG", "DFM", "OBM"])
    def test_power_priced_below_the_smallest_float_exit_3(
        self, tmp_path, policy, value
    ):
        """A positive power whose cost per step, or whose day's average
        power priced per step or per hour, is below the smallest normal
        float is a data error naming the load and the step: no planner
        divides by it. Here the heater's only demand on day 1 is one
        such cell at step 30."""
        config = from_dict(base_config(), tmp_path)
        grid = TimeGrid.from_minutes(60, 2)
        power = synth_household(5, config.loads, grid, config.profiles).power.copy()
        power[1, 24:] = 0.0
        power[1, 30] = value
        export_csv(DemandSeries(grid, power), config.loads, tmp_path / "house.csv")
        config_path = tmp_path / "config.json"
        data = base_config(data={"csv": "house.csv"}, policies=["BSL", policy])
        config_path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "prepaid_ems", "run", "--config", str(config_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith(
            f"data error: load 'heater' at step 30: power {value!r} W "
        )
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

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
        """``--seed`` writes the bundle of a config with that
        ``shuffle_seed``, which differs from the config's own seed's: the
        seeds order 3 days differently (2 days they order alike)."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(horizon_days=3)))
        out = tmp_path / "elsewhere"
        assert (
            cli.main(
                ["run", "--config", str(config_path), "--out", str(out), "--seed", "77"]
            )
            == 0
        )
        seeded_path = tmp_path / "seeded.json"
        seeded_path.write_text(json.dumps(base_config(horizon_days=3, shuffle_seed=77)))
        seeded = tmp_path / "seeded"
        argv = ["run", "--config", str(seeded_path), "--out", str(seeded)]
        assert cli.main(argv) == 0
        assert cli.main(["run", "--config", str(config_path)]) == 0
        bundles = [
            {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*.csv"))}
            for d in (out, seeded, tmp_path / "out")
        ]
        assert (out / "summary.csv").exists()
        assert bundles[0] == bundles[1] != bundles[2]

    def test_rerun_with_another_seed_over_linked_bundle(self, tmp_path):
        """A 2-day CSV bundle of ``--seed 1``, whose equal traces are
        hard links to one file, rerun with ``--seed 2`` into the same
        directory: every file is that of a fresh ``--seed 2`` run, also
        where the two seeds group the traces differently."""
        write_noisy_csv(tmp_path / "house.csv", days=2)
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                base_config(
                    data={"csv": "house.csv"},
                    regimes=ALL_REGIMES,
                    policies=["BSL", "AFG", "DFM", "OBM"],
                )
            )
        )

        def run(out, seed):
            argv = ["run", "--config", str(config_path), "--out", str(out)]
            assert cli.main([*argv, "--seed", seed]) == 0
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}

        seed_1 = run(tmp_path / "out", "1")
        assert any(p.stat().st_nlink > 1 for p in (tmp_path / "out").rglob("*.csv"))
        fresh = run(tmp_path / "fresh", "2")
        assert fresh != seed_1
        assert run(tmp_path / "out", "2") == fresh

    def test_relative_output_paths(self, tmp_path, monkeypatch):
        """A relative ``--out`` lands under the working directory, a
        relative ``output_dir`` under the config file's directory."""
        config_path = tmp_path / "configs" / "config.json"
        config_path.parent.mkdir()
        config_path.write_text(json.dumps(base_config(output_dir="from_config")))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "configs" / "from_config" / "summary.csv").exists()
        argv = ["run", "--config", str(config_path), "--out", "from_cli"]
        assert cli.main(argv) == 0
        assert (work / "from_cli" / "summary.csv").exists()
        assert sorted(p.name for p in work.iterdir()) == ["from_cli"]

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
            ("horizon_days must be positive", {"horizon_days": 0}),
            ("start_day must be non-negative", {"start_day": -1}),
            ("at least one budget fraction", {"budget_fractions": []}),
            ("at least one forecast regime", {"regimes": []}),
            ("at least one load", {"loads": []}),
            # A callable edits the whole config: here it leaves out a
            # required key, and last it makes the file a JSON list.
            (
                "missing required config field 'alpha_per_wh'",
                lambda data: {k: v for k, v in data.items() if k != "alpha_per_wh"},
            ),
            ("data section must contain 'csv' or 'synthetic'", {"data": {}}),
            ("duplicate load names: ['heater']", {"loads": [HEATER, HEATER]}),
            ("must contain a JSON object", lambda data: [data]),
            # Seeds outside [0, 2**64) would wrap onto the seeds inside it.
            ("shuffle_seed must lie in [0, 2**64), got -1", {"shuffle_seed": -1}),
            ("shuffle_seed must lie in [0, 2**64)", {"shuffle_seed": 2**64}),
            (
                "synthetic seed must lie in [0, 2**64), got -1",
                lambda data: {
                    **data,
                    "data": {"synthetic": {**data["data"]["synthetic"], "seed": -1}},
                },
            ),
        ],
    )
    def test_malformed_value_exit_2(self, tmp_path, capsys, field, overrides):
        config_path = tmp_path / "config.json"
        if callable(overrides):
            data = overrides(base_config())
        else:
            data = base_config(**overrides)
        config_path.write_text(json.dumps(data))
        for command in ("validate", "run"):
            assert cli.main([command, "--config", str(config_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_seed_flag_out_of_range_exit_2(self, tmp_path, capsys, command, seed):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        out = tmp_path / ("out" if command == "run" else "house.csv")
        args = [command, "--config", str(config_path), "--out", str(out)]
        if command == "synth":
            args += ["--days", "1"]
        assert cli.main([*args, "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("config error: --seed must lie in")
        assert not out.exists()

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prepaid_ems", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()
