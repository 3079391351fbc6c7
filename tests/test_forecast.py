import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepaid_ems.forecast import (
    ApplianceProfile,
    CsvError,
    Fidelity,
    ForecastSpec,
    Granularity,
    MissingColumn,
    NegativePower,
    RowCountMismatch,
    UnparseableNumber,
    day_permutation,
    export_csv,
    ingest_csv,
    shuffle_days,
    slice_days,
    synth_household,
    to_limited,
)
from prepaid_ems.model import DemandSeries, LoadSet, TimeGrid
from prepaid_ems.rng import SplitMix64


@pytest.fixture
def four_loads():
    return LoadSet.from_pairs(
        [("fridge", 0.48), ("compressor", 0.24), ("microwave", 0.16), ("washer", 0.12)]
    )


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestIngest:
    def test_shape(self, tmp_path, four_loads):
        grid = TimeGrid.from_minutes(15, 30)
        rows = [[f"t{i}", 1.0, 2.0, 3.0, 4.0] for i in range(grid.total_steps)]
        path = tmp_path / "d.csv"
        write_csv(path, ["timestamp", *four_loads.names], rows)
        series = ingest_csv(path, four_loads, 15)
        assert series.grid == grid
        assert series.power.shape == (4, 2880)

    def test_negative_power_names_line(self, tmp_path, four_loads):
        rows = [[f"t{i}", 1.0, 2.0, 3.0, 4.0] for i in range(96)]
        rows[10][2] = -5.0
        path = tmp_path / "d.csv"
        write_csv(path, ["timestamp", *four_loads.names], rows)
        with pytest.raises(NegativePower, match=":12:"):
            ingest_csv(path, four_loads, 15)

    def test_missing_column(self, tmp_path, four_loads):
        path = tmp_path / "d.csv"
        write_csv(path, ["timestamp", "fridge", "compressor"], [])
        with pytest.raises(MissingColumn, match="microwave"):
            ingest_csv(path, four_loads, 15)

    def test_row_count_mismatch(self, tmp_path, four_loads):
        rows = [[f"t{i}", 1, 2, 3, 4] for i in range(95)]
        path = tmp_path / "d.csv"
        write_csv(path, ["timestamp", *four_loads.names], rows)
        with pytest.raises(RowCountMismatch, match="95 data rows .* 96-step days"):
            ingest_csv(path, four_loads, 15)

    def test_unparseable_number(self, tmp_path, four_loads):
        rows = [[f"t{i}", 1, 2, 3, 4] for i in range(96)]
        rows[5][4] = "oops"
        path = tmp_path / "d.csv"
        write_csv(path, ["timestamp", *four_loads.names], rows)
        with pytest.raises(UnparseableNumber, match="washer"):
            ingest_csv(path, four_loads, 15)

    def test_round_trip(self, tmp_path, four_loads):
        grid = TimeGrid.from_minutes(30, 2)
        rng = np.random.default_rng(7)
        series = DemandSeries(grid, rng.uniform(0, 1500, (4, grid.total_steps)))
        path = tmp_path / "out.csv"
        export_csv(series, four_loads, path)
        again = ingest_csv(path, four_loads, 30)
        assert again.grid == grid
        assert np.array_equal(series.power, again.power)

    def test_whole_days_takes_the_day_count_from_the_file(self, tmp_path, four_loads):
        path = tmp_path / "d.csv"
        for rows, days in ((72, 3), (24, 1), (0, None), (30, None)):
            write_csv(
                path,
                ["timestamp", *four_loads.names],
                [[f"t{i}", 1, 2, 3, i] for i in range(rows)],
            )
            if days is None:
                with pytest.raises(RowCountMismatch, match="whole number"):
                    ingest_csv(path, four_loads, 60)
            else:
                series = ingest_csv(path, four_loads, 60)
                assert series.grid == TimeGrid.from_minutes(60, days)
                assert np.array_equal(series.power[3], np.arange(rows))

    def test_errors_are_csv_errors(self, tmp_path, four_loads):
        path = tmp_path / "d.csv"
        write_csv(path, ["nope"], [])
        with pytest.raises(CsvError):
            ingest_csv(path, four_loads, 15)

    def test_cells_parse_bit_for_bit_as_float(self, tmp_path, four_loads):
        # numpy parses the whole file at once; every cell must get the bits
        # that float() gives it, as in the cell-by-cell loop.
        cells = [
            "1_000", " 5", "5 ", "-0", "5e-324", "1e-400", "\u0661\u0662",
            "\u0be7", "+3", ".5", "1.", "0.1", "123456789012345678901234567890",
            "2.2250738585072014e-308", "1e308", "0",
        ]
        rows = [[f"t{i}", *cells[4 * i : 4 * i + 4]] for i in range(4)]
        path = tmp_path / "d.csv"
        write_csv(path, ["timestamp", *four_loads.names], rows)
        power = ingest_csv(path, four_loads, 360).power
        assert power.flags.c_contiguous
        for i, row in enumerate(rows):
            for k, cell in enumerate(row[1:]):
                assert power[k, i].tobytes() == np.float64(float(cell)).tobytes(), cell

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (
                {(3, 4): "nan"},
                UnparseableNumber,
                ":5: column 'washer' has non-finite value 'nan'",
            ),
            (
                {(3, 1): "1e500"},
                UnparseableNumber,
                ":5: column 'fridge' has non-finite value '1e500'",
            ),
            (
                {(2, 2): "-1"},
                NegativePower,
                ":4: column 'compressor' has negative power -1.0",
            ),
            ({(1, 3): "1,5"}, MissingColumn, ":3: expected 5 fields, got 6"),
            (
                {(5, 3): "oops", (4, 2): "-2"},
                NegativePower,
                ":6: column 'compressor' has negative power -2.0",
            ),
            (
                {(4, 4): "-nan", (6, 1): "x"},
                UnparseableNumber,
                ":6: column 'washer' has non-finite value '-nan'",
            ),
            # Row -1 is the header; no cells at all is an empty file.
            (
                {(-1, 1): "compressor", (-1, 2): "fridge"},
                MissingColumn,
                ":1: header ['timestamp', 'compressor', 'fridge', 'microwave', "
                "'washer'] does not match expected ['timestamp', 'fridge', "
                "'compressor', 'microwave', 'washer']",
            ),
            (None, MissingColumn, ": empty file, expected header line"),
        ],
    )
    def test_error_names_first_bad_line_and_column(
        self, tmp_path, four_loads, bad, error, message
    ):
        path = tmp_path / "d.csv"
        if bad is None:
            path.write_text("")
        else:
            rows = [[f"t{i}", 1, 2, 3, 4] for i in range(8)]
            header = ["timestamp", *four_loads.names]
            for (i, k), cell in bad.items():
                (rows[i] if i >= 0 else header)[k] = cell
            write_csv(path, header, rows)
        with pytest.raises(error) as info:
            ingest_csv(path, four_loads, 360)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize(
        "edit, end, expected",
        [
            ({}, "\n", None),
            ({}, "\r\n", None),
            ({}, "\r", None),
            ({3: "t#3,3.5,6,0.31,3e3"}, "\r\n", None),
            ({1: '"2000-01-01, 06:00",1.5,2,0.11,1e3'}, "\r\n", None),
            (
                {2: "t2,2.5,2#5,0.21,2e3"},
                "\r\n",
                (
                    UnparseableNumber,
                    ":4: column 'compressor' has unparseable value '2#5'",
                ),
            ),
            (
                {6: "t6,\x1c6.5,12,0.61,6e3"},
                "\n",
                (
                    UnparseableNumber,
                    ":8: column 'fridge' has unparseable value '\\x1c6.5'",
                ),
            ),
            ({3: ""}, "\n", (MissingColumn, ":5: expected 5 fields, got 0")),
            ({7: ""}, "\r\n", (MissingColumn, ":9: expected 5 fields, got 0")),
            (
                {2: "t2,2.5,4,0.21,2e3,9", 5: "t5,5.5,10,0.51"},
                "\n",
                (MissingColumn, ":4: expected 5 fields, got 6"),
            ),
            (
                {3: "t3,3.5,6,0.31,3e3\r"},
                "\r\n",
                (
                    RowCountMismatch,
                    ": 9 data rows is not a whole number of 4-step days",
                ),
            ),
            (
                {2: '"t2,2.5,4,0.21,2e3', 3: 't3",3.5,6,0.31,3e3'},
                "\r\n",
                (
                    RowCountMismatch,
                    ": 7 data rows is not a whole number of 4-step days",
                ),
            ),
            (
                {0: '"t0\r\nx",0.5,0,0.01,0e3', 3: "t3,oops,6,0.31,3e3"},
                "\r\n",
                (
                    UnparseableNumber,
                    ":6: column 'fridge' has unparseable value 'oops'",
                ),
            ),
        ],
        ids=[
            "lf",
            "crlf",
            "cr",
            "hash-in-timestamp",
            "quoted-timestamp-with-comma",
            "hash-in-load-cell",
            "separator-before-value",
            "blank-line-between-rows",
            "trailing-blank-line",
            "extra-and-missing-field",
            "lone-cr-before-crlf",
            "quoted-timestamp-over-two-lines",
            "bad-cell-after-a-record-over-two-lines",
        ],
    )
    def test_files_numpy_reads_otherwise_read_as_csv_and_float(
        self, tmp_path, four_loads, edit, end, expected
    ):
        # numpy's reader would take most of these files otherwise than csv
        # and float do (comments, blank lines it skips, quotes, a lone CR,
        # a separator it strips as whitespace, or extra fields that
        # usecols drops); each must give the cell loop's array or error.
        lines = [f"t{i},{i}.5,{2 * i},0.{i}1,{i}e3" for i in range(8)]
        for i, line in edit.items():
            lines[i] = line
        path = tmp_path / "d.csv"
        header = "timestamp,fridge,compressor,microwave,washer"
        path.write_bytes((end.join([header, *lines]) + end).encode())
        if expected is not None:
            error, message = expected
            with pytest.raises(error) as info:
                ingest_csv(path, four_loads, 360)
            assert str(info.value) == f"{path}{message}"
            return
        power = ingest_csv(path, four_loads, 360).power
        cells = [line.rsplit(",", 4)[1:] for line in lines]
        want = np.array([[float(c) for c in row] for row in cells]).T
        assert power.tobytes() == want.tobytes()


class TestShuffleDays:
    def test_single_day_identity(self):
        grid = TimeGrid(1.0, 24, 1)
        series = DemandSeries(grid, np.arange(24.0)[None, :])
        for seed in (0, 1, 99):
            assert np.array_equal(shuffle_days(series, seed).power, series.power)

    def test_deterministic(self):
        grid = TimeGrid(1.0, 24, 10)
        rng = np.random.default_rng(3)
        series = DemandSeries(grid, rng.uniform(0, 100, (2, 240)))
        a = shuffle_days(series, 42)
        b = shuffle_days(series, 42)
        assert np.array_equal(a.power, b.power)

    def test_seeds_differ(self):
        grid = TimeGrid(1.0, 24, 12)
        series = DemandSeries(grid, np.arange(288.0)[None, :])
        assert not np.array_equal(
            shuffle_days(series, 1).power, shuffle_days(series, 2).power
        )

    @given(seed=st.integers(0, 2**64 - 1), days=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_multiset_of_day_blocks_preserved(self, seed, days):
        grid = TimeGrid(4.0, 6, days)
        rng = np.random.default_rng(seed % 2**32)
        series = DemandSeries(grid, rng.uniform(0, 50, (2, grid.total_steps)))
        shuffled = shuffle_days(series, seed)

        def checksums(s):
            blocks = s.power.reshape(2, days, 6)
            return sorted(
                hashlib.sha256(blocks[:, d, :].tobytes()).hexdigest()
                for d in range(days)
            )

        assert checksums(series) == checksums(shuffled)

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inverse_permutation_restores(self, seed):
        days = 8
        grid = TimeGrid(4.0, 6, days)
        series = DemandSeries(
            grid, np.arange(grid.total_steps, dtype=float)[None, :] % 97
        )
        perm = day_permutation(days, seed)
        shuffled = shuffle_days(series, seed)
        inverse = np.empty(days, dtype=int)
        for i, p in enumerate(perm):
            inverse[p] = i
        blocks = shuffled.power.reshape(1, days, 6)
        restored = blocks[:, inverse, :].reshape(1, -1)
        assert np.array_equal(restored, series.power)

    def test_splitmix_reference_values(self):
        # first outputs for seed 0 of the reference splitmix64 stream
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_splitmix_rejects_seeds_it_would_wrap(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SplitMix64(seed)

    @pytest.mark.parametrize(
        "draw, expected",
        [
            # Rounds to 2**64 as a float: the largest float below 1.
            (2**64 - 1, 1.0 - 2.0**-53),
            # The largest draw below those: its quotient, unchanged.
            (2**64 - 1025, (2**64 - 1025) / 2.0**64),
        ],
    )
    def test_uniform_stays_below_one(self, monkeypatch, draw, expected):
        monkeypatch.setattr(SplitMix64, "next_u64", lambda self: draw)
        rng = SplitMix64(0)
        assert rng.uniform() < 1.0
        assert rng.uniform() == expected


class TestToLimited:
    def test_constant_unchanged(self):
        grid = TimeGrid(1.0, 24, 2)
        series = DemandSeries(grid, np.full((1, 48), 75.0))
        assert np.allclose(to_limited(series).power, series.power)

    def test_two_step_flattening(self):
        grid = TimeGrid(12.0, 2, 1)
        series = DemandSeries(grid, [[0.0, 400.0]])
        assert to_limited(series).power.tolist() == [[200.0, 200.0]]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cost_preserved_and_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(0.5, 48, 2)
        series = DemandSeries(grid, rng.uniform(0, 900, (3, grid.total_steps)))
        limited = to_limited(series)
        assert limited.power.sum() * grid.step_hours == pytest.approx(
            series.power.sum() * grid.step_hours, rel=1e-9
        )
        assert np.allclose(to_limited(limited).power, limited.power)


class TestForecastSpec:
    def test_seed_required_iff_shuffled(self):
        ForecastSpec(Fidelity.PERFECT, Granularity.DETAILED)
        ForecastSpec(Fidelity.IMPERFECT_SHUFFLED, Granularity.LIMITED, 4)
        with pytest.raises(ValueError):
            ForecastSpec(Fidelity.IMPERFECT_SHUFFLED, Granularity.DETAILED)
        with pytest.raises(ValueError):
            ForecastSpec(Fidelity.PERFECT, Granularity.DETAILED, 4)

    def test_apply_composes(self):
        grid = TimeGrid(12.0, 2, 2)
        series = DemandSeries(grid, [[0.0, 100.0, 300.0, 500.0]])
        spec = ForecastSpec(Fidelity.IMPERFECT_SHUFFLED, Granularity.LIMITED, 9)
        view = spec.apply(series)
        limited_then_shuffled = shuffle_days(to_limited(series), 9)
        assert np.allclose(view.power, limited_then_shuffled.power)


class TestSliceDays:
    def test_window(self):
        grid = TimeGrid(1.0, 24, 5)
        series = DemandSeries(grid, np.arange(120.0)[None, :])
        window = slice_days(series, 2, 2)
        assert window.grid.num_days == 2
        assert window.power[0, 0] == 48.0
        with pytest.raises(ValueError):
            slice_days(series, 4, 2)


class TestSynth:
    def test_zero_probability_is_silent(self, four_loads):
        grid = TimeGrid.from_minutes(15, 20)
        profiles = {
            name: ApplianceProfile(1000.0, 0.0 if name == "washer" else 1.0, 4.0)
            for name in four_loads.names
        }
        series = synth_household(5, four_loads, grid, profiles)
        assert series.power[3].sum() == 0.0
        assert series.power[0].sum() > 0.0

    def test_deterministic(self, four_loads):
        grid = TimeGrid.from_minutes(15, 10)
        profiles = {
            name: ApplianceProfile(500.0, 0.8, 5.0) for name in four_loads.names
        }
        a = synth_household(11, four_loads, grid, profiles)
        b = synth_household(11, four_loads, grid, profiles)
        assert np.array_equal(a.power, b.power)
        c = synth_household(12, four_loads, grid, profiles)
        assert not np.array_equal(a.power, c.power)

    def test_mean_on_hours_statistic(self):
        # always-on load over 1000 days: mean daily on-time within 10%
        loads = LoadSet.from_pairs([("x", 1.0)])
        grid = TimeGrid.from_minutes(15, 1000)
        series = synth_household(
            3, loads, grid, {"x": ApplianceProfile(100.0, 1.0, 6.0)}
        )
        on_hours = (series.power[0] > 0).reshape(1000, 96).sum(axis=1) * 0.25
        assert abs(on_hours.mean() - 6.0) < 0.6

    def test_missing_profile_rejected(self, four_loads):
        grid = TimeGrid.from_minutes(15, 1)
        with pytest.raises(ValueError, match="washer"):
            synth_household(1, four_loads, grid, {"fridge": ApplianceProfile(1, 1, 1)})

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ApplianceProfile(-5.0, 0.5, 3.0)
        with pytest.raises(ValueError):
            ApplianceProfile(5.0, 1.5, 3.0)
        with pytest.raises(ValueError):
            ApplianceProfile(5.0, 0.5, 25.0)
