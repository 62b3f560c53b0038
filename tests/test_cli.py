"""Command-line contract: row counts, exit codes, estimates, round trips."""

import copy
import json
import math

import numpy as np
import pytest

from loadsynth.cli import (
    estimate_file_size,
    main,
    parse_duration,
    read_series_csv,
    write_series_csv,
)
from loadsynth.compose import GenerationRequest
from loadsynth.core import parse_resolution
from loadsynth.errors import ParseError
from loadsynth.ingest import PHASOR_HEADER, write_level_datasets
from loadsynth.modelio import ModelBundle

WEEK_S = 604_800.0
YEAR_S = 52 * WEEK_S


@pytest.fixture(scope="session")
def bundle_path(tiny_models, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "models.lsb"
    ModelBundle(models=tiny_models, provenance={"source": "tiny"}).save(path)
    return path


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("90s", 90.0),
            ("10min", 600.0),
            ("2.5h", 9000.0),
            ("1d", 86_400.0),
            ("13wk", 13 * WEEK_S),
            ("1yr", YEAR_S),
        ],
    )
    def test_accepts(self, text, want):
        assert parse_duration(text) == want

    @pytest.mark.parametrize("text", ["", "1", "d", "1 d", "-1d", "1.5.2h", "1mo", "0s"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_duration(text)


class TestEstimate:
    def test_documented_formula(self):
        req = GenerationRequest(1, 0, parse_resolution("1/10min"), 86_400.0)
        est = estimate_file_size(req)
        header = len("timestamp,load_1\n")
        assert est == 144 * (20 + 10) + header

    def test_load_count_scales_row_bytes(self):
        one = GenerationRequest(1, 0, parse_resolution("1/h"), 86_400.0)
        two = GenerationRequest(1, 1, parse_resolution("1/h"), 86_400.0)
        assert estimate_file_size(two) - estimate_file_size(one) == 24 * 10 + len(",load_2")


# weights of one artifact each, to be made non-finite in a bundle
NON_FINITE_TARGETS = {
    "l3": lambda m: m.l3.generator.params[-1:],  # output-layer bias
    "l1": lambda m: m.l1.generator.params[:1],  # first weight, ahead of a ReLU
    "l4_residential": lambda m: m.l4_residential.u,
    "seam": lambda m: m.seam.beta,
}


class TestGenerate:
    def test_day_at_ten_minutes(self, bundle_path, tmp_path):
        out = tmp_path / "day.csv"
        code = main(
            [
                "generate", "--bundle", str(bundle_path), "--residential", "1",
                "--resolution", "1/10min", "--length", "1d", "--season", "winter",
                "--seed", "3", "--output", str(out),
            ]
        )
        assert code == 0
        stamps, series = read_series_csv(out)
        assert series.shape == (1, 144)
        assert stamps[0] == "2021-01-01T00:00:00"
        assert stamps[1] == "2021-01-01T00:10:00"
        assert np.all(series > 0)

    def test_estimate_accuracy_three_resolutions(self, bundle_path, tmp_path):
        for res, length in (("1/wk", "13wk"), ("1/h", "3d"), ("1/10min", "1d")):
            out = tmp_path / "est.csv"
            code = main(
                [
                    "generate", "--bundle", str(bundle_path), "--residential", "1",
                    "--industrial", "1", "--resolution", res, "--length", length,
                    "--seed", "4", "--output", str(out), "--base-mw", "60",
                ]
            )
            assert code == 0
            req = GenerationRequest(
                1, 1, parse_resolution(res), parse_duration(length), base_mw=60.0
            )
            est = estimate_file_size(req)
            actual = out.stat().st_size
            assert abs(est - actual) / actual < 0.15, (res, est, actual)

    def test_estimate_only_prints_bytes(self, bundle_path, capsys):
        code = main(
            [
                "generate", "--bundle", str(bundle_path), "--residential", "1",
                "--resolution", "1/h", "--length", "1d", "--estimate-only",
                "--output", "/nonexistent/dir/x.csv",
            ]
        )
        assert code == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed > 0

    def test_season_override_warning_for_full_year(self, bundle_path, tmp_path, capsys):
        out = tmp_path / "year.csv"
        code = main(
            [
                "generate", "--bundle", str(bundle_path), "--residential", "1",
                "--resolution", "1/wk", "--length", "1yr", "--season", "summer",
                "--output", str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "overridden" in err
        _, series = read_series_csv(out)
        assert series.shape == (1, 52)

    def test_resolution_too_fine_exits_2(self, bundle_path):
        code = main(
            [
                "generate", "--bundle", str(bundle_path), "--residential", "1",
                "--resolution", "60/s", "--length", "60s", "--output", "x.csv",
            ]
        )
        assert code == 2

    def test_explicit_season_too_long_exits_2(self, bundle_path):
        code = main(
            [
                "generate", "--bundle", str(bundle_path), "--residential", "1",
                "--resolution", "1/wk", "--length", "20wk", "--season", "winter",
                "--output", "x.csv",
            ]
        )
        assert code == 2

    def test_missing_bundle_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LOADSYNTH_BUNDLE", raising=False)
        code = main(
            [
                "generate", "--bundle", str(tmp_path / "nope.lsb"), "--residential", "1",
                "--resolution", "1/h", "--length", "1d", "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3

    def test_no_bundle_flag_uses_env(self, bundle_path, tmp_path, monkeypatch):
        monkeypatch.setenv("LOADSYNTH_BUNDLE", str(bundle_path))
        out = tmp_path / "env.csv"
        code = main(
            [
                "generate", "--residential", "1", "--resolution", "1/h",
                "--length", "1d", "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_csv_round_trip_at_printed_precision(self, bundle_path, tmp_path, tiny_models):
        from loadsynth.compose import synthesize

        out = tmp_path / "rt.csv"
        main(
            [
                "generate", "--bundle", str(bundle_path), "--residential", "2",
                "--industrial", "1", "--resolution", "1/h", "--length", "2d",
                "--seed", "11", "--base-mw", "42.5", "--output", str(out),
            ]
        )
        req = GenerationRequest(
            2, 1, parse_resolution("1/h"), 2 * 86_400.0, seed=11, base_mw=42.5
        )
        _, want = synthesize(req, tiny_models)
        _, got = read_series_csv(out)
        np.testing.assert_allclose(got, want, rtol=5e-6)

    def test_config_file_supplies_flags_and_cli_overrides(self, bundle_path, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(
            json.dumps(
                {
                    "bundle": str(bundle_path),
                    "residential": 2,
                    "resolution": "1/h",
                    "length": "1d",
                    "output": str(tmp_path / "from_config.csv"),
                }
            )
        )
        code = main(["generate", "--config", str(config)])
        assert code == 0
        _, series = read_series_csv(tmp_path / "from_config.csv")
        assert series.shape == (2, 24)

        code = main(
            ["generate", "--config", str(config), "--output", str(tmp_path / "override.csv"),
             "--residential", "1"]
        )
        assert code == 0
        _, series = read_series_csv(tmp_path / "override.csv")
        assert series.shape == (1, 24)

    @pytest.mark.parametrize("artifact", NON_FINITE_TARGETS)
    def test_non_finite_weights_exit_3(self, artifact, tiny_models, tmp_path, capsys):
        models = copy.deepcopy(tiny_models)
        NON_FINITE_TARGETS[artifact](models).flat[0] = np.nan
        bundle = tmp_path / "nan.lsb"
        ModelBundle(models=models, provenance={}).save(bundle)
        out = tmp_path / "x.csv"
        code = main(
            [
                "generate", "--bundle", str(bundle), "--residential", "1",
                "--resolution", "1/h", "--length", "1d", "--output", str(out),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"artifact {artifact!r}" in err and "non-finite" in err
        assert not out.exists()

    def test_reports_actual_size(self, bundle_path, tmp_path, capsys):
        out = tmp_path / "sized.csv"
        code = main(
            [
                "generate", "--bundle", str(bundle_path), "--residential", "1",
                "--industrial", "1", "--resolution", "1/10min", "--length", "1d",
                "--output", str(out),
            ]
        )
        assert code == 0
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == f"wrote 144 rows x 2 loads ({out.stat().st_size} bytes) to {out}"

    def test_unknown_config_key_exits_2(self, bundle_path, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no_such_flag": 1}))
        code = main(["generate", "--config", str(config), "--resolution", "1/h",
                     "--length", "1d", "--residential", "1"])
        assert code == 2


OUTPUT_COMMANDS = {
    "generate": ["generate", "--residential", "1", "--resolution", "1/h", "--length", "1d"],
    "simulate": ["simulate", "--duration", "1h", "--block-s", "30"],
    "train": ["train", "--toy-loads", "2", "--toy-years", "2", "--l1-epochs", "1"],
}


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_into_missing_directory_exits_2(command, bundle_path, tmp_path, capsys):
    out = tmp_path / "nodir" / "out.file"
    argv = [*OUTPUT_COMMANDS[command], "--output", str(out)]
    if command == "generate":
        argv += ["--bundle", str(bundle_path)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].startswith("error: ") and str(out) in err
    assert "simulating" not in err and "Traceback" not in err
    assert not (tmp_path / "nodir").exists()


class TestTrainCli:
    def test_mini_train_and_generate(self, tmp_path):
        bundle = tmp_path / "mini.lsb"
        code = main(
            [
                "train", "--toy-seed", "5", "--toy-loads", "2", "--toy-years", "2",
                "--l1-windows", "24", "--l2-profiles", "40", "--l1-epochs", "1",
                "--l2-epochs", "1", "--l3-epochs", "1", "--batch-size", "8",
                "--seed", "77", "--output", str(bundle),
            ]
        )
        assert code == 0
        assert bundle.exists()
        assert (tmp_path / "mini.lsb.train_log.json").exists()
        loaded = ModelBundle.load(bundle)
        assert loaded.provenance["seeds"] == {"l1": 77, "l2": 78, "l3": 79, "l4": 80}
        out = tmp_path / "gen.csv"
        code = main(
            [
                "generate", "--bundle", str(bundle), "--industrial", "1",
                "--resolution", "1/h", "--length", "1d", "--output", str(out),
            ]
        )
        assert code == 0

    def test_too_few_year_profiles_exits_3_before_training(self, tmp_path, capsys):
        # three loads split into one residential and two industrial: one
        # simulated year leaves a single residential year profile
        bundle = tmp_path / "few.lsb"
        code = main(
            [
                "train", "--toy-seed", "5", "--toy-loads", "3", "--toy-years", "1",
                "--l1-windows", "8", "--l2-profiles", "8", "--output", str(bundle),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: need at least two residential year profiles, got 1" in err
        assert "training level" not in err
        assert not bundle.exists()

    @pytest.mark.parametrize(
        "sizes,words",
        [
            # 16 level-1 windows cannot fill two batches of 32
            (["--l1-windows", "8", "--l2-profiles", "8"], "level 1: 16 profiles < 2 batches of 32"),
            # two years of two loads give 26 weeks per (class, season) label
            (["--l1-windows", "27", "--l2-profiles", "27", "--batch-size", "27"],
             "level 3: label combinations with too few examples: (residential, winter): 26"),
        ],
        ids=["batches", "label_coverage"],
    )
    def test_too_small_gan_dataset_exits_3_before_training(self, sizes, words, tmp_path, capsys):
        bundle = tmp_path / "small.lsb"
        code = main(
            ["train", "--toy-seed", "5", "--toy-loads", "2", "--toy-years", "2", *sizes,
             "--output", str(bundle)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"error: cannot train {words}" in err, err
        assert "training level" not in err
        assert not bundle.exists()

    def test_unlabelled_level3_profile_exits_3_before_training(self, tiny_datasets, tmp_path, capsys):
        write_level_datasets(tiny_datasets, tmp_path / "data")
        path = tmp_path / "data" / "level3.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[2] = ""  # the first profile's season, which the reader keeps
        lines[1] = ",".join(fields)
        path.write_text("".join(lines))
        code = main(
            ["train", "--data", str(tmp_path / "data"), "--batch-size", "8",
             "--output", str(tmp_path / "b.lsb")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot train level 3: every profile needs a (load class, season) label" in err
        assert "training level" not in err

    def test_missing_data_dir_exits_3(self, tmp_path):
        code = main(
            ["train", "--data", str(tmp_path / "nodata"), "--output", str(tmp_path / "b.lsb")]
        )
        assert code == 3


# defects of one level2.csv row: (field index, replacement); line 2 is the
# first row of the first profile, whose labels the reader keeps
ROW_DEFECTS = {
    "non_numeric": (4, "abc"),
    "field_count": (4, None),
    "fractional_index": (3, "1.5"),
    "unknown_class": (1, "commercial"),
    "unknown_season": (2, "monsoon"),
}


def write_defective_datasets(datasets, directory, defect):
    write_level_datasets(datasets, directory)
    path = directory / "level2.csv"
    lines = path.read_text().splitlines(keepends=True)
    if defect == "short_profile":
        lines = lines[:-1]  # the last profile loses its last sample
    elif defect == "bad_header":
        lines[0] = "id,class,season,index,value\n"
    else:
        field, text = ROW_DEFECTS[defect]
        fields = lines[1].rstrip("\n").split(",")
        if text is None:
            del fields[field]
        else:
            fields[field] = text
        lines[1] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("defect", ["short_profile", "bad_header", *ROW_DEFECTS])
class TestDefectiveDatasets:
    def test_validate_exits_3(self, defect, bundle_path, tiny_datasets, tmp_path, capsys):
        write_defective_datasets(tiny_datasets, tmp_path / "data", defect)
        code = main(
            [
                "validate", "--bundle", str(bundle_path), "--data", str(tmp_path / "data"),
                "--output-dir", str(tmp_path / "reports"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "level2.csv" in err
        assert defect not in ROW_DEFECTS or "line 2:" in err

    def test_train_exits_3(self, defect, tiny_datasets, tmp_path, capsys):
        write_defective_datasets(tiny_datasets, tmp_path / "data", defect)
        code = main(
            ["train", "--data", str(tmp_path / "data"), "--output", str(tmp_path / "b.lsb")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "level2.csv" in err
        assert defect not in ROW_DEFECTS or "line 2:" in err
        assert not (tmp_path / "b.lsb").exists()


@pytest.mark.parametrize(
    "text", [b"{not json", b"[1, 2]", b"\xff{}"], ids=["syntax", "not_object", "not_utf8"]
)
class TestDefectiveLevelMeta:
    def write(self, datasets, directory, text):
        write_level_datasets(datasets, directory)
        (directory / "level_meta.json").write_bytes(text)

    def test_validate_exits_3(self, text, bundle_path, tiny_datasets, tmp_path, capsys):
        self.write(tiny_datasets, tmp_path / "data", text)
        code = main(
            [
                "validate", "--bundle", str(bundle_path), "--data", str(tmp_path / "data"),
                "--output-dir", str(tmp_path / "reports"),
            ]
        )
        assert code == 3
        assert "level_meta.json" in capsys.readouterr().err

    def test_train_exits_3(self, text, tiny_datasets, tmp_path, capsys):
        self.write(tiny_datasets, tmp_path / "data", text)
        code = main(
            ["train", "--data", str(tmp_path / "data"), "--output", str(tmp_path / "b.lsb")]
        )
        assert code == 3
        assert "level_meta.json" in capsys.readouterr().err
        assert not (tmp_path / "b.lsb").exists()


# two records of lines line0 and line1 with a blank line between, so a
# defect appended below sits on file line 6
GOOD_PHASOR_LINES = [
    "0.0,line0,1,0,1,0", "0.0,line1,1,0,1,0", "", "0.03333333333333333,line0,1,0,1,0",
]
# each case: (header, rows appended after the good lines, words the error names)
PHASOR_DEFECTS = {
    "header": (PHASOR_HEADER.replace("line_id", "line"), ["0.03333333333333333,line1,1,0,1,0"], ["line 1"]),
    "fields": (PHASOR_HEADER, ["0.03333333333333333,line1,1,0,1"], ["line 6", "6 fields"]),
    "number": (PHASOR_HEADER, ["0.03333333333333333,line1,1,x,1,0"], ["line 6", "line1,1,x,1,0"]),
    "spacing": (PHASOR_HEADER, ["0.5,line1,1,0,1,0"], ["t=0.5", "spacing"]),
    "missing_channel": (PHASOR_HEADER, [], ["line1"]),
}


@pytest.mark.parametrize("defect", PHASOR_DEFECTS)
def test_defective_phasor_csv_exits_3(defect, tmp_path, capsys):
    header, rows, words = PHASOR_DEFECTS[defect]
    path = tmp_path / "pmu.csv"
    path.write_text("\n".join([header, *GOOD_PHASOR_LINES, *rows]) + "\n")
    code = main(
        [
            "ingest", "--phasors", str(path), "--load-class", "residential",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert all(word in err for word in words), err
    assert not (tmp_path / "out").exists()


# each case: a series CSV with a defect on file line 3
SERIES_DEFECTS = {
    "value": "2021-01-01T00:00:00.033333,abc\n",
    "ragged": "2021-01-01T00:00:00.033333,1.5,2.5\n",
    "timestamp": "2021-01-01 half past,1.5\n",
    "step": "2021-01-01T00:00:30,1.5\n",  # 30 s after line 2: not 30 Hz
}


@pytest.mark.parametrize("defect", SERIES_DEFECTS)
def test_defective_series_csv_exits_3(defect, tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,load_1\n2021-01-01T00:00:00,1.5\n" + SERIES_DEFECTS[defect])
    code = main(
        [
            "ingest", "--series", str(path), "--load-class", "residential",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert f"{path} line 3:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--series", "--phasors"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_ingest_input_exits_3(flag, kind, tmp_path, capsys):
    path = tmp_path / "absent.csv" if kind == "missing" else tmp_path
    code = main(
        [
            "ingest", flag, str(path), "--load-class", "residential",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert f"cannot read {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap", [["--max-l1", "-1"], ["--max-l2", "-3"]], ids=["l1", "l2"])
def test_negative_ingest_cap_exits_2(cap, tmp_path, capsys):
    code = main(
        ["ingest", "--phasors", str(tmp_path / "absent.csv"), "--load-class", "residential",
         *cap, "--output-dir", str(tmp_path / "out")]
    )
    assert code == 2  # before the input is read: the absent file would exit 3
    assert capsys.readouterr().err == f"error: {cap[0]} {cap[1]} must be zero or more\n"


def test_ingest_series_checks_30hz_steps(tmp_path, capsys):
    blocks, fast = tmp_path / "blocks.csv", tmp_path / "fast.csv"
    assert main(["simulate", "--duration", "2h", "--block-s", "30", "--output", str(blocks)]) == 0
    assert main(["simulate", "--duration", "20min", "--output", str(fast)]) == 0
    capsys.readouterr()
    ingest = ["ingest", "--load-class", "residential", "--output-dir"]
    assert main([*ingest, str(tmp_path / "b"), "--series", str(blocks)]) == 3
    err = capsys.readouterr().err
    assert f"{blocks} line 3: the row at 2021-01-01T00:00:30 follows 2021-01-01T00:00:00" in err
    assert "breaks the 30 Hz +-10% spacing" in err
    assert not (tmp_path / "b").exists()
    assert main([*ingest, str(tmp_path / "f"), "--series", str(fast)]) == 0
    assert "'l1': 40" in capsys.readouterr().err  # 20 min of 30 Hz samples


def test_zero_ingest_caps_write_no_profiles(tmp_path, capsys):
    path = tmp_path / "series.csv"
    times = np.arange(1800) / 30.0
    write_series_csv(path, times, np.full((1, times.size), 2.0))
    code = main(
        ["ingest", "--series", str(path), "--load-class", "residential", "--max-l1", "0",
         "--max-l2", "0", "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    assert "note: level 1 needs at least 900 samples" in capsys.readouterr().err
    assert (tmp_path / "out" / "level1.csv").read_text().count("\n") == 1


# each case: the output directory a command is given, under tmp_path, with a
# file named "file" in the way
OUTPUT_DIR_COMMANDS = {
    "ingest": ["ingest", "--phasors", "absent.csv", "--load-class", "residential", "--output-dir"],
    "validate": ["validate", "--bundle", "absent.lsb", "--data", "absent", "--output-dir"],
    "train": ["train", "--toy-loads", "2", "--output", "b.lsb", "--save-data"],
}


@pytest.mark.parametrize("command", OUTPUT_DIR_COMMANDS)
@pytest.mark.parametrize("target", ["file", "file/sub"], ids=["is_file", "under_file"])
def test_output_dir_blocked_by_a_file_exits_2(command, target, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    code = main([*OUTPUT_DIR_COMMANDS[command], target])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write to directory {target}: file is not a directory\n"


# each case: simulate arguments the simulator cannot honour
SIMULATE_BAD_ARGS = {
    "block_zero": ["--duration", "1h", "--block-s", "0"],
    "block_off_grid": ["--duration", "1h", "--block-s", "0.01"],
    "block_negative": ["--duration", "1h", "--block-s", "-30"],
    "block_nan": ["--duration", "1h", "--block-s", "nan"],
    "block_inf": ["--duration", "1h", "--block-s", "inf"],
    "full_rate_short": ["--duration", "10s"],
    "base_negative": ["--duration", "1h", "--base-mw", "-5"],
    "base_nan": ["--duration", "1h", "--block-s", "30", "--base-mw", "nan"],
}


@pytest.mark.parametrize("case", SIMULATE_BAD_ARGS)
def test_simulate_bad_arguments_exit_2(case, tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = main(["simulate", *SIMULATE_BAD_ARGS[case], "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_header_only_series_csv_has_no_rows(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,load_1,load_2\n")
    stamps, values = read_series_csv(path)
    assert stamps == [] and values.shape == (2, 0)


class TestOtherSubcommands:
    def test_simulate_block_means(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate", "--load-class", "industrial", "--duration", "2h",
                "--seed", "9", "--block-s", "30", "--output", str(out),
            ]
        )
        assert code == 0
        _, series = read_series_csv(out)
        assert series.shape == (1, 240)

    def test_simulate_full_rate(self, tmp_path):
        out = tmp_path / "sim30.csv"
        code = main(
            ["simulate", "--duration", "60s", "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        _, series = read_series_csv(out)
        assert series.shape == (1, 1800)

    def test_ingest_series_round_trip(self, tmp_path):
        from loadsynth.toydata import ToyLoadConfig, simulate_ground_truth

        cfg = ToyLoadConfig.residential(seed=3, base_mw=25.0)
        series = simulate_ground_truth(cfg, 2 * 3600.0)
        src = tmp_path / "series.csv"
        write_series_csv(src, np.arange(series.size) / 30.0, series[None, :])
        out_dir = tmp_path / "datasets"
        code = main(
            [
                "ingest", "--series", str(src), "--load-class", "residential",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "level1.csv").exists()
        assert (out_dir / "level_meta.json").exists()

    def test_validate_reports(self, bundle_path, tiny_datasets, tmp_path):
        data_dir = tmp_path / "data"
        write_level_datasets(tiny_datasets, data_dir)
        out_dir = tmp_path / "reports"
        code = main(
            [
                "validate", "--bundle", str(bundle_path), "--data", str(data_dir),
                "--output-dir", str(out_dir), "--seed", "3",
            ]
        )
        assert code == 0
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "summary.txt").exists()
        assert (out_dir / "psd_l1_real.csv").exists()
        text = (out_dir / "summary.txt").read_text()
        assert "amplitude distance" in text
