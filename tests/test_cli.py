"""Command-line contract: row counts, exit codes, estimates, round trips."""

import builtins
import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loadsynth
from loadsynth import cli, compose, ingest
from loadsynth.cli import (
    _dataset_fingerprint,
    build_parser,
    estimate_file_size,
    finite_positive_float,
    main,
    non_negative_int,
    positive_int,
    week_index,
    write_series_csv,
)
from loadsynth.compose import GenerationRequest
from loadsynth.core import Level, parse_duration, parse_resolution
from loadsynth.errors import DegenerateProfile, InsufficientData, RequestError
from loadsynth.ingest import (
    DATASET_HEADER,
    PHASOR_HEADER,
    read_30hz_series,
    read_level_datasets,
    read_phasor_csv,
    read_series_csv,
    write_level_datasets,
)
from loadsynth.modelio import ModelBundle
from loadsynth.neural.optim import Adam

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
        with pytest.raises(RequestError):
            parse_duration(text)

    @pytest.mark.parametrize("unit", ["s", "yr"])
    def test_rejects_a_count_too_large_for_a_float(self, unit):
        with pytest.raises(RequestError, match="too large"):
            parse_duration("9" * 400 + unit)
        # 300 digits are still a finite number of seconds
        assert parse_duration("9" * 300 + "s") == float("9" * 300)

    @pytest.mark.parametrize("command", ["generate", "simulate"])
    def test_overflowing_duration_exits_2(self, command, bundle_path, tmp_path, capsys):
        huge, out = "9" * 400 + "s", tmp_path / "out.csv"
        if command == "generate":
            argv = ["generate", "--bundle", str(bundle_path), "--residential", "1",
                    "--resolution", "1/h", "--length", huge, "--estimate-only"]
        else:
            argv = ["simulate", "--duration", huge]
        code = main([*argv, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: duration '999") and "too large" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "resolution",
        [
            "1/" + "9" * 400 + "s",
            "9" * 400 + "/" + "9" * 400 + "s",
            "1" + "0" * 309 + "/1" + "0" * 308 + "s",  # a finite period, a count past the largest float
        ],
    )
    def test_overflowing_resolution_exits_2(self, resolution, bundle_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            ["generate", "--bundle", str(bundle_path), "--residential", "1", "--resolution", resolution,
             "--length", "1d", "--estimate-only", "--output", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: resolution {resolution!r} is too large (not a finite number of seconds)\n"
        assert not out.exists()


# --resolution, --length and the exit code: one request covers at most 53
# years of 52 weeks, counted in the weeks its driving level needs
YEAR_CAP_CASES = [
    ("1/wk", "53yr", 0),
    ("1/d", "53yr", 0),
    ("1/d", "19293d", 2),  # 53 years and a day: a 2757th week
    ("1/d", "53.005yr", 2),
    ("1/wk", "54yr", 2),
    pytest.param("30/s", "9" * 308 + "s", 2, id="30/s-1e308s"),  # more rows than a float holds
]


@pytest.mark.parametrize("resolution,length,code", YEAR_CAP_CASES)
def test_year_cap_is_checked_before_any_work(resolution, length, code, capsys):
    argv = ["generate", "--bundle", "absent.lsb", "--residential", "1", "--resolution", resolution,
            "--length", length, "--estimate-only", "--output", "absent.csv"]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: duration ") and "2756 weeks" in err


# the grammars of --resolution and --length, their units in seconds
RESOLUTION_UNITS = {"s": 1, "min": 60, "h": 3600, "d": 86_400, "wk": 604_800}
DURATION_UNITS = {**RESOLUTION_UNITS, "yr": 52 * 604_800}

_whole = st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 10**6))


@st.composite
def resolution_texts(draw):
    """`<count>/[<n>]<unit>` and its (count, n, unit seconds)."""
    count, n = draw(_whole), draw(st.none() | _whole)
    unit = draw(st.sampled_from(sorted(RESOLUTION_UNITS)))
    return f"{count}/{n or ''}{unit}", int(count), 1 if n is None else int(n), RESOLUTION_UNITS[unit]


@st.composite
def duration_texts(draw):
    """`<count><unit>`, count maybe decimal, and its (count, unit seconds)."""
    count, fraction = draw(_whole), draw(st.none() | st.text("0123456789", min_size=1, max_size=6))
    if fraction is not None:
        count += "." + fraction
    unit = draw(st.sampled_from(sorted(DURATION_UNITS)))
    return count + unit, count, DURATION_UNITS[unit]


# characters that make a valid string invalid: non-ASCII digits (Arabic-Indic,
# Devanagari, fullwidth, Bengali; `int` and `float` read them all), and
# whitespace, including a trailing newline
UNICODE_DIGITS = "٣३３৩"
WHITESPACE = [" ", "\t", "\n", "\u00a0"]


@st.composite
def mutated(draw, texts):
    text = draw(texts)[0]
    kind = draw(st.sampled_from(["digit", "space", "sign", "upper"]))
    if kind == "digit":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c.isdigit()]))
        return text[:at] + draw(st.sampled_from(UNICODE_DIGITS)) + text[at + 1 :]
    if kind == "space":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(WHITESPACE)) + text[at:]
    if kind == "sign":
        at = draw(st.sampled_from([0] + [i + 1 for i, c in enumerate(text) if c == "/"]))
        return text[:at] + draw(st.sampled_from("+-")) + text[at:]
    return text.upper()


class TestGrammars:
    @settings(max_examples=300, deadline=None)
    @given(drawn=resolution_texts())
    def test_resolution_is_the_exact_period(self, drawn):
        text, count, n, unit_s = drawn
        if count == 0 or n == 0:
            with pytest.raises(RequestError, match="must be positive"):
                parse_resolution(text)
        elif n * unit_s * 30 < count:
            with pytest.raises(RequestError, match="finer than"):
                parse_resolution(text)
        else:
            r = parse_resolution(text)
            assert Fraction(r.period_s) / r.samples_per_period == Fraction(n * unit_s, count)

    @settings(max_examples=300, deadline=None)
    @given(drawn=duration_texts())
    def test_duration_is_count_times_unit(self, drawn):
        text, count, unit_s = drawn
        if float(count) == 0:
            with pytest.raises(RequestError, match="must be positive"):
                parse_duration(text)
        else:
            assert parse_duration(text) == float(count) * unit_s

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_text_exits_2_with_one_line(self, data):
        flag, parse, texts = data.draw(st.sampled_from([
            ("--resolution", parse_resolution, resolution_texts()),
            ("--length", parse_duration, duration_texts()),
        ]))
        text = data.draw(mutated(texts))
        with pytest.raises(RequestError, match="malformed"):
            parse(text)
        argv = {"--resolution": "1/h", "--length": "1d", flag: text}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["generate", "--bundle", "absent.lsb", "--residential", "1",
                         "--resolution", argv["--resolution"], "--length", argv["--length"],
                         "--estimate-only", "--output", "absent.csv"])
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestEstimate:
    def test_documented_formula(self):
        est = estimate_file_size(144, 1, parse_resolution("1/10min"))  # one day
        header = len("timestamp,load_1\n")
        assert est == 144 * (20 + 10) + header

    def test_load_count_scales_row_bytes(self):
        hourly = parse_resolution("1/h")
        assert estimate_file_size(24, 2, hourly) - estimate_file_size(24, 1, hourly) == 24 * 10 + len(",load_2")

    def test_header_is_the_sum_over_the_load_columns(self):
        # one row (one week at 1/wk): a 20-byte timestamp, 10 bytes a load, then the header
        header = np.cumsum([len(f",load_{i}") for i in range(1, 10**6 + 1)]) + len("timestamp\n")
        random = np.random.default_rng(25).integers(10**4, 10**6, 200, endpoint=True)
        for n in [*range(1, 10**4 + 1), *random.tolist()]:
            assert estimate_file_size(1, n, parse_resolution("1/wk")) == 20 + 10 * n + header[n - 1], n


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
        # sub-second periods print `.ffffff` on all but one timestamp in b
        # (30 for 30/s, 2 for 2/s); small loads print shorter values
        for res, length, base_mw, industrial in (
            ("1/wk", "13wk", 60.0, 1), ("1/h", "3d", 60.0, 1), ("1/10min", "1d", 60.0, 1),
            ("30/s", "10min", 0.05, 0), ("30/s", "10min", 50.0, 0), ("2/s", "1h", 60.0, 1),
        ):
            out = tmp_path / "est.csv"
            code = main(
                [
                    "generate", "--bundle", str(bundle_path), "--residential", "1",
                    "--industrial", str(industrial), "--resolution", res, "--length", length,
                    "--seed", "4", "--output", str(out), "--base-mw", str(base_mw),
                ]
            )
            assert code == 0
            req = GenerationRequest(
                1, industrial, parse_resolution(res), parse_duration(length), base_mw=base_mw
            )
            est = estimate_file_size(req.rows, req.n_loads, req.resolution)
            actual = out.stat().st_size
            assert abs(est - actual) / actual < 0.15, (res, base_mw, est, actual)

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

    @pytest.mark.parametrize(
        "resolution,line",
        [
            ("1/0s", "counts in '1/0s' must be positive"),
            ("31/s", "'31/s' asks for a period of 1/31 s, finer than 1/30 s"),
        ],
    )
    def test_bad_resolution_exits_2_with_its_line(self, resolution, line, capsys):
        argv = ["generate", "--residential", "1", "--resolution", resolution, "--length", "1d", "--estimate-only"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

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
        want = synthesize(req, tiny_models)[1].array()
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

    def test_generation_failure_exits_4(self, bundle_path, tmp_path, capsys, monkeypatch):
        def degenerate(model, count, seed, labels=None):
            raise DegenerateProfile(f"level {model.level.value} generator produced non-finite samples")

        monkeypatch.setattr(compose, "gan_generate", degenerate)
        out = tmp_path / "x.csv"
        code = main(
            ["generate", "--bundle", str(bundle_path), "--residential", "1", "--resolution", "1/h",
             "--length", "1d", "--output", str(out)]
        )
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: generation failed in DegenerateProfile: level l3 generator produced non-finite samples"
        assert not out.exists()

    @pytest.mark.parametrize("existing", [None, b"an earlier file\n"])
    def test_failure_mid_stream_writes_nothing(self, existing, bundle_path, tmp_path, capsys, monkeypatch):
        # 3 min at 30/s in chunks of 2 profiles: the level-1 generator fails
        # on the second chunk, after the first chunk's rows were written
        real = compose.gan_generate

        def fails_on_chunk_2(model, count, seed, labels=None, start=0):
            if model.level is Level.L1 and start > 0:
                raise DegenerateProfile("level l1 generator produced non-finite samples")
            return real(model, count, seed, labels, start)

        monkeypatch.setattr(compose, "_CHUNK_PROFILES", 2)
        monkeypatch.setattr(compose, "gan_generate", fails_on_chunk_2)
        out = tmp_path / "x.csv"
        if existing is not None:
            out.write_bytes(existing)
        code = main(
            ["generate", "--bundle", str(bundle_path), "--residential", "1", "--resolution", "30/s",
             "--length", "3min", "--output", str(out)]
        )
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: generation failed in DegenerateProfile: level l1 generator produced non-finite samples"
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else ["x.csv"])
        if existing is not None:
            assert out.read_bytes() == existing

    def test_a_device_output_is_written_in_place(self, bundle_path, capsys):
        # /dev/null is not replaced by a regular file
        code = main(
            ["generate", "--bundle", str(bundle_path), "--residential", "1", "--resolution", "30/s",
             "--length", "1min", "--output", os.devnull]
        )
        assert code == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert capsys.readouterr().err.splitlines()[-1] == f"wrote 1800 rows x 1 loads (0 bytes) to {os.devnull}"

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

    @pytest.mark.parametrize("key", ["max_l1", "block-s", "start_week", "toy_seed"])
    def test_config_key_of_another_subcommand_exits_2(self, key, tmp_path, capsys, monkeypatch):
        """A key that only another subcommand takes is refused, not ignored."""
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(json.dumps({key: 3}))
        assert main([*_GENERATE, "--config", "c.json"]) == 2
        assert capsys.readouterr().err == f"error: --config c.json: generate takes no flag for {key!r}\n"
        assert os.listdir() == ["c.json"]


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


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_naming_a_directory_exits_2(command, bundle_path, tmp_path, capsys):
    argv = [*OUTPUT_COMMANDS[command], "--output", str(tmp_path)]
    if command == "generate":
        argv += ["--bundle", str(bundle_path)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: cannot write {tmp_path}: it is a directory"
    assert "simulating" not in err
    assert list(tmp_path.iterdir()) == []


SMOKE_TRAIN = [
    "train", "--toy-seed", "5", "--toy-loads", "2", "--toy-years", "2", "--l1-windows", "16",
    "--l2-profiles", "16", "--l1-epochs", "1", "--l2-epochs", "1", "--l3-epochs", "1",
    "--batch-size", "8",
]
# each case: a command, and the module whose open() writes its --output file
WRITING_COMMANDS = {
    "generate": (OUTPUT_COMMANDS["generate"], "loadsynth.ingest"),
    "simulate": (OUTPUT_COMMANDS["simulate"], "loadsynth.ingest"),
    "train": (SMOKE_TRAIN, "loadsynth.modelio"),
}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_unwritable_output_exits_2(command, bundle_path, tmp_path, capsys, monkeypatch):
    argv, module = WRITING_COMMANDS[command]
    out = tmp_path / "out.file"

    # root ignores mode bits, so open() itself refuses the output file
    def refuse(path, *args, **kwargs):
        if str(path) == str(out):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(f"{module}.open", refuse, raising=False)
    argv = [*argv, "--output", str(out)]
    if command == "generate":
        argv += ["--bundle", str(bundle_path)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: cannot write {out}: Permission denied"


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only run-time dependency: the CLI and the simulator must
    # not import scipy, which only the tests use
    script = f"""
import sys
from loadsynth.cli import main
for extra in ([], ["--block-s", "30"]):
    assert main(["simulate", "--duration", "1h", *extra, "--output", {str(tmp_path / "sim.csv")!r}]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(loadsynth.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.stdout == "[]\n"


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
        # the first profile's season, blanked on each of its lines
        text = re.sub(r"^(l3_000000,\w*),\w*,", r"\1,,", path.read_text(), flags=re.M)
        path.write_text(text)
        code = main(
            ["train", "--data", str(tmp_path / "data"), "--batch-size", "8",
             "--output", str(tmp_path / "b.lsb")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot train level 3: every profile needs a (load class, season) label" in err
        assert "training level" not in err

    def test_level_without_profiles_exits_3_before_training(self, tiny_datasets, tmp_path, capsys):
        write_level_datasets(tiny_datasets, tmp_path / "data")
        (tmp_path / "data" / "level2.csv").write_text(DATASET_HEADER + "\n")
        code = main(["train", "--data", str(tmp_path / "data"), "--output", str(tmp_path / "b.lsb")])
        assert code == 3
        err = capsys.readouterr().err
        path = tmp_path / "data" / "level2.csv"
        assert err == f"error: no training data for level 2: dataset file {path} holds no profiles\n"
        assert not (tmp_path / "b.lsb").exists()

    def test_divergence_exits_5_and_writes_no_bundle(self, tiny_datasets, tmp_path, capsys, monkeypatch):
        def nan_step(self, params, grads):
            for p in params:
                p.fill(np.nan)

        write_level_datasets(tiny_datasets, tmp_path / "data")
        monkeypatch.setattr(Adam, "step", nan_step)
        code = main(
            ["train", "--data", str(tmp_path / "data"), "--l1-epochs", "1", "--batch-size", "8",
             "--output", str(tmp_path / "b.lsb")]
        )
        assert code == 5
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: level l1 training went non-finite twice (last lr 0.0001)"]
        assert sorted(os.listdir(tmp_path)) == ["data"]

    @pytest.mark.parametrize(
        "drop,batch,line",
        [
            # 26 weeks per label, one (residential, winter) week dropped
            (1, "26", "level 3: label combinations with too few examples: (residential, winter): 25 examples"),
            (0, "41", "level 1: 80 profiles < 2 batches of 41"),
        ],
        ids=["label_coverage", "batches"],
    )
    def test_untrainable_dataset_exits_3_with_its_line(self, drop, batch, line, tiny_datasets, tmp_path, capsys):
        write_level_datasets(tiny_datasets, tmp_path / "data")
        path = tmp_path / "data" / "level3.csv"
        lines = path.read_text().splitlines(keepends=True)
        winter = sorted({ln.split(",")[0] for ln in lines[1:] if ",residential,winter," in ln})[:drop]
        path.write_text("".join(ln for ln in lines if ln.split(",")[0] not in winter))
        code = main(["train", "--data", str(tmp_path / "data"), "--batch-size", batch,
                     "--output", str(tmp_path / "b.lsb")])
        assert code == 3
        assert capsys.readouterr().err.splitlines()[-1] == f"error: cannot train {line}"
        assert not (tmp_path / "b.lsb").exists()

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


# defects of one value that break its profile's normalization: (file,
# profile id, value); each file's line 2 is the first value of its profile 0
PROFILE_DEFECTS = {
    "l1_off_mean": ("level1.csv", "l1_000000", "5.0"),
    "l3_negative": ("level3.csv", "l3_000000", "-0.5"),
    "l2_nan": ("level2.csv", "l2_000000", "nan"),
    "l2_inf": ("level2.csv", "l2_000000", "inf"),
}


def defective_file(defect) -> str:
    return PROFILE_DEFECTS[defect][0] if defect in PROFILE_DEFECTS else "level2.csv"


def write_defective_datasets(datasets, directory, defect):
    write_level_datasets(datasets, directory)
    path = directory / defective_file(defect)
    lines = path.read_text().splitlines(keepends=True)
    if defect in PROFILE_DEFECTS:
        fields = lines[1].split(",")
        fields[4] = PROFILE_DEFECTS[defect][2] + "\n"
        lines[1] = ",".join(fields)
    elif defect == "short_profile":
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


@pytest.mark.parametrize("defect", ["short_profile", "bad_header", *ROW_DEFECTS, *PROFILE_DEFECTS])
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
        assert defective_file(defect) in err
        assert defect not in ROW_DEFECTS or "line 2:" in err
        assert defect not in PROFILE_DEFECTS or f"profile '{PROFILE_DEFECTS[defect][1]}' in " in err

    def test_train_exits_3(self, defect, tiny_datasets, tmp_path, capsys):
        write_defective_datasets(tiny_datasets, tmp_path / "data", defect)
        code = main(
            ["train", "--data", str(tmp_path / "data"), "--output", str(tmp_path / "b.lsb")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert defective_file(defect) in err
        assert defect not in ROW_DEFECTS or "line 2:" in err
        assert defect not in PROFILE_DEFECTS or f"profile '{PROFILE_DEFECTS[defect][1]}' in " in err
        assert not (tmp_path / "b.lsb").exists()


# defective level_meta.json entries: (profile id of the tiny datasets, entry)
META_ENTRY_DEFECTS = {
    "entry_not_object": ("l1_000000", b"[1, 2]"),
    "source_mean_string": ("l1_000000", b'{"source_mean": "x"}'),
    "source_mean_bool": ("l3_000000", b'{"source_mean": true}'),
    "source_mean_nan": ("l3_000000", b'{"source_mean": NaN}'),
    "source_mean_too_big": ("l4_000000", b'{"source_mean": 1' + b"0" * 400 + b"}"),
    "short_trend": ("l2_000000", b'{"trend_coeffs": [1.0, 2.0]}'),
    "infinite_trend": ("l2_000000", b'{"trend_coeffs": [0, 0, 0, 0, Infinity]}'),
    "trend_off_level_2": ("l4_000000", b'{"trend_coeffs": [0, 0, 0, 0, 0]}'),
    "unknown_key": ("l1_000000", b'{"mean": 1.0}'),
}


def meta_text(pid, entry) -> bytes:
    return b'{"%s": %s}' % (pid.encode(), entry)


@pytest.mark.parametrize(
    "text",
    [b"{not json", b"[1, 2]", b"\xff{}", *(meta_text(*d) for d in META_ENTRY_DEFECTS.values())],
    ids=["syntax", "not_object", "not_utf8", *META_ENTRY_DEFECTS],
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


@pytest.mark.parametrize("defect", META_ENTRY_DEFECTS)
def test_defective_meta_entry_names_the_profile(defect, tiny_datasets, tmp_path):
    pid, entry = META_ENTRY_DEFECTS[defect]
    write_level_datasets(tiny_datasets, tmp_path)
    (tmp_path / "level_meta.json").write_bytes(meta_text(pid, entry))
    with pytest.raises(InsufficientData, match=f"level_meta.json: profile '{pid}': "):
        read_level_datasets(tmp_path)


def _directory_in_place_of(name):
    def spoil(data):
        (data / name).unlink()
        (data / name).mkdir()
    return spoil


def _prepend_ff(data):
    path = data / "level2.csv"
    path.write_bytes(b"\xff" + path.read_bytes())


def _relabel(line_no, old, new):
    """Replace ``old`` by ``new`` on file line ``line_no`` of level4.csv, a line of l4_000000."""
    def spoil(data):
        lines = (data / "level4.csv").read_text().splitlines(keepends=True)
        assert lines[line_no - 1].startswith(f"l4_000000,{old},")
        lines[line_no - 1] = lines[line_no - 1].replace(old, new, 1)
        (data / "level4.csv").write_text("".join(lines))
    return spoil


# each case: (how to spoil a written dataset directory, the file the error names, its line)
UNREADABLE_DATASETS = {
    "level4_directory": (_directory_in_place_of("level4.csv"), "level4.csv", None),
    "meta_directory": (_directory_in_place_of("level_meta.json"), "level_meta.json", None),
    "level2_not_utf8": (_prepend_ff, "level2.csv", None),
    "later_line_other_label": (_relabel(3, "residential", "industrial"), "level4.csv", 3),
    "later_line_unknown_label": (_relabel(3, "residential", "commercial"), "level4.csv", 3),
}


@pytest.mark.parametrize("command", ["train", "validate"])
@pytest.mark.parametrize("case", UNREADABLE_DATASETS)
def test_unreadable_dataset_exits_3_naming_the_file(case, command, bundle_path, tiny_datasets, tmp_path, capsys):
    spoil, name, line = UNREADABLE_DATASETS[case]
    data = tmp_path / "data"
    write_level_datasets(tiny_datasets, data)
    spoil(data)
    if command == "train":
        argv = ["train", "--data", str(data), "--output", str(tmp_path / "b.lsb")]
    else:
        argv = ["validate", "--bundle", str(bundle_path), "--data", str(data), "--output-dir", str(tmp_path / "val")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{data / name}" + ("" if line is None else f" line {line}: ") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def oracle_dataset_fingerprint(datasets) -> str:
    """The fingerprint loop over one standalone profile at a time, as bundle
    provenance recorded it before datasets were arrays."""
    digest = hashlib.sha256()
    for level in Level:
        profiles = datasets.of(level)
        for i in range(len(profiles)):
            digest.update(np.array(profiles.samples[i]).tobytes())
            digest.update(str(profiles.load_class[i]).encode())
            digest.update(str(profiles.season[i]).encode())
    return digest.hexdigest()


def test_dataset_fingerprint_equals_the_per_profile_loop(tiny_datasets, tmp_path):
    write_level_datasets(tiny_datasets, tmp_path)
    for datasets in (tiny_datasets, read_level_datasets(tmp_path)):
        assert _dataset_fingerprint(datasets) == oracle_dataset_fingerprint(datasets)


@pytest.fixture(scope="module")
def five_hours_with_a_nan(tmp_path_factory):
    """A 5 h series CSV at 30 Hz holding one NaN reading at 2.5 h."""
    times = np.arange(5 * 3600 * 30) / 30.0
    values = np.full(times.size, 2.0)
    values[times.size // 2] = np.nan
    path = tmp_path_factory.mktemp("series") / "nan.csv"
    write_series_csv(path, times, values[None, :])
    return path


def test_non_finite_reading_is_skipped_with_one_note_per_level(five_hours_with_a_nan, tmp_path, capsys):
    code = main(
        ["ingest", "--series", str(five_hours_with_a_nan), "--load-class", "residential",
         "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "profiles extracted: {'l1': 599, 'l2': 0, 'l3': 0, 'l4': 0}\n" in err
    notes = [line for line in err.splitlines() if line.startswith("note: level 2")]
    assert notes == ["note: level 2 skipped 1 windows holding negative load (net export) or a non-finite value"]
    assert "note: level 1 skipped 1 windows" in err


def test_zero_cap_says_the_cap_kept_no_profiles(five_hours_with_a_nan, tmp_path, capsys):
    code = main(
        ["ingest", "--series", str(five_hours_with_a_nan), "--load-class", "residential",
         "--max-l1", "0", "--max-l2", "0", "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "profiles extracted: {'l1': 0, 'l2': 0, 'l3': 0, 'l4': 0}\n" in err
    assert "the cap of 0 kept none of the 600 windows\n" in err
    assert "the cap of 0 kept none of the 1 hours with the +-2 h context\n" in err
    assert "got 540000" not in err and "half-minute samples" not in err
    assert "skipped" not in err  # a cap of 0 picks no window to skip


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
    if defect == "missing_channel":
        assert err == f"error: {path}: record at t=0.03333333333333333 lacks phasors for line 'line1'\n"
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


def test_series_header_without_a_load_column_exits_3(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("timestamp\n2021-01-01T00:00:00\n")
    code = main(
        [
            "ingest", "--series", str(path), "--load-class", "residential",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert capsys.readouterr().err == f"error: {path} line 1: unexpected header 'timestamp'\n"
    assert not (tmp_path / "out").exists()


# each case: a header, two good rows and a defective one, and the reader
BLANK_LINES_BEFORE_A_DEFECT = {
    "phasor_number": (PHASOR_HEADER, ["0.0,a,1,0,1,0", "0.03333333333333333,a,1,0,1,0",
                                      "0.06666666666666667,a,1,x,1,0"], read_phasor_csv),
    "phasor_step": (PHASOR_HEADER, ["0.0,a,1,0,1,0", "0.03333333333333333,a,1,0,1,0", "0.5,a,1,0,1,0"],
                    read_phasor_csv),
    "series_number": ("timestamp,load_1", ["2021-01-01T00:00:00,1.5", "2021-01-01T00:00:00.033333,1.5",
                                           "2021-01-01T00:00:00.066667,abc"], read_30hz_series),
    "series_timestamp": ("timestamp,load_1", ["2021-01-01T00:00:00,1.5", "2021-01-01T00:00:00.033333,1.5",
                                              "2021-01-01 half past,1.5"], read_30hz_series),
    "series_step": ("timestamp,load_1", ["2021-01-01T00:00:00,1.5", "2021-01-01T00:00:00.033333,1.5",
                                         "2021-01-01T00:00:30,1.5"], read_30hz_series),
    "dataset_number": (DATASET_HEADER, ["p,residential,,0,1.0", "p,residential,,1,1.0", "p,residential,,2,x"],
                       lambda path: read_level_datasets(path.parent)),
    "dataset_label": (DATASET_HEADER, ["p,residential,,0,1.0", "p,residential,,1,1.0", "p,industrial,,2,1.0"],
                      lambda path: read_level_datasets(path.parent)),
}


@pytest.mark.parametrize("case", BLANK_LINES_BEFORE_A_DEFECT)
def test_blank_lines_before_a_defect_keep_its_line(case, tmp_path):
    header, rows, read = BLANK_LINES_BEFORE_A_DEFECT[case]
    path = tmp_path / "level1.csv"
    path.write_text("\n".join([header, "", rows[0], "  ", rows[1], "\t", rows[2]]) + "\n")
    with pytest.raises(InsufficientData) as info:
        read(path)
    assert str(info.value).startswith(f"{path} line 7: "), str(info.value)


@pytest.mark.parametrize("fmt", ["series", "dataset"])
def test_no_parse_call_exceeds_the_chunk(fmt, tiny_datasets, tmp_path, monkeypatch):
    """The series and dataset readers, like the phasor reader, give every
    np.loadtxt call at most PHASOR_CHUNK_ROWS lines, and get all rows so."""
    def values(datasets):
        return sum(datasets.of(level).samples.size for level in Level)

    if fmt == "series":
        path = tmp_path / "series.csv"
        write_series_csv(path, np.arange(50) / 30.0, np.ones((2, 50)))
        read, want = lambda: read_series_csv(path)[1].shape[1], 50  # noqa: E731
    else:
        write_level_datasets(tiny_datasets, tmp_path)
        read, want = lambda: values(read_level_datasets(tmp_path)), values(tiny_datasets)  # noqa: E731
    loadtxt, given_rows = np.loadtxt, []

    def counting_loadtxt(source, *args, **kwargs):
        rows = list(source)
        given_rows.append(len(rows))
        return loadtxt(rows, *args, **kwargs)

    monkeypatch.setattr(ingest, "PHASOR_CHUNK_ROWS", 16 if fmt == "series" else 1000)
    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    assert read() == want
    assert sum(given_rows) == want and max(given_rows) == ingest.PHASOR_CHUNK_ROWS


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


# each case: arguments refused before any work; the absent bundle and data
# directory would exit 3 if they were read, and training prints progress
_GENERATE = ["generate", "--bundle", "absent.lsb", "--residential", "1", "--resolution",
             "1/h", "--length", "1d", "--output", "out.csv"]
_TRAIN = ["train", "--toy-loads", "2", "--output", "out.lsb"]
BAD_NUMBERS = {
    "generate_seed": [*_GENERATE, "--seed", "-1"],
    "generate_base_nan": [*_GENERATE, "--base-mw", "nan"],
    "generate_base_inf": [*_GENERATE, "--base-mw", "inf"],
    "validate_seed": ["validate", "--bundle", "absent.lsb", "--data", "absent",
                      "--output-dir", "val", "--seed", "-1"],
    "train_seed": [*_TRAIN, "--seed", "-1"],
    "train_toy_seed": [*_TRAIN, "--toy-seed", "-1"],
    "train_batch_zero": [*_TRAIN, "--batch-size", "0"],
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_bad_number_exits_2_before_any_work(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(BAD_NUMBERS[case])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--noise-dim", "--l1-epochs", "--l2-epochs", "--l3-epochs"])
@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_train_non_positive_size_exits_2(flag, value, via_config, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [*_TRAIN, flag, str(value)]
    if via_config:
        (tmp_path / "train.json").write_text(json.dumps({flag[2:]: value}))
        argv = [*_TRAIN, "--config", "train.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} {value} must be positive\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["train.json"] if via_config else [])


# each numeric flag of each subcommand with its domain, and a command line
# that would otherwise do work (absent inputs exit 3 once they are read)
NUMERIC_FLAGS = {
    "train": (_TRAIN, {
        "--toy-seed": non_negative_int, "--toy-loads": positive_int, "--toy-years": positive_int,
        "--l1-windows": positive_int, "--l2-profiles": positive_int, "--l1-epochs": positive_int,
        "--l2-epochs": positive_int, "--l3-epochs": positive_int, "--batch-size": positive_int,
        "--noise-dim": positive_int, "--seed": non_negative_int,
    }),
    "generate": (_GENERATE, {
        "--residential": non_negative_int, "--industrial": non_negative_int,
        "--base-mw": finite_positive_float, "--seed": non_negative_int,
    }),
    "validate": (["validate", "--bundle", "absent.lsb", "--data", "absent", "--output-dir", "val"],
                 {"--seed": non_negative_int}),
    "simulate": (["simulate", "--duration", "1h", "--output", "sim.csv"], {
        "--seed": non_negative_int, "--base-mw": finite_positive_float,
        "--block-s": finite_positive_float,
    }),
    "ingest": (["ingest", "--phasors", "absent.csv", "--load-class", "residential",
                "--output-dir", "out"], {
        "--start-week": week_index, "--max-l1": non_negative_int, "--max-l2": non_negative_int,
    }),
}


def _texts(value):
    """A value as (command-line text, JSON text)."""
    return str(value), json.dumps(value)


# out-of-domain values of each domain, as (command-line text, JSON text)
_NOT_WHOLE = st.sampled_from(
    [("1.5", "1.5"), ("nan", "NaN"), ("inf", "Infinity"), ("1e400", "1e400"), ("true", "true")]
)
OUT_OF_DOMAIN = {
    non_negative_int: st.integers(max_value=-1).map(_texts) | _NOT_WHOLE,
    positive_int: st.integers(max_value=0).map(_texts) | _NOT_WHOLE,
    week_index: (st.integers(max_value=-1) | st.integers(min_value=52)).map(_texts) | _NOT_WHOLE,
    finite_positive_float: st.floats(max_value=0.0).map(lambda x: (repr(x), json.dumps(x)))
    | st.sampled_from([("nan", "NaN"), ("inf", "Infinity"), ("1e400", "1e400"), ("true", "true")]),
}


def test_every_numeric_flag_has_a_declared_domain():
    _, subparsers = build_parser()
    for name, sp in subparsers.items():
        typed = {a.option_strings[0]: a.type for a in sp._actions if a.type is not None}
        assert typed == NUMERIC_FLAGS[name][1]


@contextlib.contextmanager
def _in_directory(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_out_of_domain_number_exits_2_naming_the_flag(data):
    """Given on the command line, or in a --config file as a JSON value or a
    JSON string, a value outside its flag's domain exits 2 with one line
    naming the flag, before any work."""
    command = data.draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    argv, domains = NUMERIC_FLAGS[command]
    flag = data.draw(st.sampled_from(sorted(domains)))
    via = data.draw(st.sampled_from(["flag", "config", "config_string"]))
    text, json_text = data.draw(OUT_OF_DOMAIN[domains[flag]])
    with tempfile.TemporaryDirectory() as tmp, _in_directory(tmp):
        if via == "flag":
            argv = [*argv, f"{flag}={text}"]
        else:
            value = json_text if via == "config" else json.dumps(text)
            Path("c.json").write_text(f'{{"{flag[2:]}": {value}}}', encoding="utf-8")
            argv = [*argv, "--config", "c.json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        left = sorted(os.listdir())
    assert code == 2
    assert err.getvalue().startswith(f"error: {flag} ") and err.getvalue().count("\n") == 1
    assert left == ([] if via == "flag" else ["c.json"])


@pytest.mark.parametrize(
    "content,words",
    [
        (b'{"seed": \xff}', "c.json: 'utf-8' codec can't decode"),
        (b'{"seed": 1', "c.json: Expecting"),
        (b"[1, 2]", "must hold a JSON object"),
        (b'{"estimate_only": 1}', "--estimate-only 1 must be true or false"),
        (None, "c.json: [Errno 2]"),
    ],
    ids=["not_utf8", "not_json", "not_object", "switch_not_bool", "absent"],
)
def test_bad_config_file_exits_2(content, words, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / "c.json").write_bytes(content)
    assert main([*_GENERATE, "--config", "c.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if content is None else ["c.json"])


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


def _net_export_phasors(path, n_windows, export_window):
    """One line at unity power factor for n_windows 30 s windows; in one window
    the current is reversed (i_ang - v_ang = pi), so the bus exports power."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PHASOR_HEADER + "\n")
        for k in range(n_windows * 900):
            i_ang = math.pi if k // 900 == export_window else 0.0
            fh.write(f"{k / 30.0!r},line0,1.0,0.0,{1.0 + (k % 7) / 10},{i_ang!r}\n")


@pytest.mark.parametrize("source", ["--phasors", "--series"])
def test_net_export_window_is_skipped_with_a_note(source, tmp_path, capsys):
    """Negative bus power (net export) in one window leaves that window out
    and says how many were left out, instead of a traceback."""
    path = tmp_path / "input.csv"
    if source == "--phasors":
        _net_export_phasors(path, 4, export_window=2)
    else:
        times = np.arange(4 * 900) / 30.0
        values = 2.0 + np.sin(times)
        values[2 * 900 + 100] = -0.25
        write_series_csv(path, times, values[None, :])
    code = main(
        ["ingest", source, str(path), "--load-class", "residential", "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "profiles extracted: {'l1': 3, 'l2': 0, 'l3': 0, 'l4': 0}\n" in err
    assert "note: level 1 skipped 1 windows holding negative load (net export) or a non-finite value\n" in err
    assert (tmp_path / "out" / "level1.csv").read_text().count("\n") == 1 + 3 * 900


def test_ingest_takes_its_flags_from_config(tmp_path, capsys, monkeypatch):
    """--phasors, --load-class and the caps from a config file; an explicit
    --series on the command line overrides the configured --phasors."""
    monkeypatch.chdir(tmp_path)
    _net_export_phasors(tmp_path / "pmu.csv", 6, export_window=-1)
    config = {"phasors": ["pmu.csv"], "load-class": "industrial", "max_l1": 2, "output_dir": "out"}
    Path("c.json").write_text(json.dumps(config))
    assert main(["ingest", "--config", "c.json"]) == 0
    assert "profiles extracted: {'l1': 2, " in capsys.readouterr().err
    assert Path("out/level1.csv").read_text().splitlines()[1].startswith("l1_000000,industrial,,0,")
    write_series_csv(tmp_path / "s.csv", np.arange(900) / 30.0, np.full((1, 900), 2.0))
    assert main(["ingest", "--config", "c.json", "--series", "s.csv", "--output-dir", "out2"]) == 0
    assert "profiles extracted: {'l1': 1, " in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,message",
    [
        ({"phasors": []}, "error: --phasors [] must name at least one value\n"),
        ({"phasors": ["a.csv"], "series": "b.csv"},
         "error: --config c.json: the keys phasors, series exclude each other\n"),
    ],
    ids=["no_phasor_file", "both_sources"],
)
def test_bad_ingest_config_exits_2(config, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps({**config, "load_class": "residential"}))
    assert main(["ingest", "--config", "c.json", "--output-dir", "out"]) == 2
    assert capsys.readouterr().err == message
    assert os.listdir() == ["c.json"]


# each case: a command, and a config whose value of the named key holds a
# NUL, which open() refuses with ValueError; no command line can pass one
NUL_CONFIGS = {
    "ingest_series": ("ingest", "series", {"series": "a\0.csv", "load_class": "residential", "output_dir": "o"}),
    "ingest_phasors": ("ingest", "phasors", {"phasors": ["a.csv", "b\0.csv"], "load_class": "residential",
                                             "output_dir": "o"}),
    "train": ("train", "data", {"data": "d\0", "output": "out.lsb"}),
    "generate": ("generate", "bundle", {"bundle": "b\0.lsb", "residential": 1, "resolution": "1/h",
                                        "length": "1d", "output": "out.csv"}),
    "simulate": ("simulate", "output", {"duration": "2h", "output": "out\0.csv"}),
}


@pytest.mark.parametrize("case", NUL_CONFIGS)
def test_nul_in_a_config_value_exits_2_naming_the_key(case, tmp_path, capsys, monkeypatch):
    command, key, config = NUL_CONFIGS[case]
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps(config))
    assert main([command, "--config", "c.json"]) == 2
    assert capsys.readouterr().err == f"error: --config c.json: the value of {key!r} holds a NUL character\n"
    assert os.listdir() == ["c.json"]


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


# each case: a command's arguments up to the flag that names its output
OUTPUT_NAME_COMMANDS = {
    **{command: [*argv, "--output"] for command, argv in OUTPUT_COMMANDS.items()},
    **{f"{argv[0]} {argv[-1]}": argv for argv in OUTPUT_DIR_COMMANDS.values()},
}


@pytest.mark.parametrize("command", OUTPUT_NAME_COMMANDS)
def test_output_name_too_long_exits_2(command, bundle_path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = "a" * 300
    argv = [*OUTPUT_NAME_COMMANDS[command], name]
    if command == "generate":
        argv += ["--bundle", str(bundle_path)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: cannot write {name}: File name too long"
    assert "simulating" not in err and "Traceback" not in err
    assert os.listdir() == []


# each case: a command writing to directory "out", and the file in it that a
# directory is put in place of
DIRECTORY_IN_THE_WAY = {
    "ingest": (
        ["ingest", "--series", "series.csv", "--load-class", "residential", "--output-dir", "out"], "level1.csv"
    ),
    "validate": (["validate", "--data", "data", "--output-dir", "out"], "summary.txt"),
    "train": ([*SMOKE_TRAIN, "--output", "b.lsb", "--save-data", "out"], "level2.csv"),
}


@pytest.mark.parametrize("command", DIRECTORY_IN_THE_WAY)
def test_directory_in_place_of_an_output_file_exits_2(
    command, bundle_path, tiny_datasets, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    argv, blocked = DIRECTORY_IN_THE_WAY[command]
    if command == "ingest":
        times = np.arange(1800) / 30.0
        write_series_csv("series.csv", times, np.full((1, times.size), 2.0))
    if command == "validate":
        write_level_datasets(tiny_datasets, "data")
        argv = [*argv, "--bundle", str(bundle_path)]
    os.makedirs(f"out/{blocked}")
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: cannot write out/{blocked}: Is a directory"
    assert "Traceback" not in err
    assert not os.path.exists("b.lsb")


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
    "block_longer_than_duration": ["--duration", "10s", "--block-s", "30"],
    "block_longer_than_minute": ["--duration", "1min", "--block-s", "90"],
    # 899.7 ticks hold no whole 900-tick block
    "block_longer_than_fractional_duration": ["--duration", "29.99s", "--block-s", "30"],
    # 308 nines of seconds is a finite float, but not 30 times it
    "full_rate_ticks_overflow": ["--duration", "9" * 308 + "s"],
    "block_ticks_overflow": ["--duration", "9" * 308 + "s", "--block-s", "30"],
}


@pytest.mark.parametrize("case", SIMULATE_BAD_ARGS)
def test_simulate_bad_arguments_exit_2(case, tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = main(["simulate", *SIMULATE_BAD_ARGS[case], "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--block-s", "30"]], ids=["full_rate", "blocks"])
@pytest.mark.parametrize("duration", ["1000yr", "53.01yr", "1000000000yr"])
def test_simulate_past_the_year_cap_exits_2_before_any_work(duration, extra, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the simulator ran")

    monkeypatch.setattr(cli, "simulate_ground_truth", unreachable)
    monkeypatch.setattr(cli, "simulate_block_means", unreachable)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--duration", duration, *extra, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --duration {duration} is longer than the 53 years of one series\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--block-s", "30"]], ids=["full_rate", "blocks"])
def test_simulator_out_of_memory_exits_2(extra, tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.86 TiB")

    monkeypatch.setattr(cli, "simulate_ground_truth", out_of_memory)
    monkeypatch.setattr(cli, "simulate_block_means", out_of_memory)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--duration", "53yr", *extra, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: simulate: the request does not fit in memory\n"
    assert not out.exists()


# more bytes than any 64-bit machine maps (2**57), yet under numpy's 2**63
# limit: the allocation fails whatever the overcommit setting
OUT_OF_MEMORY = {
    # 10**12 loads x 53 years of 8736 hours: 3.7e18 bytes of output
    "generate": ["--residential", "1000000000000", "--resolution", "1/h", "--length", "53yr"],
    # (10**15 x 128) level-1 generator weights: 1.0e18 bytes
    "train": ["--toy-loads", "2", "--l1-windows", "16", "--l2-profiles", "16", "--batch-size", "8",
              "--noise-dim", "1000000000000000"],
}


@pytest.mark.parametrize("command", OUT_OF_MEMORY)
def test_request_larger_than_memory_exits_2(command, bundle_path, tmp_path, capsys):
    out = tmp_path / "out"
    bundle = ["--bundle", str(bundle_path)] if command == "generate" else []
    assert main([command, *bundle, *OUT_OF_MEMORY[command], "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {command}: the request does not fit in memory"
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_request_past_numpy_s_array_limit_exits_2(bundle_path, tmp_path, capsys):
    # 10**13 loads x 53 years of 8736 hours: 3.7e19 bytes, more than an
    # array's 2**63 - 1, which numpy refuses with a ValueError, not a MemoryError
    request = GenerationRequest(10**13, 0, parse_resolution("1/h"), parse_duration("53yr"))
    with pytest.raises(MemoryError):
        request.validate()
    out = tmp_path / "out.csv"
    args = ["--residential", "10000000000000", "--resolution", "1/h", "--length", "53yr"]
    assert main(["generate", "--bundle", str(bundle_path), *args, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: generate: the request does not fit in memory"
    assert "Traceback" not in err
    assert not out.exists()


def test_train_past_the_year_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the simulator ran")

    monkeypatch.setattr(cli, "default_desk_configs", unreachable)
    monkeypatch.setattr(cli, "desk_level_datasets", unreachable)
    out = tmp_path / "b.lsb"
    assert main(["train", "--toy-years", "54", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: --toy-years 54 is longer than the 53 years of one series\n"
    assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize(
        "duration, block_s, rows, last",
        # 3600 // 0.1 is 35999.0 in floats
        [
            ("1h", "0.1", 36_000, "2021-01-01T00:59:59.900000"),
            ("1min", "0.3", 200, "2021-01-01T00:00:59.700000"),
            ("2wk", "30", 40_320, "2021-01-14T23:59:30"),
            ("1min", "60", 1, "2021-01-01T00:00:00"),
            # 1799.7 ticks: the part of a tick does not make a second block
            ("59.99s", "30", 1, "2021-01-01T00:00:00"),
            # 21254399.999999996 ticks in floats, 21254400 in decimals
            ("8.2d", "30", 23_616, "2021-01-09T04:47:30"),
        ],
    )
    def test_simulate_counts_blocks_in_whole_ticks(self, tmp_path, duration, block_s, rows, last):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--duration", duration, "--block-s", block_s, "--output", str(out)])
        assert code == 0
        stamps, series = read_series_csv(out)
        assert series.shape == (1, rows)
        assert stamps[-1] == last

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
