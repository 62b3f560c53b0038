"""Command-line front end: train, generate, validate, simulate, ingest.

Exit codes: 0 success, 2 invalid arguments, 3 missing/incompatible bundle
or missing/malformed input data, 4 generation failure, 5 training divergence.

A JSON configuration file (--config) may supply any flag, keyed by the
flag's long name (dashes or underscores); explicit command-line flags win.
The LOADSYNTH_BUNDLE environment variable supplies the default --bundle.

Timestamps are nominal, starting 2021-01-01T00:00:00 (a non-leap year
whose January 1st anchors the winter start of auto-yearly generation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import __version__
from .compose import (
    HALFMIN_PER_HOUR,
    GenerationRequest,
    ModelSet,
    learn_seam_filter,
    synthesize,
)
from .core import (
    LEVEL_SPECS,
    SECONDS_PER_YEAR,
    Level,
    LoadClass,
    Metric,
    Season,
    parse_resolution,
)
from .errors import (
    BundleError,
    DatasetTooSmall,
    DivergenceDetected,
    InsufficientData,
    LoadSynthError,
    MissingLabelCoverage,
    ParseError,
    RequestError,
    ResolutionTooFine,
)
from .ingest import (
    extract_level_datasets,
    off_30hz_grid,
    read_level_datasets,
    read_phasor_csv,
    write_level_datasets,
)
from .modelio import ModelBundle
from .neural.gan import (
    HyperParams,
    check_batches,
    check_label_coverage,
    gan_generate,
    train_cgan,
    train_gan,
)
from .svdgen import fit_svd_model_from_profiles, svd_generate
from .toydata import (
    ToyLoadConfig,
    default_desk_configs,
    desk_level_datasets,
    simulate_block_means,
    simulate_ground_truth,
)
from .validate import (
    metrics_to_csv,
    psd,
    psd_to_csv,
    seam_stats,
    wasserstein_1d,
)

EPOCH_START = datetime(2021, 1, 1, 0, 0, 0)

# file-size estimate constants (documented): one ISO timestamp plus its
# delimiter, and one numeric cell (6 significant digits) plus delimiter
TIMESTAMP_BYTES = 20
NUMERIC_BYTES = 10

_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)(s|min|h|d|wk|yr)$")
_DURATION_UNITS = {
    "s": 1.0,
    "min": 60.0,
    "h": 3600.0,
    "d": 86_400.0,
    "wk": 604_800.0,
    "yr": SECONDS_PER_YEAR,
}


def parse_duration(text: str) -> float:
    """`<count><unit>` with unit in {s, min, h, d, wk, yr}; 1 yr = 52 wk."""
    m = _DURATION_RE.match(text)
    if m is None:
        raise ParseError(f"malformed duration {text!r}; expected e.g. '1d' or '2.5h'")
    value = float(m.group(1)) * _DURATION_UNITS[m.group(2)]
    if value <= 0:
        raise ParseError(f"duration {text!r} must be positive")
    return value


def estimate_file_size(request: GenerationRequest) -> int:
    """Estimated CSV size in bytes for the request, within +-15% of actual."""
    rows = int(math.floor(request.duration_s / request.resolution.effective_period_s + 1e-9))
    header = len("timestamp") + sum(
        len(f",load_{i+1}") for i in range(request.n_loads)
    ) + 1
    return rows * (TIMESTAMP_BYTES + request.n_loads * NUMERIC_BYTES) + header


# rows formatted per write: bounds the writer's memory whatever the duration
CSV_BLOCK_ROWS = 65_536
_US_PER_DAY = 86_400_000_000


def _offset_us(times_s: np.ndarray) -> np.ndarray:
    """Offsets in whole microseconds, rounded half to even as `timedelta` does."""
    frac, whole = np.modf(times_s)
    return whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)


def _label_each(values: np.ndarray, label) -> list:
    """`label(v)` for every value, calling `label` once per distinct value."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array([label(v) for v in distinct.tolist()], dtype=object)[index].tolist()


def _day_label(day: int) -> str:
    return (EPOCH_START + timedelta(days=day)).date().isoformat()


def _clock_label(second: int) -> str:
    return "%02d:%02d:%02d" % (second // 3600, second // 60 % 60, second % 60)


def _fraction_label(micro: int) -> str:
    return f".{micro:06d}" if micro else ""


def write_series_csv(path, times_s: np.ndarray, series: np.ndarray) -> None:
    """CSV of `series` (n_loads, n_rows) with ISO timestamps at `times_s`.

    A timestamp is EPOCH_START (a midnight) plus its offset rounded half to
    even to whole microseconds, as `timedelta(seconds=t)` rounds it;
    `.ffffff` is printed only when non-zero, as `datetime.isoformat` does.
    Rows are formatted CSV_BLOCK_ROWS at a time by one `%` each; the date,
    clock and fraction strings are formatted once per distinct value.
    """
    n_loads, n_rows = series.shape
    times_s = np.asarray(times_s, dtype=np.float64)
    row = "%sT%s%s," + ",".join(["%.6g"] * n_loads) + "\n"
    width = 3 + n_loads
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp" + "".join(f",load_{i+1}" for i in range(n_loads)) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            days, us = np.divmod(_offset_us(times_s[start:stop]), _US_PER_DAY)
            seconds, micro = np.divmod(us, 1_000_000)
            cells = [None] * ((stop - start) * width)
            cells[0::width] = _label_each(days, _day_label)
            cells[1::width] = _label_each(seconds, _clock_label)
            cells[2::width] = _label_each(micro, _fraction_label)
            for i in range(n_loads):
                cells[3 + i :: width] = series[i, start:stop].tolist()
            fh.write(row * (stop - start) % tuple(cells))


def read_series_csv(path) -> tuple[list[str], np.ndarray]:
    """Timestamps and the (n_loads, n_rows) values of a series CSV.

    A ragged row or a value that is not a number raises InsufficientData
    naming the file and line; a header-only file has no rows.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            stamps, rows = [], []
            for line_no, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if len(parts) != len(header):
                    raise InsufficientData(
                        f"{path} line {line_no}: ragged row {line.strip()!r}: "
                        f"{len(parts)} fields, the header has {len(header)}"
                    )
                try:
                    rows.append([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise InsufficientData(
                        f"{path} line {line_no}: bad row {line.strip()!r}: {exc}"
                    ) from exc
                stamps.append(parts[0])
    except UnicodeDecodeError as exc:
        raise InsufficientData(f"{path} is not UTF-8 text: {exc}") from exc
    return stamps, np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1).T


def _check_30hz(path, stamps: list[str]) -> None:
    """Refuse a series whose timestamps do not step at 30 Hz (1/30 s +-10%),
    naming the line of the first unparsable or off-grid row."""
    try:
        us = np.array(stamps, dtype="datetime64[us]").astype(np.int64)
    except ValueError:
        for line_no, stamp in enumerate(stamps, start=2):
            try:
                np.datetime64(stamp, "us")
            except ValueError as exc:
                raise InsufficientData(f"{path} line {line_no}: bad timestamp {stamp!r}") from exc
        raise
    step = np.diff(us) / 1e6
    off_grid = off_30hz_grid(step)
    if off_grid.size:
        k = off_grid[0]
        raise InsufficientData(
            f"{path} line {k + 3}: the row at {stamps[k + 1]} follows {stamps[k]}, a step "
            f"of {step[k]:.6f}s that breaks the 30 Hz +-10% spacing"
        )


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


def _dataset_fingerprint(datasets) -> str:
    digest = hashlib.sha256()
    for level in Level:
        for prof in datasets.of(level):
            digest.update(prof.samples.tobytes())
            digest.update(str(prof.load_class).encode())
            digest.update(str(prof.season).encode())
    return digest.hexdigest()


def _check_output_dir(path) -> None:
    """Refuse an output path whose directory does not exist, before any work."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise RequestError(f"cannot write {path}: directory {parent} does not exist")


def _check_output_tree(path) -> None:
    """Refuse a directory path that a file is in the way of, before any work."""
    path = Path(path)
    blocker = next((p for p in (path, *path.parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        raise RequestError(f"cannot write to directory {path}: {blocker} is not a directory")


def cmd_train(args) -> int:
    _check_output_dir(args.output)
    if args.save_data:
        _check_output_tree(args.save_data)
    if args.data:
        datasets = read_level_datasets(args.data)
    else:
        configs = default_desk_configs(
            n_residential=args.toy_loads // 2,
            n_industrial=args.toy_loads - args.toy_loads // 2,
            seed=args.toy_seed,
        )
        print(
            f"simulating {len(configs)} loads x {args.toy_years} years at desk scale",
            file=sys.stderr,
        )
        datasets = desk_level_datasets(
            configs,
            n_years=args.toy_years,
            l1_windows_per_load=args.l1_windows,
            l2_profiles_per_load=args.l2_profiles,
        )
        if args.save_data:
            write_level_datasets(datasets, args.save_data)
    for level in Level:
        if not datasets.of(level):
            print(
                f"error: no training data for level {level.value[-1]}: "
                f"{datasets.issues.get(level, 'empty dataset')}",
                file=sys.stderr,
            )
            return 3

    hyper = dict(batch_size=args.batch_size, noise_dim=args.noise_dim)
    seeds = {
        "l1": args.seed,
        "l2": args.seed + 1,
        "l3": args.seed + 2,
        "l4": args.seed + 3,
    }
    # the rng-free fits first, so too little data fails before any GAN trains
    print(f"fitting level 4 pattern models ({len(datasets.l4)} year profiles)", file=sys.stderr)
    l4_res = fit_svd_model_from_profiles(datasets.l4, LoadClass.MAINLY_RESIDENTIAL)
    l4_ind = fit_svd_model_from_profiles(datasets.l4, LoadClass.MAINLY_INDUSTRIAL)
    seam = learn_seam_filter(datasets.l3)
    for level in (Level.L1, Level.L2, Level.L3):  # the trainers' own data rules
        profiles = datasets.of(level)
        try:
            if level is Level.L3:
                check_label_coverage([(p.load_class, p.season) for p in profiles], args.batch_size)
            check_batches(len(profiles), args.batch_size)
        except (DatasetTooSmall, MissingLabelCoverage, ValueError) as exc:
            raise InsufficientData(f"cannot train level {level.value[-1]}: {exc}") from exc
    print(f"training level 1 ({len(datasets.l1)} profiles, {args.l1_epochs} epochs)", file=sys.stderr)
    l1 = train_gan(datasets.l1, Level.L1, HyperParams(epochs=args.l1_epochs, **hyper), seeds["l1"])
    print(f"training level 2 ({len(datasets.l2)} profiles, {args.l2_epochs} epochs)", file=sys.stderr)
    l2 = train_gan(datasets.l2, Level.L2, HyperParams(epochs=args.l2_epochs, **hyper), seeds["l2"])
    print(f"training level 3 ({len(datasets.l3)} profiles, {args.l3_epochs} epochs)", file=sys.stderr)
    l3 = train_cgan(datasets.l3, None, HyperParams(epochs=args.l3_epochs, **hyper), seeds["l3"])

    models = ModelSet(
        l1=l1, l2=l2, l3=l3, l4_residential=l4_res, l4_industrial=l4_ind, seam=seam
    )
    provenance = {
        "package_version": __version__,
        "seeds": seeds,
        "dataset_fingerprint": _dataset_fingerprint(datasets),
        "dataset_sizes": {lvl.value: len(datasets.of(lvl)) for lvl in Level},
    }
    bundle = ModelBundle(models=models, provenance=provenance)
    bundle.save(args.output)
    log_path = str(args.output) + ".train_log.json"
    with open(log_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "l1": l1.log.to_jsonable(),
                "l2": l2.log.to_jsonable(),
                "l3": l3.log.to_jsonable(),
                "provenance": provenance,
            },
            fh,
            sort_keys=True,
            indent=1,
        )
    print(f"bundle written to {args.output} (log: {log_path})", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------

_SEASONS = {s.value: s for s in Season}
_METRICS = {m.value: m for m in Metric}


def _build_request(args) -> GenerationRequest:
    resolution = parse_resolution(args.resolution)
    duration = parse_duration(args.length)
    if args.season == "auto":
        season = None
    else:
        season = _SEASONS[args.season]
        if duration == SECONDS_PER_YEAR:
            print(
                "warning: explicit season is overridden for full-year output; "
                "seasons follow the yearly sequence starting in winter (January 1st)",
                file=sys.stderr,
            )
            season = None
    return GenerationRequest(
        n_residential=args.residential,
        n_industrial=args.industrial,
        resolution=resolution,
        duration_s=duration,
        season=season,
        aggregation=_METRICS[args.aggregation],
        base_mw=args.base_mw,
        seed=args.seed,
    )


def _bundle_path(args) -> str:
    path = args.bundle or os.environ.get("LOADSYNTH_BUNDLE")
    if not path:
        raise BundleError(
            "no model bundle given: pass --bundle or set LOADSYNTH_BUNDLE"
        )
    return path


def cmd_generate(args) -> int:
    request = _build_request(args)
    request.validate()
    estimate = estimate_file_size(request)
    print(f"estimated file size: {estimate} bytes", file=sys.stderr)
    if args.estimate_only:
        print(estimate)
        return 0
    _check_output_dir(args.output)
    bundle = ModelBundle.load(_bundle_path(args))
    try:
        times, series = synthesize(request, bundle.models)
    except LoadSynthError as exc:
        print(f"error: generation failed in {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    write_series_csv(args.output, times, series)
    print(
        f"wrote {series.shape[1]} rows x {series.shape[0]} loads "
        f"({os.path.getsize(args.output)} bytes) to {args.output}",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def cmd_validate(args) -> int:
    _check_output_tree(args.output_dir)
    bundle = ModelBundle.load(_bundle_path(args))
    datasets = read_level_datasets(args.data)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    models = bundle.models
    rows = []
    lines = []

    for level, model in ((Level.L1, models.l1), (Level.L2, models.l2)):
        if not datasets.of(level):
            continue
        real = np.array([p.samples for p in datasets.of(level)[:500]])
        gen = gan_generate(model, len(real), seed=args.seed)
        w = wasserstein_1d(real, gen)
        rows.append((f"wasserstein_exact_{level.value}", "real_vs_generated", w))
        lines.append(f"level {level.value[-1]} amplitude distance (exact): {w:.6f}")
        period = LEVEL_SPECS[level].sampling_period_s
        freqs, real_psd = psd(real, period)
        _, gen_psd = psd(gen, period)
        psd_to_csv(out_dir / f"psd_{level.value}_real.csv", freqs, real_psd)
        psd_to_csv(out_dir / f"psd_{level.value}_generated.csv", freqs, gen_psd)

    l3_real = datasets.l3[:500]
    if l3_real:
        labels = [(p.load_class, p.season) for p in l3_real]
        gen = gan_generate(models.l3, len(l3_real), seed=args.seed, labels=labels)
        w = wasserstein_1d([p.samples for p in l3_real], gen)
        rows.append(("wasserstein_exact_l3", "real_vs_generated", w))
        lines.append(f"level 3 amplitude distance (exact): {w:.6f}")

    l4_real = datasets.l4
    if l4_real:
        for cls, model in (
            (LoadClass.MAINLY_RESIDENTIAL, models.l4_residential),
            (LoadClass.MAINLY_INDUSTRIAL, models.l4_industrial),
        ):
            real_cls = [p.samples for p in l4_real if p.load_class is cls]
            if not real_cls:
                continue
            gen = svd_generate(model, max(len(real_cls), 50), seed=args.seed)
            w = wasserstein_1d(real_cls, gen)
            rows.append((f"wasserstein_exact_l4_{cls.value}", "real_vs_generated", w))
            lines.append(f"level 4 {cls.value} amplitude distance (exact): {w:.6f}")

    # junction behaviour of a composed day at the two bottom levels
    request = GenerationRequest(
        n_residential=1,
        n_industrial=0,
        resolution=parse_resolution("1/30s"),
        duration_s=6 * 3600.0,
        seed=args.seed,
    )
    _, series = synthesize(request, models)
    # driven at level 2 with no offset: generated hours join after every 120th sample
    junctions = range(HALFMIN_PER_HOUR - 1, series.shape[1] - 1, HALFMIN_PER_HOUR)
    st = seam_stats(series[0], junctions)
    rows.append(("seam_mean_pct_l2", "generated", st.mean_pct))
    rows.append(("seam_std_pct_l2", "generated", st.std_pct))
    lines.append(
        f"level 2 junction steps (generated): mean {st.mean_pct:.3f}% std {st.std_pct:.3f}%"
    )

    metrics_to_csv(out_dir / "metrics.csv", rows)
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"reports written to {out_dir}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# simulate / ingest
# ----------------------------------------------------------------------


def cmd_simulate(args) -> int:
    factory = (
        ToyLoadConfig.residential
        if args.load_class == "residential"
        else ToyLoadConfig.industrial
    )
    duration = parse_duration(args.duration)
    _check_output_dir(args.output)
    if args.block_s is not None and not args.block_s > 0:
        raise RequestError(f"--block-s {args.block_s} must be a positive multiple of 1/30 s")
    try:  # the simulator validates its arguments with ValueError
        config = factory(seed=args.seed, base_mw=args.base_mw)
        if args.block_s is not None:
            n_blocks = int(duration // args.block_s)
            values = simulate_block_means(config, args.block_s, n_blocks)
            times = args.block_s * np.arange(n_blocks)
        else:
            values = simulate_ground_truth(config, duration)
            times = np.arange(values.size) / 30.0
    except ValueError as exc:
        raise RequestError(f"simulate: {exc}") from exc
    write_series_csv(args.output, times, values[None, :])
    print(f"wrote {values.size} samples to {args.output}", file=sys.stderr)
    return 0


def cmd_ingest(args) -> int:
    for flag, cap in (("--max-l1", args.max_l1), ("--max-l2", args.max_l2)):
        if cap is not None and cap < 0:
            raise RequestError(f"{flag} {cap} must be zero or more")
    _check_output_tree(args.output_dir)
    try:
        if args.phasors:
            series = read_phasor_csv(args.phasors)
        else:
            stamps, data = read_series_csv(args.series)
            _check_30hz(args.series, stamps)
            series = data[0]
    except OSError as exc:
        raise InsufficientData(f"cannot read {exc.filename}: {exc.strerror or exc}") from exc
    load_class = LoadClass(args.load_class)
    datasets = extract_level_datasets(
        series,
        start_time_s=args.start_week * 604_800.0,
        load_class=load_class,
        max_l1_profiles=args.max_l1,
        max_l2_profiles=args.max_l2,
    )
    write_level_datasets(datasets, args.output_dir)
    counts = {lvl.value: len(datasets.of(lvl)) for lvl in Level}
    print(f"profiles extracted: {counts}", file=sys.stderr)
    for level, message in sorted(datasets.issues.items(), key=lambda kv: kv[0].value):
        print(f"note: {message}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="loadsynth",
        description="multi-level synthetic bus-load generation",
    )
    parser.add_argument("--version", action="version", version=f"loadsynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["train"] = sub.add_parser("train", help="train all six model artifacts")
    p.add_argument("--data", help="directory of level dataset CSVs (from ingest)")
    p.add_argument("--toy-seed", type=int, default=2024, help="simulate training data with this master seed")
    p.add_argument("--toy-loads", type=int, default=12)
    p.add_argument("--toy-years", type=int, default=2)
    p.add_argument("--l1-windows", type=int, default=200, help="simulated 30 s windows per load")
    p.add_argument("--l2-profiles", type=int, default=250, help="detrended hours per load")
    p.add_argument("--save-data", help="also write the simulated datasets to this directory")
    p.add_argument("--l1-epochs", type=int, default=60)
    p.add_argument("--l2-epochs", type=int, default=50)
    p.add_argument("--l3-epochs", type=int, default=150)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--noise-dim", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", required=True, help="bundle file to write")
    p.add_argument("--config", help="JSON file supplying any of these flags")
    p.set_defaults(func=cmd_train)

    p = subparsers["generate"] = sub.add_parser("generate", help="synthesize load series to CSV")
    p.add_argument("--bundle", help="trained bundle (default: $LOADSYNTH_BUNDLE)")
    p.add_argument("--residential", type=int, default=0)
    p.add_argument("--industrial", type=int, default=0)
    p.add_argument("--resolution", required=True, help="e.g. 30/s, 1/10min, 1/h, 1/wk")
    p.add_argument("--length", required=True, help="duration, e.g. 90s, 1d, 13wk, 1yr")
    p.add_argument("--season", default="auto", choices=["auto", *_SEASONS])
    p.add_argument("--aggregation", default="mean", choices=sorted(_METRICS))
    p.add_argument("--base-mw", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="loadsynth.csv")
    p.add_argument("--estimate-only", action="store_true", help="print the size estimate and stop")
    p.add_argument("--config", help="JSON file supplying any of these flags")
    p.set_defaults(func=cmd_generate)

    p = subparsers["validate"] = sub.add_parser("validate", help="fidelity reports for a trained bundle")
    p.add_argument("--bundle", help="trained bundle (default: $LOADSYNTH_BUNDLE)")
    p.add_argument("--data", required=True, help="directory of level dataset CSVs")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=123)
    p.set_defaults(func=cmd_validate)

    p = subparsers["simulate"] = sub.add_parser("simulate", help="emit ground-truth simulator output")
    p.add_argument("--load-class", default="residential", choices=["residential", "industrial"])
    p.add_argument("--duration", required=True, help="e.g. 2h")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-mw", type=float, default=50.0)
    p.add_argument("--block-s", type=float, help="emit block means at this width instead of 30 Hz samples")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_simulate)

    p = subparsers["ingest"] = sub.add_parser("ingest", help="extract level datasets from measurements")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--phasors", nargs="+",
        help="phasor CSVs in time order (timestamp,line_id,v_mag,v_ang,i_mag,i_ang)",
    )
    src.add_argument("--series", help="load series CSV at 30 Hz (timestamp,load_1)")
    p.add_argument("--load-class", required=True, choices=["residential", "industrial"])
    p.add_argument("--start-week", type=int, default=0, help="calendar week of the first sample")
    p.add_argument("--max-l1", type=int, help="cap level-1 windows")
    p.add_argument("--max-l2", type=int, help="cap level-2 hours")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_ingest)

    return parser, subparsers


def _apply_config(argv, parser, subparsers) -> None:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ParseError("config file must hold a JSON object of flag values")
    normalized = {key.replace("-", "_"): value for key, value in config.items()}
    all_dests = {
        action.dest for sp in subparsers.values() for action in sp._actions
    }
    unknown = sorted(set(normalized) - all_dests)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    for sp in subparsers.values():
        actions = {action.dest: action for action in sp._actions}
        provided = {k: v for k, v in normalized.items() if k in actions}
        sp.set_defaults(**provided)
        for dest in provided:
            actions[dest].required = False


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        _apply_config(argv, parser, subparsers)
        args = parser.parse_args(argv)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ParseError, ResolutionTooFine, RequestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BundleError, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except LoadSynthError as exc:
        print(f"error: generation failed in {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
