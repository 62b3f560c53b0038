"""Command-line front end: train, generate, validate, simulate, ingest.

Exit codes: 0 success, 2 invalid arguments or a request that does not fit in
memory, 3 missing/incompatible bundle or missing/malformed input data,
4 generation failure, 5 training divergence.  Each is one error family of
`errors`, and only `main` maps a failure to its code.  Every input reader
maps its own OSError, so one that reaches `main` comes from writing output:
it exits 2 naming the file.

Every subcommand takes a JSON configuration file (--config) that may supply
any of its flags, keyed by the flag's long name (dashes or underscores);
explicit command-line flags win.  A value is checked as the flag's text would
be (a string as it is, any other value as its JSON text), a switch such as
--estimate-only takes a boolean, and --phasors takes a list of paths.
The LOADSYNTH_BUNDLE environment variable supplies the default --bundle.

The phasor, series and dataset CSV formats are `ingest`'s: this module
reads and writes those files only through it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compose import (
    GenerationRequest,
    ModelSet,
    learn_seam_filter,
    synthesize,
)
from .core import (
    LEVEL_SPECS,
    MAX_YEARS,
    PMU_RATE_HZ,
    SECONDS_PER_WEEK,
    SECONDS_PER_YEAR,
    Level,
    LoadClass,
    Metric,
    Season,
    parse_duration,
    parse_resolution,
)
from .errors import (
    BundleError,
    DivergenceDetected,
    InsufficientData,
    LoadSynthError,
    RequestError,
)
from .ingest import (
    estimate_file_size,
    extract_level_datasets,
    read_30hz_series,
    read_level_datasets,
    read_phasor_csv,
    write_level_datasets,
    write_series_csv,
)
from .modelio import ModelBundle
from .neural.gan import (
    HyperParams,
    check_trainable,
    gan_generate,
    train_gan,
)
from .svdgen import fit_svd_model, svd_generate
from .toydata import (
    ToyLoadConfig,
    default_desk_configs,
    desk_level_datasets,
    simulate_block_means,
    simulate_ground_truth,
    whole_blocks,
)
from .validate import (
    metrics_to_csv,
    psd,
    psd_to_csv,
    seam_stats,
    wasserstein_1d,
)


def _domain(parse, low, high, rule: str):
    """A flag's `type=`: `parse(text)` if in [low, high] (never NaN), else an error."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            kind = "a whole number" if parse is int else "a number"
            raise argparse.ArgumentTypeError(f"{text} must be {kind}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text} must be {rule}")
        return value
    return check


non_negative_int = _domain(int, 0, math.inf, "zero or more")
positive_int = _domain(int, 1, math.inf, "positive")
week_index = _domain(int, 0, LEVEL_SPECS[Level.L4].profile_length - 1, "a week from 0 to 51")
finite_positive_float = _domain(float, math.ulp(0.0), sys.float_info.max, "finite and above zero")


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


def _dataset_fingerprint(datasets) -> str:
    digest = hashlib.sha256()
    for level in Level:
        profiles = datasets.of(level)
        for row, load_class, season in zip(profiles.samples, profiles.load_class, profiles.season):
            digest.update(row.tobytes())
            digest.update(str(load_class).encode())
            digest.update(str(season).encode())
    return digest.hexdigest()


def _check_output_dir(path) -> None:
    """Refuse an output file path that is a directory or whose directory does
    not exist, before any work."""
    if Path(path).is_dir():
        raise RequestError(f"cannot write {path}: it is a directory")
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
    if args.toy_years > MAX_YEARS:
        raise RequestError(f"--toy-years {args.toy_years} is longer than the {MAX_YEARS} years of one series")
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
            raise InsufficientData(
                f"no training data for level {level.value[-1]}: {datasets.issues.get(level, 'empty dataset')}"
            )

    hyper = dict(batch_size=args.batch_size, noise_dim=args.noise_dim)
    seeds = {
        "l1": args.seed,
        "l2": args.seed + 1,
        "l3": args.seed + 2,
        "l4": args.seed + 3,
    }
    # the rng-free fits first, so too little data fails before any GAN trains
    print(f"fitting level 4 pattern models ({len(datasets.l4)} year profiles)", file=sys.stderr)
    l4_res, l4_ind = (
        fit_svd_model(datasets.l4.samples[[c is cls for c in datasets.l4.load_class]], cls)
        for cls in (LoadClass.MAINLY_RESIDENTIAL, LoadClass.MAINLY_INDUSTRIAL)
    )
    seam = learn_seam_filter(datasets.l3.samples)
    epochs = {Level.L1: args.l1_epochs, Level.L2: args.l2_epochs, Level.L3: args.l3_epochs}
    for level in epochs:  # the trainer's own data rules, before any training
        check_trainable(datasets.of(level), args.batch_size)
    gans = {}
    for level, n_epochs in epochs.items():
        profiles = datasets.of(level)
        print(
            f"training level {level.value[-1]} ({len(profiles)} profiles, {n_epochs} epochs)",
            file=sys.stderr,
        )
        gans[level.value] = train_gan(profiles, HyperParams(epochs=n_epochs, **hyper), seeds[level.value])

    models = ModelSet(**gans, l4_residential=l4_res, l4_industrial=l4_ind, seam=seam)
    provenance = {
        "package_version": __version__,
        "seeds": seeds,
        "dataset_fingerprint": _dataset_fingerprint(datasets),
        "dataset_sizes": {lvl.value: len(datasets.of(lvl)) for lvl in Level},
    }
    bundle = ModelBundle(models=models, provenance=provenance)
    log_path = str(args.output) + ".train_log.json"
    bundle.save(args.output)
    with open(log_path, "w", encoding="utf-8") as fh:
        logs = {name: gan.log.to_jsonable() for name, gan in gans.items()}
        json.dump({**logs, "provenance": provenance}, fh, sort_keys=True, indent=1)
    print(f"bundle written to {args.output} (log: {log_path})", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------


def _build_request(args) -> GenerationRequest:
    resolution = parse_resolution(args.resolution)
    duration = parse_duration(args.length)
    if args.season == "auto":
        season = None
    else:
        season = Season(args.season)
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
        aggregation=Metric(args.aggregation),
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
    estimate = estimate_file_size(request.rows, request.n_loads, request.resolution)
    print(f"estimated file size: {estimate} bytes", file=sys.stderr)
    if args.estimate_only:
        print(estimate)
        return 0
    _check_output_dir(args.output)
    bundle = ModelBundle.load(_bundle_path(args))
    times, series = synthesize(request, bundle.models)
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
        real = datasets.of(level).samples[:500]
        gen = gan_generate(model, len(real), seed=args.seed)
        w = wasserstein_1d(real, gen)
        rows.append((f"wasserstein_exact_{level.value}", "real_vs_generated", w))
        lines.append(f"level {level.value[-1]} amplitude distance (exact): {w:.6f}")
        period = LEVEL_SPECS[level].sampling_period_s
        freqs, real_psd = psd(real, period)
        _, gen_psd = psd(gen, period)
        psd_to_csv(out_dir / f"psd_{level.value}_real.csv", freqs, real_psd)
        psd_to_csv(out_dir / f"psd_{level.value}_generated.csv", freqs, gen_psd)

    l3_real = datasets.l3.samples[:500]
    if len(l3_real):
        labels = list(zip(datasets.l3.load_class, datasets.l3.season))[:500]
        gen = gan_generate(models.l3, len(l3_real), seed=args.seed, labels=labels)
        w = wasserstein_1d(l3_real, gen)
        rows.append(("wasserstein_exact_l3", "real_vs_generated", w))
        lines.append(f"level 3 amplitude distance (exact): {w:.6f}")

    l4_real = datasets.l4
    if l4_real:
        for cls, model in (
            (LoadClass.MAINLY_RESIDENTIAL, models.l4_residential),
            (LoadClass.MAINLY_INDUSTRIAL, models.l4_industrial),
        ):
            real_cls = l4_real.samples[[c is cls for c in l4_real.load_class]]
            if not len(real_cls):
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
        duration_s=6 * LEVEL_SPECS[Level.L2].span_s,
        seed=args.seed,
    )
    series = synthesize(request, models)[1].array()
    # driven at level 2 with no offset: generated hours join after every 120th sample
    hour = LEVEL_SPECS[Level.L2].profile_length
    junctions = range(hour - 1, series.shape[1] - 1, hour)
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
    if duration > MAX_YEARS * SECONDS_PER_YEAR:
        raise RequestError(f"--duration {args.duration} is longer than the {MAX_YEARS} years of one series")
    _check_output_dir(args.output)
    try:  # the simulator validates its arguments with ValueError
        config = factory(seed=args.seed, base_mw=args.base_mw)
        if args.block_s is not None:
            n_blocks = whole_blocks(duration, args.block_s)
            if n_blocks == 0:
                raise ValueError(f"--block-s {args.block_s:g} is longer than --duration {args.duration}")
            values = simulate_block_means(config, args.block_s, n_blocks)
            times = args.block_s * np.arange(n_blocks)
        else:
            values = simulate_ground_truth(config, duration)
            times = np.arange(values.size) / PMU_RATE_HZ
    except ValueError as exc:
        raise RequestError(f"simulate: {exc}") from exc
    write_series_csv(args.output, times, values[None, :])
    print(f"wrote {values.size} samples to {args.output}", file=sys.stderr)
    return 0


def cmd_ingest(args) -> int:
    _check_output_tree(args.output_dir)
    series = read_phasor_csv(args.phasors) if args.phasors else read_30hz_series(args.series)
    datasets = extract_level_datasets(
        series,
        start_time_s=args.start_week * SECONDS_PER_WEEK,
        load_class=LoadClass(args.load_class),
        max_l1_profiles=args.max_l1,
        max_l2_profiles=args.max_l2,
    )
    write_level_datasets(datasets, args.output_dir)
    counts = {lvl.value: len(datasets.of(lvl)) for lvl in Level}
    print(f"profiles extracted: {counts}", file=sys.stderr)
    for level, message in sorted(datasets.issues.items(), key=lambda kv: kv[0].value):
        print(f"note: {message}", file=sys.stderr)
    for level, count in sorted(datasets.skipped.items(), key=lambda kv: kv[0].value):
        print(
            f"note: level {level.value[-1]} skipped {count} windows holding negative load "
            "(net export) or a non-finite value",
            file=sys.stderr,
        )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="loadsynth",
        description="multi-level synthetic bus-load generation",
        exit_on_error=False,
    )
    parser.add_argument("--version", action="version", version=f"loadsynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["train"] = sub.add_parser("train", help="train all six model artifacts")
    p.add_argument("--data", help="directory of level dataset CSVs (from ingest)")
    p.add_argument("--toy-seed", type=non_negative_int, default=2024, help="simulate training data with this master seed")
    p.add_argument("--toy-loads", type=positive_int, default=12)
    p.add_argument("--toy-years", type=positive_int, default=2)
    p.add_argument("--l1-windows", type=positive_int, default=200, help="simulated 30 s windows per load")
    p.add_argument("--l2-profiles", type=positive_int, default=250, help="detrended hours per load")
    p.add_argument("--save-data", help="also write the simulated datasets to this directory")
    p.add_argument("--l1-epochs", type=positive_int, default=60)
    p.add_argument("--l2-epochs", type=positive_int, default=50)
    p.add_argument("--l3-epochs", type=positive_int, default=150)
    p.add_argument("--batch-size", type=positive_int, default=32)
    p.add_argument("--noise-dim", type=positive_int, default=100)
    p.add_argument("--seed", type=non_negative_int, default=7)
    p.add_argument("--output", required=True, help="bundle file to write")
    p.set_defaults(func=cmd_train)

    p = subparsers["generate"] = sub.add_parser("generate", help="synthesize load series to CSV")
    p.add_argument("--bundle", help="trained bundle (default: $LOADSYNTH_BUNDLE)")
    p.add_argument("--residential", type=non_negative_int, default=0)
    p.add_argument("--industrial", type=non_negative_int, default=0)
    p.add_argument("--resolution", required=True, help="e.g. 30/s, 1/10min, 1/h, 1/wk")
    p.add_argument("--length", required=True, help="duration, e.g. 90s, 1d, 13wk, 1yr")
    p.add_argument("--season", default="auto", choices=["auto", *(s.value for s in Season)])
    p.add_argument("--aggregation", default="mean", choices=sorted(m.value for m in Metric))
    p.add_argument("--base-mw", type=finite_positive_float, default=1.0)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--output", default="loadsynth.csv")
    p.add_argument("--estimate-only", action="store_true", help="print the size estimate and stop")
    p.set_defaults(func=cmd_generate)

    p = subparsers["validate"] = sub.add_parser("validate", help="fidelity reports for a trained bundle")
    p.add_argument("--bundle", help="trained bundle (default: $LOADSYNTH_BUNDLE)")
    p.add_argument("--data", required=True, help="directory of level dataset CSVs")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=non_negative_int, default=123)
    p.set_defaults(func=cmd_validate)

    p = subparsers["simulate"] = sub.add_parser("simulate", help="emit ground-truth simulator output")
    p.add_argument("--load-class", default="residential", choices=["residential", "industrial"])
    p.add_argument("--duration", required=True, help="e.g. 2h")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--base-mw", type=finite_positive_float, default=50.0)
    p.add_argument("--block-s", type=finite_positive_float, help="emit block means at this width instead of 30 Hz samples")
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
    p.add_argument("--start-week", type=week_index, default=0, help="calendar week of the first sample")
    p.add_argument("--max-l1", type=non_negative_int, help="cap level-1 windows")
    p.add_argument("--max-l2", type=non_negative_int, help="cap level-2 hours")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_ingest)

    for p in subparsers.values():  # argument errors reach main, which names the flag
        p.add_argument("--config", help="JSON file supplying any of these flags")
        p.exit_on_error = False
    return parser, subparsers


def _config_value(sp, action, value):
    """A config value, or its JSON text, through its flag's `type=` and `choices=`;
    a flag that takes several values takes a JSON list of them."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise argparse.ArgumentError(action, f"{json.dumps(value)} must be true or false")
        return value
    several = action.nargs == "+" and isinstance(value, list)
    if several and not value:
        raise argparse.ArgumentError(action, "[] must name at least one value")
    texts = [v if isinstance(v, str) else json.dumps(v) for v in (value if several else [value])]
    return sp._get_values(action, texts)


def _apply_config(argv, subparsers) -> list:
    """Make the flags in the --config file of the chosen subcommand its defaults.

    Returns (config action, the other actions of its mutually exclusive group)
    pairs: a command-line flag of the group overrides that config value.
    """
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    if command not in subparsers:
        return []  # the parser reports it
    sp = subparsers[command]
    pre = argparse.ArgumentParser(add_help=False)
    flag = pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv[argv.index(command) + 1 :])
    if not known.config:
        return []
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 text, or not JSON
        raise argparse.ArgumentError(flag, f"{known.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise argparse.ArgumentError(flag, f"{known.config} must hold a JSON object of flag values")
    actions = {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}
    unknown = [key for key in config if key.replace("-", "_") not in actions]
    if unknown:
        raise argparse.ArgumentError(
            flag, f"{known.config}: {command} takes no flag for {', '.join(map(repr, unknown))}"
        )
    for key, value in config.items():  # no path holds a NUL: open() would raise ValueError
        if any(isinstance(v, str) and "\0" in v for v in (value if isinstance(value, list) else [value])):
            raise argparse.ArgumentError(flag, f"{known.config}: the value of {key!r} holds a NUL character")
    normalized = {key.replace("-", "_"): value for key, value in config.items()}
    for dest, value in normalized.items():
        actions[dest].default = _config_value(sp, actions[dest], value)
        actions[dest].required = False
    overridable = []
    for group in sp._mutually_exclusive_groups:
        given = [a for a in group._group_actions if a.dest in normalized]
        if len(given) > 1:
            raise argparse.ArgumentError(
                flag, f"{known.config}: the keys {', '.join(a.dest for a in given)} exclude each other"
            )
        if given:
            group.required = False
            overridable.append((given[0], [a for a in group._group_actions if a is not given[0]]))
    return overridable


# the exit code of each error family (see the module docstring); any other
# LoadSynthError is a generation failure, 4
_EXIT_CODES = {RequestError: 2, BundleError: 3, InsufficientData: 3, DivergenceDetected: 5}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        overridable = _apply_config(argv, subparsers)
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:  # one line naming the flag, before any work
        print("error:", *filter(None, (exc.argument_name, exc.message)), file=sys.stderr)
        return 2
    for action, others in overridable:
        if any(getattr(args, other.dest) != other.default for other in others):
            setattr(args, action.dest, None)
    try:
        return args.func(args)
    except MemoryError:  # numpy's, for an array larger than memory
        print(f"error: {args.command}: the request does not fit in memory", file=sys.stderr)
        return 2
    except LoadSynthError as exc:  # the exit code of its family, one line
        code = _EXIT_CODES.get(type(exc), 4)
        message = str(exc) if code != 4 else f"generation failed in {type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        return code
    except OSError as exc:  # every input reader maps its own, so this is from writing output
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
