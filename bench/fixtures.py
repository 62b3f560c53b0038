"""Deterministic fixture builder: the gen-* bundle and the ingest phasor CSV.

Both fixtures come from the repository's own code, with seeds derived from
the workload seed, so they are rebuilt from source for every commit
measured (a change may alter the bundle format).  The benchmark runs this
file in its own process and keeps its time out of every metric.

    python3 bench/fixtures.py --workload gen-30hz --size full --seed 1 --out DIR

writes the fixture into DIR and describes it in DIR/fixture.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

from workloads import BUNDLE_SIZE, GEN_SIZES, PHASOR_SIZES, WORKLOADS, SIZES, derive_seed, train_argv

LOAD_CLASS = "residential"
LINE_KV = 66.0


def build_bundle(seed: int, out_dir: Path) -> dict:
    """Train the smallest desk bundle; every network has its real shape."""
    from loadsynth import cli

    path = out_dir / "bundle.lsb"
    argv = train_argv(BUNDLE_SIZE, derive_seed(seed, "bundle", "toy"), derive_seed(seed, "bundle", "train"), path)
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"fixture bundle training exited {rc}:\n{log.getvalue()}")
    return {"bundle": str(path)}


def build_phasors(seed: int, hours: int, lines: int, out_dir: Path) -> dict:
    """A multi-line 30 Hz phasor CSV whose bus power is a simulated load.

    The net power comes from the ground-truth simulator; each line carries
    a fixed share of it at its own power factor, with small voltage
    magnitude noise and a slowly drifting voltage angle.
    """
    import numpy as np

    from loadsynth.toydata import ToyLoadConfig, simulate_ground_truth

    rng = np.random.default_rng(derive_seed(seed, "phasors", "lines"))
    config = ToyLoadConfig.residential(seed=derive_seed(seed, "phasors", "load"))
    start_hour = int(rng.integers(0, 52 * 168 - hours))
    power = simulate_ground_truth(config, hours * 3600.0, start_time_s=3600.0 * start_hour)
    n = power.size
    shares = rng.dirichlet(np.full(lines, 4.0))
    phi = rng.uniform(0.05, 0.35, lines)
    v_ang = np.cumsum(rng.normal(0.0, 1e-4, n))
    stamps = (np.arange(n) / 30.0).tolist()
    angles = v_ang.tolist()
    per_line = []
    for j in range(lines):
        v_mag = LINE_KV * (1.0 + 0.002 * rng.standard_normal(n))
        i_mag = power * shares[j] / (v_mag * math.cos(phi[j]))
        row = f"%.10g,line_{j + 1},%.10g,%.10g,%.10g,%.10g\n"
        columns = zip(stamps, v_mag.tolist(), angles, i_mag.tolist(), (v_ang - phi[j]).tolist())
        per_line.append([row % values for values in columns])

    path = out_dir / "phasors.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,line_id,v_mag,v_ang,i_mag,i_ang\n")
        # one record per timestamp: its line rows in line order
        fh.writelines(itertools.chain.from_iterable(zip(*per_line)))
    return {
        "phasors": str(path),
        "load_class": LOAD_CLASS,
        "records": n,
        "lines": lines,
        "rows": n * lines,
    }


def build(workload: str, size: str, seed: int, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload in GEN_SIZES:
        meta = build_bundle(seed, out_dir)
    elif workload == "ingest-pmu":
        p = PHASOR_SIZES[size]
        meta = build_phasors(seed, p["hours"], p["lines"], out_dir)
    else:
        meta = {}  # train-desk simulates its own data inside the op
    (out_dir / "fixture.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    build(args.workload, args.size, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
