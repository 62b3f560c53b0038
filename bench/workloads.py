"""The four benchmark workloads: their CLI calls, sizes, work units and checks.

Each workload is one `loadsynth.cli.main([...])` call repeated in a closed
loop.  Sizes come in two scales: `full` is what the benchmark measures,
`smoke` is the smallest input that still runs the workload's code path.

Checks come in two parts.  `quick_check` runs in the workload process after
every op and stays light (exit code, printed size estimate, output digest,
log finiteness).  `content_check` runs later in the parent process on the
first op's kept output; every other op must reproduce that output byte for
byte, so checking it once covers them all.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import re
from datetime import datetime, timedelta
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("gen-30hz", "gen-10min-year", "train-desk", "ingest-pmu")
SIZES = ("full", "smoke")

EPOCH_START = datetime(2021, 1, 1)
WEEK_S = 604_800
ESTIMATE_TOLERANCE = 0.15  # documented bound of the printed size estimate

# train-desk: six one-year loads is the smallest desk fleet that gives
# every (class, season) label the 32 weeks one level-3 batch needs
_DESK = {"toy_loads": 6, "toy_years": 1, "batch_size": 32, "noise_dim": 100}
TRAIN_SIZES = {
    "full": {**_DESK, "l1_windows": 32, "l2_profiles": 32, "epochs": 2},
    "smoke": {**_DESK, "l1_windows": 16, "l2_profiles": 16, "epochs": 1},
}
# the gen-* fixture bundle: real network shapes (noise dim 100) trained as
# briefly as the data checks allow; batch size does not change any shape
BUNDLE_SIZE = {
    "toy_loads": 2, "toy_years": 2, "batch_size": 8, "noise_dim": 100,
    "l1_windows": 16, "l2_profiles": 16, "epochs": 1,
}

# generate requests: CLI strings plus the exact period and span they mean
GEN_SIZES = {
    "gen-30hz": {
        "full": {"residential": 1, "industrial": 0, "resolution": "30/s", "period_s": Fraction(1, 30),
                 "length": "2h", "length_s": 2 * 3600},
        "smoke": {"residential": 1, "industrial": 0, "resolution": "30/s", "period_s": Fraction(1, 30),
                  "length": "10min", "length_s": 600},
    },
    "gen-10min-year": {
        "full": {"residential": 1, "industrial": 1, "resolution": "1/10min", "period_s": Fraction(600),
                 "length": "1yr", "length_s": 52 * WEEK_S},
        "smoke": {"residential": 1, "industrial": 1, "resolution": "1/10min", "period_s": Fraction(600),
                  "length": "4wk", "length_s": 4 * WEEK_S},
    },
}

# phasor input of ingest-pmu: 5 h is the shortest span that yields a
# level-2 profile (each detrended hour needs +-2 h of context)
PHASOR_SIZES = {
    "full": {"hours": 5, "lines": 2},
    "smoke": {"hours": 5, "lines": 2},
}


def derive_seed(seed: int, *tags) -> int:
    """A 31-bit seed for one purpose, derived from the workload seed."""
    text = ":".join([str(seed), *map(str, tags)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(directory) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode() + b"\0")
            digest.update(file_digest(path).encode())
    return digest.hexdigest()


def train_argv(size: dict, toy_seed: int, seed: int, output) -> list[str]:
    epochs = str(size["epochs"])
    return [
        "train",
        "--toy-seed", str(toy_seed),
        "--toy-loads", str(size["toy_loads"]),
        "--toy-years", str(size["toy_years"]),
        "--l1-windows", str(size["l1_windows"]),
        "--l2-profiles", str(size["l2_profiles"]),
        "--l1-epochs", epochs,
        "--l2-epochs", epochs,
        "--l3-epochs", epochs,
        "--batch-size", str(size["batch_size"]),
        "--noise-dim", str(size["noise_dim"]),
        "--seed", str(seed),
        "--output", str(output),
    ]


def expected_ingest_counts(n_samples: int) -> dict:
    """Profiles per level that a contiguous 30 Hz series of this length yields."""
    n_halfmin = n_samples // 900
    n_hours = n_halfmin // 120
    n_weeks = n_hours // 168
    return {"l1": n_samples // 900, "l2": max(n_hours - 4, 0), "l3": n_weeks, "l4": n_weeks // 52}


class Workload:
    """One workload at one size; `out` is where an op writes its output."""

    def __init__(self, name: str, size: str, seed: int, fixture: dict, out: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.size, self.seed, self.fixture, self.out = name, size, seed, fixture, Path(out)

    # -- what an op runs --------------------------------------------------

    def argv(self) -> list[str]:
        if self.name in GEN_SIZES:
            g = GEN_SIZES[self.name][self.size]
            return [
                "generate",
                "--bundle", self.fixture["bundle"],
                "--residential", str(g["residential"]),
                "--industrial", str(g["industrial"]),
                "--resolution", g["resolution"],
                "--length", g["length"],
                "--season", "auto",
                "--seed", str(derive_seed(self.seed, self.name, "generate")),
                "--output", str(self.out),
            ]
        if self.name == "train-desk":
            return train_argv(
                TRAIN_SIZES[self.size],
                derive_seed(self.seed, self.name, "toy"),
                derive_seed(self.seed, self.name, "train"),
                self.out,
            )
        return [
            "ingest",
            "--phasors", self.fixture["phasors"],
            "--load-class", self.fixture["load_class"],
            "--output-dir", str(self.out),
        ]

    def _gen_shape(self) -> tuple[int, int]:
        g = GEN_SIZES[self.name][self.size]
        rows = math.floor(Fraction(g["length_s"]) / g["period_s"])
        return rows, g["residential"] + g["industrial"]

    # -- checks after every op (workload process) -------------------------

    def quick_check(self, stderr_text: str) -> tuple[str, float]:
        """(output digest, work units) of a finished op; raises CheckFailed."""
        if self.name in GEN_SIZES:
            actual = self.out.stat().st_size
            m = re.search(r"estimated file size: (\d+) bytes", stderr_text)
            if m is None:
                raise CheckFailed("no size estimate printed")
            miss = (int(m.group(1)) - actual) / actual
            if abs(miss) > ESTIMATE_TOLERANCE:
                raise CheckFailed(f"size estimate off by {miss:+.1%} (documented bound +-15%)")
            rows, loads = self._gen_shape()
            return file_digest(self.out), float(rows * loads)
        if self.name == "train-desk":
            log = json.loads(Path(f"{self.out}.train_log.json").read_text(encoding="utf-8"))
            size = TRAIN_SIZES[self.size]
            work = 0
            for level in ("l1", "l2", "l3"):
                epochs = log[level]["epochs"]
                if len(epochs) != size["epochs"]:
                    raise CheckFailed(f"{level} logged {len(epochs)} epochs, asked {size['epochs']}")
                for entry in epochs:
                    losses = (entry["disc_loss"], entry["gen_loss"])
                    if not all(math.isfinite(v) for v in losses):
                        raise CheckFailed(f"{level} logged a non-finite loss {losses}")
                work += log["provenance"]["dataset_sizes"][level] * size["epochs"]
            return file_digest(self.out), float(work)
        m = re.search(r"profiles extracted: (\{.*\})", stderr_text)
        if m is None:
            raise CheckFailed("no profile counts printed")
        counts = ast.literal_eval(m.group(1))
        want = expected_ingest_counts(self.fixture["records"])
        if counts != want:
            raise CheckFailed(f"profile counts {counts} do not match the input length: want {want}")
        return tree_digest(self.out), float(self.fixture["rows"])

    # -- full check of one kept output (parent process) -------------------

    def content_check(self, path: Path) -> None:
        """Raise CheckFailed unless the output at `path` is correct."""
        if self.name in GEN_SIZES:
            self._check_csv(path)
        elif self.name == "train-desk":
            self._check_bundle(path)
        else:
            self._check_datasets(path)

    def _check_csv(self, path: Path) -> None:
        rows, loads = self._gen_shape()
        period = GEN_SIZES[self.name][self.size]["period_s"]
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            want = "timestamp" + "".join(f",load_{i + 1}" for i in range(loads))
            if header != want:
                raise CheckFailed(f"header {header!r}, want {want!r}")
            n = 0
            for n, line in enumerate(fh, start=1):
                cells = line.rstrip("\n").split(",")
                if len(cells) != loads + 1:
                    raise CheckFailed(f"row {n} has {len(cells)} cells")
                offset = (datetime.fromisoformat(cells[0]) - EPOCH_START) / timedelta(seconds=1)
                if abs(offset - float((n - 1) * period)) > 1e-6:
                    raise CheckFailed(f"row {n} timestamp {cells[0]} is off the sampling grid")
                for cell in cells[1:]:
                    value = float(cell)
                    if not (math.isfinite(value) and value > 0):
                        raise CheckFailed(f"row {n} holds value {cell}")
        if n != rows:
            raise CheckFailed(f"{n} rows, want {rows}")

    def _check_bundle(self, path: Path) -> None:
        from loadsynth.modelio import ModelBundle

        models = ModelBundle.load(path).models
        kinds = {
            "l1": "GanModel", "l2": "GanModel", "l3": "CGanModel",
            "l4_residential": "SvdModel", "l4_industrial": "SvdModel", "seam": "SeamFilter",
        }
        for artifact, kind in kinds.items():
            got = type(getattr(models, artifact, None)).__name__
            if got != kind:
                raise CheckFailed(f"bundle artifact {artifact} loads as {got}, want {kind}")

    def _check_datasets(self, directory: Path) -> None:
        want = expected_ingest_counts(self.fixture["records"])
        for level, count in want.items():
            ids = set()
            with open(directory / f"level{level[-1]}.csv", encoding="utf-8") as fh:
                fh.readline()
                for line in fh:
                    ids.add(line.split(",", 1)[0])
            if len(ids) != count:
                raise CheckFailed(f"{level}.csv holds {len(ids)} profiles, want {count}")


class CheckFailed(Exception):
    """An op's output broke the workload's correctness check."""
