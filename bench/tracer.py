"""Span recorder and the instrumentation of loadsynth's public functions.

The recorder wraps the functions each layer exposes, from outside the
package: every call opens a span (name, start, end, parent span, op id)
kept in memory, and a per-op table accumulates each layer's self time and
its work counters.  A span's self time is its duration minus the time its
direct child spans cover.

`Instrumentation.install()` rebinds every reference to a wrapped function
inside the loaded loadsynth modules (the CLI imports most of them by name),
and `uninstall()` puts the originals back, so untraced ops run the
unmodified code.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# metric groups whose `.s` self times are reported; counters are separate
TIMED_GROUPS = (
    "cli.write_series_csv",
    "compose.synthesize",
    "compose.add_hour_trend",
    "compose.apply_seam_filter",
    "compose.scale_to_parent",
    "core.loadprofile",
    "core.downsample",
    "neural.gan.generate",
    "neural.gan.train",
    "neural.layers.dense.fwd",
    "neural.layers.dense.bwd",
    "neural.layers.conv1d.fwd",
    "neural.layers.conv1d.bwd",
    "neural.layers.convt1d.fwd",
    "neural.layers.convt1d.bwd",
    "neural.layers.act.fwd",
    "neural.layers.act.bwd",
    "neural.optim.adam",
    "svdgen.generate",
    "svdgen.fit",
    "modelio.load",
    "modelio.save",
    "toydata.desk_level_datasets",
    "validate.wasserstein",
    "ingest.read_phasor_csv",
    "ingest.compute_bus_load",
    "ingest.extract_level_datasets",
    "ingest.write_level_datasets",
)

# groups whose number of calls is itself a reported counter
CALL_COUNTERS = {
    "compose.add_hour_trend": "compose.add_hour_trend.calls",
    "compose.scale_to_parent": "compose.scale_to_parent.calls",
    "core.loadprofile": "core.loadprofile.count",
    "core.downsample": "core.downsample.calls",
    "neural.optim.adam": "neural.optim.adam.steps",
    "validate.wasserstein": "validate.wasserstein.calls",
}

COUNTERS = (
    "cli.csv_rows",
    "cli.csv_bytes",
    "compose.add_hour_trend.calls",
    "compose.seams",
    "compose.scale_to_parent.calls",
    "core.loadprofile.count",
    "core.downsample.calls",
    "neural.gan.generate.l1_profiles",
    "neural.gan.generate.l2_profiles",
    "neural.gan.generate.l3_profiles",
    "neural.gan.disc_updates",
    "neural.gan.gen_updates",
    "neural.layers.flop",
    "neural.optim.adam.steps",
    "neural.optim.adam.params",
    "svdgen.profiles",
    "modelio.bundle_bytes",
    "validate.wasserstein.calls",
    "ingest.phasor_rows",
    "ingest.profiles",
    "trace.spans",
)

# layer groups whose time is dense/conv arithmetic, the base of GFLOP/s
MATMUL_GROUPS = tuple(
    f"neural.layers.{kind}.{d}" for kind in ("dense", "conv1d", "convt1d") for d in ("fwd", "bwd")
)

OP_SPAN = "op"


class SpanRecorder:
    """In-memory spans plus per-op self times and counters."""

    def __init__(self):
        self.spans = []  # (op_id, span_id, parent_id, name, start, end, self_s)
        self.hook_errors = 0
        self._stack = []  # open frames: [span_id, name, start, child_s]
        self._op_id = -1
        self.selftime = {}
        self.counts = {}
        self.layer_inputs = {}  # id(layer) -> input shape of its last forward

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self.selftime = dict.fromkeys(TIMED_GROUPS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.layer_inputs = {}

    def open(self, name: str) -> list:
        frame = [len(self.spans), name, time.perf_counter(), 0.0]
        # reserve the slot so span ids follow call order
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span closed out of order")
        span_id, name, start, child_s = frame
        duration = end - start
        self_s = duration - child_s
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.spans[span_id] = (self._op_id, span_id, parent_id, name, start, end, self_s)
        if name in self.selftime:
            self.selftime[name] += self_s
        counter = CALL_COUNTERS.get(name)
        if counter is not None:
            self.counts[counter] += 1
        self.counts["trace.spans"] += 1

    def count(self, key: str, n) -> None:
        self.counts[key] += n

    def write(self, path) -> None:
        """Write every span as CSV; start/end are seconds of perf_counter."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op_id,span_id,parent_id,name,start_s,end_s,self_s\n")
            for op_id, span_id, parent_id, name, start, end, self_s in self.spans:
                fh.write(f"{op_id},{span_id},{parent_id},{name},{start!r},{end!r},{self_s!r}\n")


# ----------------------------------------------------------------------
# counter hooks: called after a wrapped call returns, outside its span
# ----------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _csv_hook(rec, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    series = _arg(args, kwargs, 2, "series")
    rec.count("cli.csv_rows", int(series.shape[1]))
    rec.count("cli.csv_bytes", os.path.getsize(path))


def _seam_hook(rec, args, kwargs, result):
    rec.count("compose.seams", len(_arg(args, kwargs, 1, "seam_indices")))


def _gan_generate_hook(rec, args, kwargs, result):
    model, count = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "count")
    key = f"neural.gan.generate.{model.level.value}_profiles"
    if key in rec.counts:
        rec.count(key, int(count))


def _gan_train_hook(rec, args, kwargs, result):
    rec.count("neural.gan.disc_updates", result.log.disc_updates)
    rec.count("neural.gan.gen_updates", result.log.gen_updates)


def _adam_hook(rec, args, kwargs, result):
    rec.count("neural.optim.adam.params", sum(int(p.size) for p in _arg(args, kwargs, 1, "params")))


def _svd_generate_hook(rec, args, kwargs, result):
    rec.count("svdgen.profiles", int(_arg(args, kwargs, 1, "count")))


def _save_hook(rec, args, kwargs, result):
    rec.counts["modelio.bundle_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _phasor_hook(rec, args, kwargs, result):
    rec.count("ingest.phasor_rows", sum(len(r.lines) for r in result))


def _extract_hook(rec, args, kwargs, result):
    rec.count("ingest.profiles", sum(len(p) for p in (result.l1, result.l2, result.l3, result.l4)))


def _layer_flop(spec: tuple, shape: tuple) -> int:
    """Multiply-add count (x2) of one forward pass from the layer's spec."""
    kind = spec[0]
    if kind == "dense":
        return 2 * shape[0] * spec[1] * spec[2]
    if kind == "conv1d":
        _, c_in, c_out, k, stride = spec[:5]
        n_pos = (shape[2] - k) // stride + 1
        return 2 * shape[0] * c_out * c_in * k * n_pos
    if kind == "convt1d":
        _, c_in, c_out, k = spec[:4]
        return 2 * shape[0] * c_in * c_out * k * shape[2]
    return 0


def _forward_hook(rec, args, kwargs, result):
    layer, x = args[0], _arg(args, kwargs, 1, "x")
    rec.layer_inputs[id(layer)] = x.shape
    rec.count("neural.layers.flop", _layer_flop(layer.spec(), x.shape))


def _backward_hook(rec, args, kwargs, result):
    # backward computes the weight and the input gradient: twice the forward
    layer = args[0]
    shape = rec.layer_inputs.get(id(layer))
    if shape is not None:
        rec.count("neural.layers.flop", 2 * _layer_flop(layer.spec(), shape))


# (module, attribute path, group, hook); a dotted path names a class member
FUNCTION_TARGETS = (
    ("loadsynth.cli", "write_series_csv", "cli.write_series_csv", _csv_hook),
    ("loadsynth.compose", "synthesize", "compose.synthesize", None),
    ("loadsynth.compose", "add_hour_trend", "compose.add_hour_trend", None),
    ("loadsynth.compose", "apply_seam_filter", "compose.apply_seam_filter", _seam_hook),
    ("loadsynth.compose", "scale_to_parent", "compose.scale_to_parent", None),
    ("loadsynth.core", "LoadProfile.__init__", "core.loadprofile", None),
    ("loadsynth.core", "downsample", "core.downsample", None),
    ("loadsynth.neural.gan", "gan_generate", "neural.gan.generate", _gan_generate_hook),
    ("loadsynth.neural.gan", "train_gan", "neural.gan.train", _gan_train_hook),
    ("loadsynth.neural.gan", "train_cgan", "neural.gan.train", _gan_train_hook),
    ("loadsynth.neural.optim", "Adam.step", "neural.optim.adam", _adam_hook),
    ("loadsynth.svdgen", "svd_generate", "svdgen.generate", _svd_generate_hook),
    ("loadsynth.svdgen", "fit_svd_model", "svdgen.fit", None),
    ("loadsynth.modelio", "ModelBundle.load", "modelio.load", None),
    ("loadsynth.modelio", "ModelBundle.save", "modelio.save", _save_hook),
    ("loadsynth.toydata", "desk_level_datasets", "toydata.desk_level_datasets", None),
    ("loadsynth.validate", "wasserstein_1d", "validate.wasserstein", None),
    ("loadsynth.validate", "wasserstein_histogram", "validate.wasserstein", None),
    ("loadsynth.ingest", "read_phasor_csv", "ingest.read_phasor_csv", _phasor_hook),
    ("loadsynth.ingest", "compute_bus_load", "ingest.compute_bus_load", None),
    ("loadsynth.ingest", "extract_level_datasets", "ingest.extract_level_datasets", _extract_hook),
    ("loadsynth.ingest", "write_level_datasets", "ingest.write_level_datasets", None),
)

# layer classes by name; shape adapters stay untimed, every other layer
# is a pointwise activation
_LAYER_KINDS = {"Dense": "dense", "Conv1d": "conv1d", "ConvT1d": "convt1d"}
_SHAPE_ADAPTERS = {"Reshape", "Flatten"}


def _layer_targets():
    layers = sys.modules["loadsynth.neural.layers"]
    base = layers.Layer
    for name, cls in sorted(vars(layers).items()):
        if not (isinstance(cls, type) and issubclass(cls, base) and cls is not base):
            continue
        if name in _SHAPE_ADAPTERS:
            continue
        kind = _LAYER_KINDS.get(name, "act")
        yield cls, "forward", f"neural.layers.{kind}.fwd", _forward_hook
        yield cls, "backward", f"neural.layers.{kind}.bwd", _backward_hook


def _make_wrapper(fn, group, hook, rec, warn):
    def wrapper(*args, **kwargs):
        frame = rec.open(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(frame)
        if hook is not None:
            try:
                hook(rec, args, kwargs, result)
            except Exception as exc:  # a counter must not fail the op
                rec.hook_errors += 1
                warn(f"counter hook of {group} failed: {exc!r}")
        return result

    return functools.update_wrapper(wrapper, fn)


class Instrumentation:
    """The set of rebindings that routes public calls through the recorder."""

    def __init__(self, rec: SpanRecorder, warn=None):
        self.rec = rec
        self._warn = warn or (lambda msg: print(f"bench: {msg}", file=sys.stderr))
        self.missing = []
        self._bindings = []  # (namespace object, attribute, original, replacement)
        self._collect()

    def _collect(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("loadsynth") and m]
        for module_name, path, group, hook in FUNCTION_TARGETS:
            owner = sys.modules.get(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            if cls_path:
                self._bind_member(owner, attr, group, hook)
            else:
                original = vars(owner)[attr]
                wrapper = _make_wrapper(original, group, hook, self.rec, self._warn)
                # rebind every name that refers to the function
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, name, original, wrapper))
        for cls, attr, group, hook in _layer_targets():
            if attr in vars(cls):
                self._bind_member(cls, attr, group, hook)
        for target in self.missing:
            self._warn(f"trace target {target} not found; its metrics stay 0")

    def _bind_member(self, cls, attr, group, hook) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            inner = _make_wrapper(original.__func__, group, hook, self.rec, self._warn)
            wrapper = classmethod(inner)
        else:
            wrapper = _make_wrapper(original, group, hook, self.rec, self._warn)
        self._bindings.append((cls, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._bindings:
            setattr(owner, attr, original)
