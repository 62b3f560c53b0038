"""Binary container and bundle round trips."""

import copy
import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsynth import modelio
from loadsynth.cli import main
from loadsynth.compose import ModelSet, SeamFilter
from loadsynth.errors import BundleError, DegenerateProfile
from loadsynth.ingest import write_level_datasets
from loadsynth.modelio import (
    ModelBundle,
    dump_gan,
    dump_models,
    dump_seam,
    dump_svd,
    load_artifact,
)
from loadsynth.neural.gan import CGanModel, GanModel, gan_generate
from loadsynth.core import LoadClass, Season


class TestArtifactRoundTrips:
    def test_gan(self, tiny_models):
        model = tiny_models.l2
        back = load_artifact(b"".join(dump_gan(model)))
        assert back.level == model.level
        assert back.noise_dim == model.noise_dim
        assert back.amplitude_scale == model.amplitude_scale
        np.testing.assert_array_equal(back.generator.params, model.generator.params)
        assert back.log.to_jsonable() == model.log.to_jsonable()
        a = gan_generate(model, 3, seed=5)
        b = gan_generate(back, 3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_cgan_keeps_vocabulary(self, tiny_models):
        back = load_artifact(b"".join(dump_gan(tiny_models.l3)))
        assert isinstance(back, CGanModel)
        assert back.conditional
        labels = [(LoadClass.MAINLY_INDUSTRIAL, Season.FALL)] * 2
        a = gan_generate(tiny_models.l3, 2, seed=9, labels=labels)
        b = gan_generate(back, 2, seed=9, labels=labels)
        np.testing.assert_array_equal(a, b)

    def test_svd(self, tiny_models):
        model = tiny_models.l4_residential
        back = load_artifact(b"".join(dump_svd(model)))
        assert back.load_class is model.load_class
        for name in ("u", "s", "vt", "coeff_mu", "coeff_sigma"):
            np.testing.assert_array_equal(getattr(back, name), getattr(model, name))

    def test_seam(self, tiny_models):
        back = load_artifact(b"".join(dump_seam(tiny_models.seam)))
        np.testing.assert_array_equal(back.beta, tiny_models.seam.beta)

    def test_bad_magic(self):
        with pytest.raises(BundleError):
            load_artifact(b"XXXX" + b"\x00" * 32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["gan", "svd", "seam"])
    def test_non_finite_weight_rejected(self, tiny_models, kind, bad):
        if kind == "gan":
            model = copy.deepcopy(tiny_models.l2)
            model.generator.params[3] = bad  # first weight tensor
            data = dump_gan(model)
        elif kind == "svd":
            model = copy.deepcopy(tiny_models.l4_industrial)
            model.s[0] = bad
            data = dump_svd(model)
        else:
            # a SeamFilter refuses non-finite weights, so pass a stand-in
            data = dump_seam(SimpleNamespace(beta=np.array([0.1, bad, 0.5, 0.3, 0.4])))
        with pytest.raises(BundleError, match=f"{kind} weight blob holds non-finite"):
            load_artifact(b"".join(data))


class TestBundle:
    def test_round_trip(self, tiny_models, tmp_path):
        path = tmp_path / "models.lsb"
        bundle = ModelBundle(models=tiny_models, provenance={"seeds": {"l1": 1}})
        bundle.save(path)
        back = ModelBundle.load(path)
        assert back.provenance == {"seeds": {"l1": 1}}
        np.testing.assert_array_equal(
            back.models.l1.generator.params, tiny_models.l1.generator.params
        )
        np.testing.assert_array_equal(back.models.seam.beta, tiny_models.seam.beta)
        np.testing.assert_array_equal(
            back.models.l4_industrial.vt, tiny_models.l4_industrial.vt
        )

    def test_save_is_byte_deterministic(self, tiny_models, tmp_path):
        bundle = ModelBundle(models=tiny_models, provenance={"x": 1})
        p1, p2 = tmp_path / "a.lsb", tmp_path / "b.lsb"
        bundle.save(p1)
        bundle.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_finite_after_load_is_degenerate(self, tiny_models, tmp_path):
        # loading rejects non-finite weights; gan_generate still catches
        # weights that turn non-finite later
        path = tmp_path / "models.lsb"
        ModelBundle(models=tiny_models).save(path)
        l3 = ModelBundle.load(path).models.l3
        l3.generator.params[-1] = np.nan  # output-layer bias
        with pytest.raises(DegenerateProfile):
            gan_generate(l3, 2, seed=1, labels=[(LoadClass.MAINLY_RESIDENTIAL, Season.WINTER)] * 2)

    def test_nan_hidden_bias_is_degenerate(self, tiny_models, tmp_path):
        # a NaN before a ReLU reaches the output's finite check; it is not
        # clipped to 0 on the way
        path = tmp_path / "models.lsb"
        ModelBundle(models=tiny_models).save(path)
        l1 = ModelBundle.load(path).models.l1
        first_dense = l1.generator.layers[0]
        assert first_dense.spec()[0] == "dense" and l1.generator.layers[1].spec() == ("relu",)
        first_dense.b[0] = np.nan
        with pytest.raises(DegenerateProfile):
            gan_generate(l1, 2, seed=1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BundleError, match="no model bundle"):
            ModelBundle.load(tmp_path / "nope.lsb")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lsb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BundleError, match="magic"):
            ModelBundle.load(path)

    def test_version_mismatch(self, tiny_models, tmp_path):
        path = tmp_path / "models.lsb"
        ModelBundle(models=tiny_models).save(path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(BundleError, match="version"):
            ModelBundle.load(path)

    def test_missing_artifact(self, tiny_models, tmp_path):
        path = tmp_path / "models.lsb"
        ModelBundle(models=tiny_models).save(path)
        data = path.read_bytes()
        # cut the final artifact (the seam filter) off at its name entry
        idx = data.index(b"\x04\x00seam")
        path.write_bytes(_reseal(data[:idx]))
        with pytest.raises(BundleError, match="missing artifacts: seam$"):
            ModelBundle.load(path)


def _replace_once(old: bytes, new: bytes):
    """A same-length edit of the first occurrence, inside the l1 artifact."""
    assert len(old) == len(new)

    def edit(data: bytes) -> bytes:
        assert old in data
        return data.replace(old, new, 1)

    return edit


def _drop_l1_weight(data: bytes) -> bytes:
    # the first artifact (l1) one weight short: its count and its container
    # length both shrink, so it decodes but fits no generator
    start = data.index(b"LSM1")
    (length,) = struct.unpack_from("<Q", data, start - 8)
    (tag_len,) = struct.unpack_from("<H", data, start + 4)
    (meta_len,) = struct.unpack_from("<I", data, start + 6 + tag_len)
    count_at = start + 10 + tag_len + meta_len
    (count,) = struct.unpack_from("<Q", data, count_at)
    return b"".join([
        data[: start - 8], struct.pack("<Q", length - 8), data[start:count_at],
        struct.pack("<Q", count - 1), data[count_at + 8 : start + length - 8], data[start + length :],
    ])


def _cut_seam_counts(data: bytes) -> bytes:
    # end the last artifact (the seam filter) right after its metadata, so
    # reading its weight count runs off the artifact
    start = data.rindex(b"LSM1")
    head = data[start : start + 16]  # magic, tag, metadata "{}"
    return data[: start - 8] + struct.pack("<Q", len(head)) + head


def _reseal(data: bytes) -> bytes:
    """``data`` with its digest recomputed, so a load reaches the decode checks."""
    return data[:8] + hashlib.sha256(data[40:]).digest() + data[40:]


MANIFEST_AT = 44  # after the magic, version, digest and manifest length
BYTE_EDITS = {
    "manifest_not_utf8": (lambda d: d[:MANIFEST_AT] + b"\xff" + d[MANIFEST_AT + 1 :], "manifest"),
    "manifest_not_json": (lambda d: d[:MANIFEST_AT] + b"x" + d[MANIFEST_AT + 1 :], "manifest"),
    "metadata_not_utf8": (_replace_once(b'"level":"l1"', b'\xfflevel":"l1"'), "artifact 'l1'"),
    "metadata_not_json": (_replace_once(b'"level":"l1"', b'"level";"l1"'), "artifact 'l1'"),
    "no_amplitude_scale": (
        _replace_once(b'"amplitude_scale"', b'"amplitude_scalX"'), "artifact 'l1'"
    ),
    "struct_error": (_cut_seam_counts, "artifact 'seam'"),
    "unknown_layer_kind": (_replace_once(b'["dense",', b'["dunse",'), "artifact 'l1'"),
    "unknown_init_scheme": (
        _replace_once(b'"normal(0,0.02)"', b'"normal(0,0.03)"'), "artifact 'l1'"
    ),
    "l1_blob_one_short": (_drop_l1_weight, "artifact 'l1'"),
    # the output layer's crop made null; its centre 1.0 written "1" and a
    # space keep the metadata's length
    "l1_null_crop": (
        _replace_once(b'2,900],["scaled_tanh",1.0,', b'2,null], ["scaled_tanh",1,'), "artifact 'l1'"
    ),
}


@pytest.mark.parametrize("case", BYTE_EDITS)
def test_undecodable_bundle_exits_3(case, tiny_models, tmp_path, capsys):
    edit, where = BYTE_EDITS[case]
    path = tmp_path / "models.lsb"
    ModelBundle(models=tiny_models, provenance={"source": "tiny"}).save(path)
    path.write_bytes(_reseal(edit(path.read_bytes())))
    with pytest.raises(BundleError, match=where):
        ModelBundle.load(path)
    assert_generate_exits_3(path, where, tmp_path, capsys)


def assert_generate_exits_3(path, where, tmp_path, capsys):
    """``generate`` from ``path`` exits 3 naming ``where`` and the path, writing nothing."""
    out = tmp_path / "x.csv"
    code = main(
        [
            "generate", "--bundle", str(path), "--residential", "1",
            "--resolution", "1/h", "--length", "1d", "--output", str(out),
        ]
    )
    assert code == 3
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error: ") and where in last and str(path) in last
    assert not out.exists()


def _flip_bit(at):
    """Flip the low bit of the byte at offset ``at(data)``."""
    def edit(data: bytes) -> bytes:
        i = at(data)
        return data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]

    return edit


# each case: an edit of a saved bundle that the digest, or the version
# before it, refuses
CORRUPTIONS = {
    "manifest_bit": (_flip_bit(lambda d: MANIFEST_AT + 2), "corrupt or truncated"),
    # a byte of the l1 generator's weights, just before the l2 artifact's entry
    "weight_bit": (_flip_bit(lambda d: d.index(b"\x02\x00l2") - 20), "corrupt or truncated"),
    "last_byte_bit": (_flip_bit(lambda d: len(d) - 1), "corrupt or truncated"),
    "truncated": (lambda d: d[: len(d) // 2], "corrupt or truncated"),
    "header_only": (lambda d: d[:6], "header does not decode"),
    # format 1 had no digest; it is refused by its version
    "format_1": (lambda d: d[:4] + struct.pack("<I", 1) + d[40:], "version 1 is unsupported"),
    # format 2 had the same header and digest, and unpadded blobs
    "format_2": (
        lambda d: d[:4] + struct.pack("<I", 2) + hashlib.sha256(d[40:]).digest() + d[40:],
        "version 2 is unsupported (expected 3); retrain the models",
    ),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupt_bundle_exits_3(case, tiny_models, tmp_path, capsys):
    edit, where = CORRUPTIONS[case]
    path = tmp_path / "models.lsb"
    ModelBundle(models=tiny_models, provenance={"source": "tiny"}).save(path)
    path.write_bytes(edit(path.read_bytes()))
    assert_generate_exits_3(path, where, tmp_path, capsys)


@pytest.fixture(scope="module")
def saved_bundle(tiny_models, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "models.lsb"
    ModelBundle(models=tiny_models, provenance={"source": "tiny"}).save(path)
    return path


@settings(max_examples=40, deadline=None)
@given(at=st.floats(0.0, 1.0, exclude_max=True), truncate=st.booleans())
def test_any_flipped_bit_or_cut_is_refused(saved_bundle, at, truncate):
    # the low bit of any byte flipped, header included, or the file cut at any length
    data = saved_bundle.read_bytes()
    i = int(at * len(data))
    edited = data[:i] if truncate else _flip_bit(lambda d: i)(data)
    path = saved_bundle.with_name("edited.lsb")
    path.write_bytes(edited)
    with pytest.raises(BundleError, match=re.escape(str(path))):
        ModelBundle.load(path)


def _swap(a, b):
    """Artifacts ``a`` and ``b`` of a model set, each in the other's slot."""
    return lambda m: {a: dump_models(m)[b], b: dump_models(m)[a]}


def _edited(name, **changes):
    """Artifact ``name`` with some fields changed."""
    return lambda m: {name: dump_gan(dataclasses.replace(getattr(m, name), **changes))}


def _retyped(name, model_type):
    """Artifact ``name`` as a ``model_type``: a level-3 'gan', a level-1 'cgan'."""
    fields = [f.name for f in dataclasses.fields(GanModel)]
    return lambda m: {name: dump_gan(model_type(**{f: getattr(getattr(m, name), f) for f in fields}))}


# each case: the artifacts that replace those of the tiny model set, and
# what the error names; every bundle decodes
SLOT_DEFECTS = {
    "l1_l2_swapped": (_swap("l1", "l2"), "'l1'.*slot 'l2'"),
    "l4_swapped": (_swap("l4_residential", "l4_industrial"), "'l4_residential'.*slot 'l4_industrial'"),
    "l1_holds_seam": (lambda m: {"l1": dump_seam(m.seam)}, "'l1'.*slot 'seam'"),
    "seam_holds_svd": (lambda m: {"seam": dump_svd(m.l4_residential)}, "'seam'.*slot 'l4_residential'"),
    "l3_tagged_gan": (_retyped("l3", GanModel), "'l3'.*level l3 model is tagged 'gan'"),
    "l1_tagged_cgan": (_retyped("l1", CGanModel), "'l1'.*level l1 model is tagged 'cgan'"),
    "noise_dim_50": (
        _edited("l1", noise_dim=50),
        "'l1'.*noise_dim 50 plus 0 label inputs does not fit the generator's input width 100",
    ),
    "l3_noise_dim_106": (
        _edited("l3", noise_dim=106),
        "'l3'.*noise_dim 106 plus 6 label inputs does not fit the generator's input width 106",
    ),
    "noise_dim_text": (_edited("l2", noise_dim="100"), "'l2'.*noise_dim '100'"),
    "amplitude_scale_text": (
        _edited("l2", amplitude_scale="x"), "'l2'.*amplitude_scale 'x' is not a finite number above 0"
    ),
    "amplitude_scale_zero": (_edited("l1", amplitude_scale=0.0), "'l1'.*amplitude_scale 0.0"),
    "amplitude_scale_nan": (_edited("l3", amplitude_scale=float("nan")), "'l3'.*amplitude_scale nan"),
    "amplitude_scale_true": (_edited("l1", amplitude_scale=True), "'l1'.*amplitude_scale True"),
}


def _save_with(path, models, replacements, monkeypatch):
    """Save ``models`` with some artifacts replaced by ``replacements``."""
    artifacts = {**dump_models(models), **replacements}
    with monkeypatch.context() as patch:
        patch.setattr(modelio, "dump_models", lambda _: artifacts)
        ModelBundle(models=models, provenance={"source": "tiny"}).save(path)


@pytest.mark.parametrize("case", SLOT_DEFECTS)
def test_artifact_must_fit_its_slot(case, tiny_models, tmp_path, monkeypatch):
    replace, where = SLOT_DEFECTS[case]
    path = tmp_path / "models.lsb"
    _save_with(path, tiny_models, replace(tiny_models), monkeypatch)
    with pytest.raises(BundleError, match=f"^artifact {where}"):
        ModelBundle.load(path)


@pytest.mark.parametrize("command", ["generate", "validate"])
def test_swapped_fast_levels_exit_3(command, tiny_models, tiny_datasets, tmp_path, monkeypatch, capsys):
    path = tmp_path / "models.lsb"
    _save_with(path, tiny_models, _swap("l1", "l2")(tiny_models), monkeypatch)
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--residential", "1", "--resolution", "30/s", "--length", "1min",
                "--output", str(out)]
    else:
        write_level_datasets(tiny_datasets, tmp_path / "data")
        argv = ["validate", "--data", str(tmp_path / "data"), "--output-dir", str(out)]
    code = main([*argv, "--bundle", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: artifact 'l1' in {path}: holds the model of slot 'l2'"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "validate"])
def test_directory_as_bundle_exits_3(command, tiny_datasets, tmp_path, capsys):
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--residential", "1", "--resolution", "1/h", "--length", "1d",
                "--output", str(out)]
    else:
        write_level_datasets(tiny_datasets, tmp_path / "data")
        argv = ["validate", "--data", str(tmp_path / "data"), "--output-dir", str(out)]
    code = main([*argv, "--bundle", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [l for l in err.splitlines() if l.startswith("error: ")]
    assert line == f"error: {tmp_path} cannot be read as a model bundle: Is a directory"
    assert not out.exists()


def test_short_read_is_a_truncation(saved_bundle, monkeypatch):
    # the file holds fewer bytes than its size said when it was opened
    real = saved_bundle.stat().st_size
    with monkeypatch.context() as patch:
        patch.setattr(modelio.os, "fstat", lambda fd: SimpleNamespace(st_size=real + 64))
        with pytest.raises(BundleError, match=re.escape(
            f"{saved_bundle} is corrupt or truncated: {real} of its {real + 64} bytes could be read"
        )):
            ModelBundle.load(saved_bundle)


def test_weights_are_aligned_views_of_one_buffer(saved_bundle):
    models = ModelBundle.load(saved_bundle).models
    l1, l2 = models.l1.generator.params, models.l2.generator.params
    owner = l1.base.obj  # the buffer the file was read into
    assert isinstance(owner, np.ndarray) and owner.nbytes == saved_bundle.stat().st_size
    assert l2.base.obj is owner
    for weights in (l1, l2, models.l4_industrial.vt, models.seam.beta):
        assert np.shares_memory(weights, owner)
    for params in (l1, l2):
        assert params.__array_interface__["data"][0] % 64 == 0
        assert params.flags.writeable


# builds L1-L3 generators at their real shapes from init_params, untrained
_REAL_SHAPE_BUNDLE = """
import sys
import numpy as np
from loadsynth.compose import ModelSet, SeamFilter
from loadsynth.core import Level, LoadClass
from loadsynth.modelio import ModelBundle
from loadsynth.neural.gan import (
    CONDITIONED_LEVEL, LABEL_DIM, CGanModel, GanModel, TrainingLog, generator_spec,
)
from loadsynth.neural.network import Network, init_params
from loadsynth.svdgen import SvdModel

rng = np.random.default_rng(7)
noise_dim = 100  # the CLI default

def gan(level):
    conditioned = level is CONDITIONED_LEVEL
    spec = generator_spec(level, noise_dim, LABEL_DIM if conditioned else 0)
    return (CGanModel if conditioned else GanModel)(
        level=level, noise_dim=noise_dim, generator=Network(spec, init_params(spec, rng)),
        log=TrainingLog(),
    )

def svd(load_class):
    return SvdModel(load_class=load_class, u=rng.normal(size=(6, 3)), s=np.ones(3),
                    vt=rng.normal(size=(3, 52)), coeff_mu=np.zeros(3), coeff_sigma=np.ones(3))

ModelBundle(models=ModelSet(
    l1=gan(Level.L1), l2=gan(Level.L2), l3=gan(Level.L3),
    l4_residential=svd(LoadClass.MAINLY_RESIDENTIAL), l4_industrial=svd(LoadClass.MAINLY_INDUSTRIAL),
    seam=SeamFilter(np.array([0.1, 0.2, 0.5, 0.2, 0.1])),
)).save(sys.argv[1])
"""

# peak RSS (KiB) after importing the CLI, then after loading the bundle
_LOAD_RSS = """
import resource, sys
import loadsynth.cli
from loadsynth.modelio import ModelBundle
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ModelBundle.load(sys.argv[1])
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_load_raises_peak_rss_by_about_the_file_size(tmp_path):
    path = tmp_path / "real.lsb"
    src = Path(modelio.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", _REAL_SHAPE_BUNDLE, str(path)], env=env, check=True)
    size = path.stat().st_size
    assert size > 20e6  # every generator at its real shape
    # exec keeps the peak RSS of the memory it replaces, so a process started
    # straight from this one would start at this one's peak: a small
    # launcher starts the measured process
    launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    out = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", _LOAD_RSS, str(path)],
                         env=env, check=True, capture_output=True, text=True).stdout
    before, after = map(int, out.split())
    print(f"peak RSS {before} -> {after} KiB for a {size} byte bundle")
    assert (after - before) * 1024 <= 1.2 * size


@pytest.fixture(scope="module")
def other_bundle(tiny_models, tmp_path_factory):
    """A bundle like ``saved_bundle`` whose l2 generator has other weights."""
    l2 = tiny_models.l2
    generator = type(l2.generator)(l2.generator.spec, l2.generator.params * 1.5)
    models = dataclasses.replace(tiny_models, l2=dataclasses.replace(l2, generator=generator))
    path = tmp_path_factory.mktemp("other") / "models.lsb"
    ModelBundle(models=models, provenance={"source": "tiny"}).save(path)
    return path


@settings(max_examples=40, deadline=None)
@given(
    cut_a=st.floats(0.0, 1.0), cut_b=st.floats(0.0, 1.0), same_cut=st.booleans(),
    other_first=st.booleans(),
)
def test_any_splice_is_refused(saved_bundle, other_bundle, cut_a, cut_b, same_cut, other_first):
    # a prefix of one bundle joined to a suffix of the other loads only if
    # it is one of the two, byte for byte
    bundles = (saved_bundle.read_bytes(), other_bundle.read_bytes())
    first, second = bundles[::-1] if other_first else bundles
    i = int(cut_a * len(first))
    j = i if same_cut else int(cut_b * len(second))
    spliced = first[:i] + second[j:]
    path = saved_bundle.with_name("spliced.lsb")
    path.write_bytes(spliced)
    if spliced in bundles:
        ModelBundle.load(path)
    else:
        with pytest.raises(BundleError, match=re.escape(str(path))):
            ModelBundle.load(path)


def test_spliced_bundle_exits_3(saved_bundle, other_bundle, tmp_path, capsys):
    a, b = saved_bundle.read_bytes(), other_bundle.read_bytes()
    assert len(a) == len(b) and a != b
    path = tmp_path / "spliced.lsb"
    path.write_bytes(a[: len(a) // 2] + b[len(a) // 2 :])
    assert_generate_exits_3(path, "corrupt or truncated", tmp_path, capsys)
