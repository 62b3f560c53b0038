"""Binary container and bundle round trips."""

import copy
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from loadsynth.cli import main
from loadsynth.compose import ModelSet, SeamFilter
from loadsynth.errors import BundleError, DegenerateProfile
from loadsynth.modelio import (
    ModelBundle,
    dump_gan,
    dump_seam,
    dump_svd,
    load_artifact,
)
from loadsynth.neural.gan import CGanModel, gan_generate
from loadsynth.core import LoadClass, Season


class TestArtifactRoundTrips:
    def test_gan(self, tiny_models):
        model = tiny_models.l2
        back = load_artifact(dump_gan(model))
        assert back.level == model.level
        assert back.noise_dim == model.noise_dim
        assert back.amplitude_scale == model.amplitude_scale
        np.testing.assert_array_equal(back.generator.params, model.generator.params)
        np.testing.assert_array_equal(
            back.discriminator.params, model.discriminator.params
        )
        assert back.log.to_jsonable() == model.log.to_jsonable()
        a = gan_generate(model, 3, seed=5)
        b = gan_generate(back, 3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_cgan_keeps_vocabulary(self, tiny_models):
        back = load_artifact(dump_gan(tiny_models.l3))
        assert isinstance(back, CGanModel)
        assert back.conditional
        a = gan_generate(
            tiny_models.l3, 2, seed=9, labels=(LoadClass.MAINLY_INDUSTRIAL, Season.FALL)
        )
        b = gan_generate(back, 2, seed=9, labels=(LoadClass.MAINLY_INDUSTRIAL, Season.FALL))
        np.testing.assert_array_equal(a, b)

    def test_svd(self, tiny_models):
        model = tiny_models.l4_residential
        back = load_artifact(dump_svd(model))
        assert back.load_class is model.load_class
        for name in ("u", "s", "vt", "coeff_mu", "coeff_sigma"):
            np.testing.assert_array_equal(getattr(back, name), getattr(model, name))

    def test_seam(self, tiny_models):
        back = load_artifact(dump_seam(tiny_models.seam))
        np.testing.assert_array_equal(back.beta, tiny_models.seam.beta)

    def test_bad_magic(self):
        with pytest.raises(BundleError):
            load_artifact(b"XXXX" + b"\x00" * 32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["gan", "svd", "seam"])
    def test_non_finite_weight_rejected(self, tiny_models, kind, bad):
        if kind == "gan":
            model = copy.deepcopy(tiny_models.l2)
            model.discriminator.params[3] = bad  # first weight tensor
            data = dump_gan(model)
        elif kind == "svd":
            model = copy.deepcopy(tiny_models.l4_industrial)
            model.s[0] = bad
            data = dump_svd(model)
        else:
            # a SeamFilter refuses non-finite weights, so pass a stand-in
            data = dump_seam(SimpleNamespace(beta=np.array([0.1, bad, 0.5, 0.3, 0.4])))
        with pytest.raises(BundleError, match=f"{kind} weight blob holds non-finite"):
            load_artifact(data)


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
            gan_generate(l3, 2, seed=1, labels=(LoadClass.MAINLY_RESIDENTIAL, Season.WINTER))

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
        # truncate the final artifact (the seam filter) off the file
        idx = data.rfind(b"seam")
        path.write_bytes(data[: idx - 2])
        with pytest.raises(BundleError, match="missing|truncated"):
            ModelBundle.load(path)


def _replace_once(old: bytes, new: bytes):
    """A same-length edit of the first occurrence, inside the l1 artifact."""
    assert len(old) == len(new)

    def edit(data: bytes) -> bytes:
        assert old in data
        return data.replace(old, new, 1)

    return edit


def _shift_weight_split(data: bytes) -> bytes:
    # move one count from the l1 generator to its discriminator: the sum
    # still matches the blob, the split fits neither spec
    pattern = rb'"weights":\{"discriminator":(\d+),"generator":(\d+)\}'
    match = re.search(pattern, data)
    disc, gen = int(match.group(1)), int(match.group(2))
    edited = b'"weights":{"discriminator":%d,"generator":%d}' % (disc + 1, gen - 1)
    assert len(edited) == len(match.group(0))
    return data[: match.start()] + edited + data[match.end() :]


def _cut_seam_counts(data: bytes) -> bytes:
    # end the last artifact (the seam filter) right after its metadata, so
    # reading its weight count runs off the artifact
    start = data.rindex(b"LSM1")
    head = data[start : start + 16]  # magic, tag, metadata "{}"
    return data[: start - 8] + struct.pack("<Q", len(head)) + head


MANIFEST_AT = 12
BYTE_EDITS = {
    "manifest_not_utf8": (lambda d: d[:MANIFEST_AT] + b"\xff" + d[MANIFEST_AT + 1 :], "manifest"),
    "manifest_not_json": (lambda d: d[:MANIFEST_AT] + b"x" + d[MANIFEST_AT + 1 :], "manifest"),
    "metadata_not_utf8": (_replace_once(b'"level":"l1"', b'\xfflevel":"l1"'), "artifact 'l1'"),
    "metadata_not_json": (_replace_once(b'"level":"l1"', b'"level";"l1"'), "artifact 'l1'"),
    "no_amplitude_scale": (
        _replace_once(b'"amplitude_scale"', b'"amplitude_scalX"'), "artifact 'l1'"
    ),
    "no_discriminator_count": (
        _replace_once(b'"discriminator":', b'"discriminatoX":'), "artifact 'l1'"
    ),
    "struct_error": (_cut_seam_counts, "artifact 'seam'"),
    "unknown_layer_kind": (_replace_once(b'["dense",', b'["dunse",'), "artifact 'l1'"),
    "unknown_init_scheme": (
        _replace_once(b'"normal(0,0.02)"', b'"normal(0,0.03)"'), "artifact 'l1'"
    ),
    "weight_split": (_shift_weight_split, "artifact 'l1'"),
}


@pytest.mark.parametrize("case", BYTE_EDITS)
def test_undecodable_bundle_exits_3(case, tiny_models, tmp_path, capsys):
    edit, where = BYTE_EDITS[case]
    path = tmp_path / "models.lsb"
    ModelBundle(models=tiny_models, provenance={"source": "tiny"}).save(path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(BundleError, match=where):
        ModelBundle.load(path)
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
