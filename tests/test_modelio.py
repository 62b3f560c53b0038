"""Binary container and bundle round trips."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

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
        np.testing.assert_array_equal(back.generator.get_flat(), model.generator.get_flat())
        np.testing.assert_array_equal(
            back.discriminator.get_flat(), model.discriminator.get_flat()
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
            model.discriminator.parameters()[0].flat[3] = bad
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
            back.models.l1.generator.get_flat(), tiny_models.l1.generator.get_flat()
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
        l3.generator.parameters()[-1][...] = np.nan  # output-layer bias
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
