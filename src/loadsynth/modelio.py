"""Binary persistence for trained models.

Single-artifact container (all integers little-endian):

    bytes 0..3   magic  b"LSM1"
    u16 n, n bytes ASCII type tag: "gan" | "cgan" | "svd" | "seam"
    u32 n, n bytes UTF-8 metadata JSON (sorted keys, compact separators)
    u64 n, n * 8 bytes of little-endian float64: the weight blob

The metadata JSON carries the network specs, level, noise dimension,
amplitude scale, label vocabulary, and training log for adversarial
models; array shapes for pattern models.  The weight blob concatenates the
flattened arrays in the documented order (generator then discriminator;
U, S, Vt, coefficient means, coefficient stds for pattern models; the five
filter weights for the seam filter).

Bundle file:

    bytes 0..3   magic  b"LSB1"
    u32          format version (currently 1)
    u32 n, n bytes UTF-8 manifest JSON: artifact names in order + provenance
    per artifact: u16 n, n bytes name; u64 n, n bytes container

A bundle loads only if the magic and version match, all six artifacts
(l1, l2, l3, l4_residential, l4_industrial, seam) are present, every field
decodes, the weights fit the stored specs and every weight is finite;
otherwise it raises BundleError naming the manifest or the artifact.  Nothing time- or path-dependent is written, so identical
training runs produce byte-identical bundles.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compose import ModelSet, SeamFilter
from .core import Level, LoadClass, Season
from .errors import BundleError
from .neural.gan import LABEL_VOCAB, CGanModel, GanModel, TrainingLog
from .neural.network import Network, NetworkSpec
from .svdgen import SvdModel

BUNDLE_MAGIC = b"LSB1"
ARTIFACT_MAGIC = b"LSM1"
FORMAT_VERSION = 1

ARTIFACT_NAMES = ("l1", "l2", "l3", "l4_residential", "l4_industrial", "seam")


def _pack_artifact(type_tag: str, meta: dict, blob: np.ndarray) -> bytes:
    tag = type_tag.encode("ascii")
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = np.ascontiguousarray(blob, dtype="<f8")
    return b"".join(
        [
            ARTIFACT_MAGIC,
            struct.pack("<H", len(tag)),
            tag,
            struct.pack("<I", len(meta_bytes)),
            meta_bytes,
            struct.pack("<Q", blob.size),
            blob.tobytes(),
        ]
    )


def _unpack_artifact(data: bytes) -> tuple[str, dict, np.ndarray]:
    if data[:4] != ARTIFACT_MAGIC:
        raise BundleError("bad artifact magic")
    (tag_len,) = struct.unpack_from("<H", data, 4)
    off = 6 + tag_len
    tag = data[6:off].decode("ascii")
    (meta_len,) = struct.unpack_from("<I", data, off)
    off += 4 + meta_len
    meta = json.loads(data[off - meta_len : off].decode("utf-8"))
    (count,) = struct.unpack_from("<Q", data, off)
    blob = np.frombuffer(data, dtype="<f8", count=count, offset=off + 8).astype(np.float64)
    return tag, meta, blob


def dump_gan(model: GanModel) -> bytes:
    gen, disc = model.generator.params, model.discriminator.params
    meta = {
        "level": model.level.value,
        "noise_dim": model.noise_dim,
        "amplitude_scale": model.amplitude_scale,
        "generator_spec": model.generator.spec.to_jsonable(),
        "discriminator_spec": model.discriminator.spec.to_jsonable(),
        "log": model.log.to_jsonable(),
        "weights": {"generator": gen.size, "discriminator": disc.size},
    }
    tag = "gan"
    if isinstance(model, CGanModel):
        tag = "cgan"
        meta["label_vocab"] = [[c.value, s.value] for c, s in model.label_vocab]
    return _pack_artifact(tag, meta, np.concatenate([gen, disc]))


def dump_svd(model: SvdModel) -> bytes:
    n, r = model.u.shape
    meta = {"load_class": model.load_class.value, "n_profiles": n, "rank": r}
    blob = np.concatenate(
        [model.u.ravel(), model.s, model.vt.ravel(), model.coeff_mu, model.coeff_sigma]
    )
    return _pack_artifact("svd", meta, blob)


def dump_seam(filt: SeamFilter) -> bytes:
    return _pack_artifact("seam", {}, filt.beta)


def load_artifact(data: bytes):
    tag, meta, blob = _unpack_artifact(data)
    if not np.isfinite(blob).all():
        raise BundleError(f"{tag} weight blob holds non-finite values")
    if tag in ("gan", "cgan"):
        n_gen = meta["weights"]["generator"]
        n_disc = meta["weights"]["discriminator"]
        if n_gen + n_disc != blob.size:
            raise BundleError("weight blob size mismatch")
        gen = Network(NetworkSpec.from_jsonable(meta["generator_spec"]), blob[:n_gen])
        disc = Network(NetworkSpec.from_jsonable(meta["discriminator_spec"]), blob[n_gen:])
        common = dict(
            level=Level(meta["level"]),
            noise_dim=meta["noise_dim"],
            generator=gen,
            discriminator=disc,
            log=TrainingLog.from_jsonable(meta["log"]),
            amplitude_scale=meta["amplitude_scale"],
        )
        if tag == "cgan":
            vocab = tuple((LoadClass(c), Season(s)) for c, s in meta["label_vocab"])
            if vocab != LABEL_VOCAB:
                raise BundleError("unexpected label vocabulary")
            return CGanModel(**common, label_vocab=vocab)
        return GanModel(**common)
    if tag == "svd":
        n, r = meta["n_profiles"], meta["rank"]
        sizes = [n * r, r, r * 52, r, r]
        if sum(sizes) != blob.size:
            raise BundleError("pattern model blob size mismatch")
        parts = np.split(blob, np.cumsum(sizes)[:-1])
        return SvdModel(
            load_class=LoadClass(meta["load_class"]),
            u=parts[0].reshape(n, r),
            s=parts[1],
            vt=parts[2].reshape(r, 52),
            coeff_mu=parts[3],
            coeff_sigma=parts[4],
        )
    if tag == "seam":
        return SeamFilter(beta=blob)
    raise BundleError(f"unknown artifact type {tag!r}")


def dump_models(models: ModelSet) -> dict[str, bytes]:
    return {
        "l1": dump_gan(models.l1),
        "l2": dump_gan(models.l2),
        "l3": dump_gan(models.l3),
        "l4_residential": dump_svd(models.l4_residential),
        "l4_industrial": dump_svd(models.l4_industrial),
        "seam": dump_seam(models.seam),
    }


@dataclass
class ModelBundle:
    """The six trained artifacts plus training provenance."""

    models: ModelSet
    provenance: dict = field(default_factory=dict)

    def save(self, path) -> None:
        artifacts = dump_models(self.models)
        manifest = {
            "artifacts": list(ARTIFACT_NAMES),
            "provenance": self.provenance,
        }
        manifest_bytes = json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(BUNDLE_MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<I", len(manifest_bytes)))
            fh.write(manifest_bytes)
            for name in ARTIFACT_NAMES:
                blob = artifacts[name]
                encoded = name.encode("ascii")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)

    @classmethod
    def load(cls, path) -> "ModelBundle":
        path = Path(path)
        if not path.exists():
            raise BundleError(f"no model bundle at {path}")
        data = path.read_bytes()
        if data[:4] != BUNDLE_MAGIC:
            raise BundleError(f"{path} is not a model bundle (bad magic)")
        try:
            version, manifest_len = struct.unpack_from("<II", data, 4)
            if version != FORMAT_VERSION:
                raise BundleError(
                    f"bundle format version {version} unsupported (expected {FORMAT_VERSION})"
                )
            off = 12 + manifest_len
            provenance = json.loads(data[12:off].decode("utf-8")).get("provenance", {})
        except (struct.error, ValueError, AttributeError) as exc:
            raise BundleError(f"{path}: header or manifest does not decode: {exc}") from exc
        artifacts: dict[str, bytes] = {}
        try:
            while off < len(data):
                (name_len,) = struct.unpack_from("<H", data, off)
                name = data[off + 2 : off + 2 + name_len].decode("ascii")
                (blob_len,) = struct.unpack_from("<Q", data, off + 2 + name_len)
                off += 10 + name_len + blob_len
                if off > len(data):
                    raise BundleError(f"bundle truncated inside artifact {name!r}")
                artifacts[name] = data[off - blob_len : off]
        except (struct.error, UnicodeDecodeError) as exc:
            raise BundleError(f"bundle truncated or corrupt: {exc}") from exc
        missing = [n for n in ARTIFACT_NAMES if n not in artifacts]
        if missing:
            raise BundleError(f"bundle is missing artifacts: {', '.join(missing)}")
        loaded = {}
        for name in ARTIFACT_NAMES:  # the ModelSet field names
            try:
                loaded[name] = load_artifact(artifacts[name])
            except BundleError as exc:
                raise BundleError(f"artifact {name!r} in {path}: {exc}") from exc
            except (struct.error, KeyError, IndexError, TypeError, ValueError) as exc:
                raise BundleError(
                    f"artifact {name!r} in {path} does not decode: {type(exc).__name__}: {exc}"
                ) from exc
        return cls(models=ModelSet(**loaded), provenance=provenance)
