"""Binary persistence for trained models.

Single-artifact container (all integers little-endian):

    bytes 0..3   magic  b"LSM1"
    u16 n, n bytes ASCII type tag: "gan" | "cgan" | "svd" | "seam"
    u32 n, n bytes UTF-8 metadata JSON (sorted keys, compact separators)
    u64 n, zero bytes up to the next multiple of 64 from the container's
    start, then n * 8 bytes of little-endian float64: the weight blob

The metadata JSON carries the generator spec, level, noise dimension,
amplitude scale, label vocabulary, and training log for adversarial
models; array shapes for pattern models.  The weight blob concatenates the
flattened arrays in the documented order (the generator's parameters;
U, S, Vt, coefficient means, coefficient stds for pattern models; the five
filter weights for the seam filter) and ends the container.

Bundle file:

    bytes 0..3   magic  b"LSB1"
    u32          format version (currently 3)
    32 bytes     SHA-256 of the body, every byte after it
    u32 n, n bytes UTF-8 manifest JSON: artifact names in order + provenance
    per artifact: u16 n, n bytes name; zero bytes up to the file offset
    that puts the container at a multiple of 64; u64 n, n bytes container

So every container, and every weight blob, starts at a file offset that is
a multiple of 64; the padding is covered by the digest.

``load`` reads the whole file once into one 64-byte-aligned buffer that
this process owns and keeps: every weight array of the loaded models
(generator ``params``, the SVD parts, the seam ``beta``) is an
``np.frombuffer`` view of it, so the load holds the file's bytes once and
copies no weight.  The file is read, not mapped: rewriting a mapped file in
place would change weights that were already checked.  ``save`` writes the
generators' ``params`` as they are, without a joined copy.

A bundle loads only if the magic and version match (a bundle of format 1 or
2 must be retrained), the digest matches, every padding byte is zero, all
six artifacts (l1, l2, l3, l4_residential, l4_industrial, seam) are
present, every field decodes, each weight blob fills its container, the
weights fit the stored specs, every weight is finite and each artifact fits
its slot (l1-l3 an adversarial model of that level, "cgan" at
CONDITIONED_LEVEL and "gan" elsewhere, whose noise_dim plus label inputs is
the generator's input width and whose amplitude scale is finite and above 0;
l4_<class> an "svd" model of that class; seam a seam filter); otherwise,
and when the file cannot be opened or read in full, it raises BundleError
naming the path (and the artifact at fault, if one is).
Nothing time- or path-dependent is written, so identical training runs
produce byte-identical bundles.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .compose import ModelSet, SeamFilter
from .core import LEVEL_SPECS, Level, LoadClass
from .errors import BundleError
from .neural.gan import CONDITIONED_LEVEL, LABEL_DIM, LABEL_VOCAB, CGanModel, GanModel, TrainingLog
from .neural.network import Network, NetworkSpec
from .svdgen import SvdModel

BUNDLE_MAGIC = b"LSB1"
ARTIFACT_MAGIC = b"LSM1"
FORMAT_VERSION = 3
_BODY_AT = 40  # magic, version and digest precede the digested body
ALIGN = 64  # every container and weight blob starts at a multiple of this

ARTIFACT_NAMES = tuple(f.name for f in fields(ModelSet))  # the slots, in the bundle's order
_VOCAB_JSON = [[c.value, s.value] for c, s in LABEL_VOCAB]


def _pad(offset: int) -> int:
    """The number of zero bytes that take ``offset`` to a multiple of ALIGN."""
    return -offset % ALIGN


def _pack_artifact(type_tag: str, meta: dict, blob: np.ndarray) -> list:
    """The container as the two buffers to write: its head and the blob itself."""
    tag = type_tag.encode("ascii")
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = np.ascontiguousarray(blob, dtype="<f8")
    head = b"".join(
        [
            ARTIFACT_MAGIC,
            struct.pack("<H", len(tag)),
            tag,
            struct.pack("<I", len(meta_bytes)),
            meta_bytes,
            struct.pack("<Q", blob.size),
        ]
    )
    return [head + bytes(_pad(len(head))), memoryview(blob).cast("B")]


def _unpack_artifact(data) -> tuple[str, dict, np.ndarray]:
    """Decode a container held in ``bytes`` or a ``memoryview`` of them; the
    weight blob is a view of ``data``."""
    if data[:4] != ARTIFACT_MAGIC:
        raise BundleError("bad artifact magic")
    (tag_len,) = struct.unpack_from("<H", data, 4)
    off = 6 + tag_len
    tag = str(data[6:off], "ascii")
    (meta_len,) = struct.unpack_from("<I", data, off)
    off += 4 + meta_len
    meta = json.loads(str(data[off - meta_len : off], "utf-8"))
    (count,) = struct.unpack_from("<Q", data, off)
    off += 8
    blob_at = off + _pad(off)
    if any(data[off:blob_at]):
        raise BundleError(f"the padding before the {tag} weight blob is not zero")
    if blob_at + 8 * count != len(data):
        raise BundleError(f"a {tag} weight blob of {count} values does not fill its container")
    return tag, meta, np.frombuffer(data, dtype="<f8", count=count, offset=blob_at)


def dump_gan(model: GanModel) -> list:
    meta = {
        "level": model.level.value,
        "noise_dim": model.noise_dim,
        "amplitude_scale": model.amplitude_scale,
        "generator_spec": model.generator.spec.to_jsonable(),
        "log": model.log.to_jsonable(),
    }
    tag = "gan"
    if model.conditional:
        tag = "cgan"
        meta["label_vocab"] = _VOCAB_JSON
    return _pack_artifact(tag, meta, model.generator.params)


def dump_svd(model: SvdModel) -> list:
    n, r = model.u.shape
    meta = {"load_class": model.load_class.value, "n_profiles": n, "rank": r}
    blob = np.concatenate(
        [model.u.ravel(), model.s, model.vt.ravel(), model.coeff_mu, model.coeff_sigma]
    )
    return _pack_artifact("svd", meta, blob)


def dump_seam(filt: SeamFilter) -> list:
    return _pack_artifact("seam", {}, filt.beta)


def load_artifact(data):
    """The model in a container held in ``bytes`` or a ``memoryview``."""
    tag, meta, blob = _unpack_artifact(data)
    if not np.isfinite(blob).all():
        raise BundleError(f"{tag} weight blob holds non-finite values")
    if tag in ("gan", "cgan"):
        gen = Network(NetworkSpec.from_jsonable(meta["generator_spec"]), blob)
        level, noise_dim, scale = Level(meta["level"]), meta["noise_dim"], meta["amplitude_scale"]
        label_dim = LABEL_DIM if tag == "cgan" else 0
        if (tag == "cgan") != (level is CONDITIONED_LEVEL):
            raise BundleError(f"a level {level.value} model is tagged {tag!r}")
        if type(scale) not in (int, float) or not (math.isfinite(scale) and scale > 0):
            raise BundleError(f"amplitude_scale {scale!r} is not a finite number above 0")
        first = gen.spec.layers[0]
        width = first[1] if first[0] == "dense" else None
        if type(noise_dim) is not int or noise_dim + label_dim != width:
            raise BundleError(
                f"noise_dim {noise_dim!r} plus {label_dim} label inputs does not fit "
                f"the generator's input width {width}"
            )
        if label_dim and meta["label_vocab"] != _VOCAB_JSON:
            raise BundleError("unexpected label vocabulary")
        return (CGanModel if label_dim else GanModel)(
            level=level,
            noise_dim=noise_dim,
            generator=gen,
            log=TrainingLog.from_jsonable(meta["log"]),
            amplitude_scale=scale,
        )
    if tag == "svd":
        n, r, weeks = meta["n_profiles"], meta["rank"], LEVEL_SPECS[Level.L4].profile_length
        sizes = [n * r, r, r * weeks, r, r]
        if sum(sizes) != blob.size:
            raise BundleError("pattern model blob size mismatch")
        parts = np.split(blob, np.cumsum(sizes)[:-1])
        return SvdModel(
            load_class=LoadClass(meta["load_class"]),
            u=parts[0].reshape(n, r),
            s=parts[1],
            vt=parts[2].reshape(r, weeks),
            coeff_mu=parts[3],
            coeff_sigma=parts[4],
        )
    if tag == "seam":
        return SeamFilter(beta=blob)
    raise BundleError(f"unknown artifact type {tag!r}")


def _slot(model) -> str:
    """The name of the bundle slot a loaded artifact fits."""
    if isinstance(model, GanModel):
        return model.level.value
    if isinstance(model, SvdModel):
        return f"l4_{model.load_class.value}"
    return "seam"


def _dump(model) -> list:
    if isinstance(model, GanModel):
        return dump_gan(model)
    if isinstance(model, SvdModel):
        return dump_svd(model)
    return dump_seam(model)


def dump_models(models: ModelSet) -> dict[str, list]:
    return {name: _dump(getattr(models, name)) for name in ARTIFACT_NAMES}


@dataclass
class ModelBundle:
    """The six trained artifacts plus training provenance."""

    models: ModelSet
    provenance: dict = field(default_factory=dict)

    def save(self, path) -> None:
        artifacts = dump_models(self.models)
        manifest = {"artifacts": list(ARTIFACT_NAMES), "provenance": self.provenance}
        manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        body = [struct.pack("<I", len(manifest_bytes)) + manifest_bytes]
        end = _BODY_AT + len(body[0])  # the file offset after the pieces so far
        for name in ARTIFACT_NAMES:
            encoded, container = name.encode("ascii"), artifacts[name]
            size = sum(len(piece) for piece in container)
            entry = struct.pack("<H", len(encoded)) + encoded
            entry += bytes(_pad(end + len(entry) + 8)) + struct.pack("<Q", size)
            body += [entry, *container]
            end += len(entry) + size
        digest = hashlib.sha256()
        for piece in body:
            digest.update(piece)
        with open(path, "wb") as fh:
            fh.write(BUNDLE_MAGIC + struct.pack("<I", FORMAT_VERSION) + digest.digest())
            fh.writelines(body)

    @classmethod
    def load(cls, path) -> "ModelBundle":
        path = Path(path)
        data = _read_aligned(path)  # every weight is a view of this one buffer
        if data[:4] != BUNDLE_MAGIC:
            raise BundleError(f"{path} is not a model bundle (bad magic)")
        try:
            (version,) = struct.unpack_from("<I", data, 4)
        except struct.error as exc:
            raise BundleError(f"{path}: header does not decode: {exc}") from exc
        if version != FORMAT_VERSION:
            raise BundleError(
                f"{path}: bundle format version {version} is unsupported "
                f"(expected {FORMAT_VERSION}); retrain the models with this version"
            )
        if hashlib.sha256(data[_BODY_AT:]).digest() != data[8:_BODY_AT]:
            raise BundleError(f"{path} is corrupt or truncated: its SHA-256 digest does not match")
        try:
            (manifest_len,) = struct.unpack_from("<I", data, _BODY_AT)
            off = _BODY_AT + 4 + manifest_len
            provenance = json.loads(str(data[_BODY_AT + 4 : off], "utf-8")).get("provenance", {})
        except (struct.error, ValueError, AttributeError) as exc:
            raise BundleError(f"{path}: manifest does not decode: {exc}") from exc
        loaded = {}
        while off < len(data):
            try:
                (name_len,) = struct.unpack_from("<H", data, off)
                name = str(data[off + 2 : off + 2 + name_len], "ascii")
                off += 2 + name_len
                start = off + 8 + _pad(off + 8)  # the container's offset
                (size,) = struct.unpack_from("<Q", data, start - 8)
            except (struct.error, UnicodeDecodeError) as exc:
                raise BundleError(f"{path}: bundle truncated or corrupt: {exc}") from exc
            if any(data[off : start - 8]):
                raise BundleError(f"{path}: the padding before artifact {name!r} is not zero")
            off = start + size
            if off > len(data):
                raise BundleError(f"{path}: bundle truncated inside artifact {name!r}")
            if name in ARTIFACT_NAMES:
                loaded[name] = _load_slot(name, data[start:off], path)
        missing = [n for n in ARTIFACT_NAMES if n not in loaded]
        if missing:
            raise BundleError(f"{path}: bundle is missing artifacts: {', '.join(missing)}")
        return cls(models=ModelSet(**loaded), provenance=provenance)


def _read_aligned(path: Path) -> memoryview:
    """The whole file at ``path``, read once into a 64-byte-aligned buffer."""
    try:
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            raw = np.empty(size + ALIGN, dtype=np.uint8)
            skip = _pad(raw.__array_interface__["data"][0])
            data = memoryview(raw[skip : skip + size])
            got = 0
            while got < size and (n := fh.readinto(data[got:])):
                got += n
    except FileNotFoundError:
        raise BundleError(f"no model bundle at {path}") from None
    except OSError as exc:
        raise BundleError(f"{path} cannot be read as a model bundle: {exc.strerror or exc}") from exc
    if got < size:
        raise BundleError(f"{path} is corrupt or truncated: {got} of its {size} bytes could be read")
    return data


def _load_slot(name: str, container: memoryview, path: Path):
    """The model in ``container``, checked to fit bundle slot ``name``."""
    try:
        model = load_artifact(container)
        if _slot(model) != name:
            raise BundleError(f"holds the model of slot {_slot(model)!r}")
    except BundleError as exc:
        raise BundleError(f"artifact {name!r} in {path}: {exc}") from exc
    except (struct.error, KeyError, IndexError, TypeError, ValueError) as exc:
        raise BundleError(
            f"artifact {name!r} in {path} does not decode: {type(exc).__name__}: {exc}"
        ) from exc
    return model
