"""Checkpoint format v2: versioned, checksummed, atomically written.

An envelope (``repro.checkpoint/2``) is a JSON object::

    {
      "format":   "repro.checkpoint/2",
      "kind":     "cover" | "navigator" | "ft_spanner" | "routing_labels",
      "meta":     {...},                     # n, build params, contract
      "sections": {name: {"crc32": int, "body": {...}}, ...},
      "digest":   "<sha256 hex over everything above>"
    }

Every section carries a CRC32 of its canonical JSON encoding, so
corruption is localized to a *named* section (each cover tree is its
own section — the granularity the per-tree recovery of
:mod:`repro.checkpoint.recovery` needs), and the whole file carries a
SHA-256 digest, so any single-byte change anywhere is detected.  Writes
go through :func:`repro.io.atomic_write_json` (tempfile +
``os.replace``), so a crash mid-save never leaves a torn file.

This module is purely about *format* integrity and shape: every failure
raises :class:`~repro.errors.CheckpointCorruption`.  Whether the decoded
structure still satisfies the paper's invariants is the job of
:mod:`repro.checkpoint.audit`.

Backward compatibility: :func:`load_cover_checkpoint` transparently
accepts the unchecksummed v1 format of :mod:`repro.io`
(``repro.treecover/1``); v1 files get shape validation and a structural
audit, just no checksum verification (there is nothing to verify).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CheckpointCorruption
from ..io import (
    V1_COVER_FORMAT,
    atomic_write_json,
    cover_from_dict,
    cover_tree_from_dict,
    tree_to_dict,
)
from ..metrics.base import Metric
from ..treecover.base import CoverTree, TreeCover

__all__ = [
    "CHECKPOINT_FORMAT",
    "KINDS",
    "RAW_SECTION",
    "canonical_bytes",
    "section_crc",
    "make_envelope",
    "open_envelope",
    "peek_envelope",
    "read_checkpoint_file",
    "write_checkpoint_file",
    "raw_array_table",
    "load_mapped_arrays",
    "cover_sections",
    "cover_from_sections",
    "load_v1_cover",
    "tree_section_name",
]

CHECKPOINT_FORMAT = "repro.checkpoint/2"
KINDS = ("cover", "navigator", "ft_spanner", "routing_labels")

#: Section naming the memory-mappable raw-array region of the file.
#: The section body is a table (dtype/shape/offset/CRC32 per array);
#: the array bytes live *after* the JSON envelope line, page-aligned,
#: so loaders can ``np.memmap`` them without parsing or copying.  The
#: table is covered by the envelope digest like any section; the raw
#: bytes are covered by the per-array CRC32s recorded in the table.
RAW_SECTION = "packed/arrays"

# Raw region page alignment (data region start) and per-array alignment.
_DATA_ALIGN = 4096
_ARRAY_ALIGN = 64

# dtypes allowed in the raw region — everything the packed query suite
# emits; keeps eval of attacker-controlled dtype strings impossible.
_RAW_DTYPES = {"<i4", "<i8", "<f8", "|u1"}


# ----------------------------------------------------------------------
# Canonical encoding and checksums

def canonical_bytes(obj: Any) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, UTF-8.

    Checksums are computed over this encoding, so they are insensitive
    to how the surrounding file was pretty-printed and to the
    tuple-vs-list distinction of the in-memory payload.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def section_crc(body: Any) -> int:
    return zlib.crc32(canonical_bytes(body)) & 0xFFFFFFFF


def _digest(core: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_bytes(core)).hexdigest()


# ----------------------------------------------------------------------
# Envelope assembly and verification

def make_envelope(
    kind: str, meta: Dict[str, Any], sections: Dict[str, Any]
) -> Dict[str, Any]:
    """Wrap section bodies with per-section CRCs and a file digest."""
    if kind not in KINDS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    wrapped = {
        name: {"crc32": section_crc(body), "body": body}
        for name, body in sections.items()
    }
    core = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "meta": meta,
        "sections": wrapped,
    }
    return {**core, "digest": _digest(core)}


def peek_envelope(
    data: Any,
) -> Tuple[str, Dict[str, Any], Dict[str, Any], List[str]]:
    """Partially verify an envelope, reporting damage instead of raising.

    Returns ``(kind, meta, good_bodies, bad_sections)`` where
    ``good_bodies`` maps section names whose CRC verified to their
    bodies, and ``bad_sections`` lists the names that failed (missing
    crc/body fields count as failed).  The whole-file digest is *not*
    required to pass — this is the entry point for per-section salvage
    in the recovery orchestrator.  Raises
    :class:`~repro.errors.CheckpointCorruption` only when the envelope
    itself is unusable (not a dict, wrong format tag, unparseable
    section table).
    """
    if not isinstance(data, dict):
        raise CheckpointCorruption("checkpoint payload is not a JSON object")
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointCorruption(
            f"format tag {data.get('format')!r} is not {CHECKPOINT_FORMAT!r}"
        )
    kind = data.get("kind")
    if kind not in KINDS:
        raise CheckpointCorruption(f"unknown checkpoint kind {kind!r}")
    meta = data.get("meta")
    if not isinstance(meta, dict):
        raise CheckpointCorruption("meta is not an object")
    table = data.get("sections")
    if not isinstance(table, dict) or not table:
        raise CheckpointCorruption("sections table missing or empty")
    good: Dict[str, Any] = {}
    bad: List[str] = []
    for name, entry in table.items():
        if (
            not isinstance(entry, dict)
            or "body" not in entry
            or not isinstance(entry.get("crc32"), int)
            or section_crc(entry["body"]) != entry["crc32"]
        ):
            bad.append(name)
        else:
            good[name] = entry["body"]
    return kind, meta, good, sorted(bad)


def open_envelope(data: Any) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """Fully verify an envelope: digest plus every section CRC.

    Returns ``(kind, meta, bodies)``; raises
    :class:`~repro.errors.CheckpointCorruption` on the first failed
    check, naming the offending section when the damage is localized.
    """
    kind, meta, good, bad = peek_envelope(data)
    if bad:
        raise CheckpointCorruption("CRC32 mismatch", section=bad[0])
    recorded = data.get("digest")
    core = {key: data[key] for key in ("format", "kind", "meta", "sections")}
    actual = _digest(core)
    if recorded != actual:
        raise CheckpointCorruption(
            f"file digest mismatch: recorded {recorded!r}, computed {actual!r}"
        )
    return kind, meta, good


# ----------------------------------------------------------------------
# File I/O

def _normalized_arrays(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        dtype = array.dtype.newbyteorder("<") if array.dtype.itemsize > 1 else array.dtype
        array = array.astype(dtype, copy=False)
        if array.dtype.str not in _RAW_DTYPES:
            raise ValueError(
                f"array {name!r} has unsupported raw dtype {array.dtype.str!r}"
            )
        out[name] = array
    return out


def raw_array_table(arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """The :data:`RAW_SECTION` body describing ``arrays``.

    Assigns offsets (relative to the start of the page-aligned data
    region, each array :data:`_ARRAY_ALIGN`-aligned, in sorted name
    order) and records dtype, shape, byte length and CRC32 per array.
    The same array dict must then be passed to
    :func:`write_checkpoint_file` so bytes land where the table says.
    """
    table: Dict[str, Any] = {"align": _DATA_ALIGN, "arrays": {}}
    offset = 0
    for name, array in _normalized_arrays(arrays).items():
        offset = -(-offset // _ARRAY_ALIGN) * _ARRAY_ALIGN
        table["arrays"][name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
            "crc32": zlib.crc32(array.tobytes()) & 0xFFFFFFFF,
        }
        offset += int(array.nbytes)
    return table


def write_checkpoint_file(
    envelope: Dict[str, Any],
    path: str,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Atomically persist an envelope (tempfile + ``os.replace``).

    Envelopes are written in *canonical* form — the same encoding the
    checksums are computed over — so the file has no insignificant
    whitespace and every single byte is covered by a checksum: any
    one-byte change either breaks the JSON, trips a CRC/digest, or
    invalidates the format tag.

    With ``arrays``, the envelope (which must contain the matching
    :func:`raw_array_table` section) is written as the file's first
    line, zero-padded to a page boundary, followed by the raw array
    bytes at the offsets the table records — the memory-mappable
    layout :func:`load_mapped_arrays` reads.  Raw bytes are covered by
    the table's per-array CRC32s rather than the envelope digest.
    """
    if arrays is None:
        atomic_write_json(envelope, path, canonical=True)
        return
    table = envelope.get("sections", {}).get(RAW_SECTION, {}).get("body")
    if not isinstance(table, dict) or "arrays" not in table:
        raise ValueError(
            f"envelope lacks the {RAW_SECTION!r} section for its raw arrays"
        )
    normalized = _normalized_arrays(arrays)
    header = canonical_bytes(envelope) + b"\n"
    data_start = -(-len(header) // _DATA_ALIGN) * _DATA_ALIGN
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            handle.write(b"\0" * (data_start - len(header)))
            cursor = 0
            for name, array in normalized.items():
                spec = table["arrays"][name]
                pad = spec["offset"] - cursor
                if pad < 0:
                    raise ValueError(f"raw table offset regressed at {name!r}")
                handle.write(b"\0" * pad)
                handle.write(array.tobytes())
                cursor = spec["offset"] + int(array.nbytes)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _read_first_line(path: str) -> bytes:
    """The first line of the file (without the newline), chunked so a
    multi-gigabyte raw region is never pulled into memory."""
    chunks: List[bytes] = []
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            newline = chunk.find(b"\n")
            if newline != -1:
                chunks.append(chunk[:newline])
                break
            chunks.append(chunk)
    return b"".join(chunks)


def read_checkpoint_file(path: str) -> Dict[str, Any]:
    """Read raw checkpoint JSON; unparseable files raise
    :class:`~repro.errors.CheckpointCorruption`.

    Files with a raw-array region keep their envelope on the first
    line, so that line is parsed first; plain JSON files (canonical v2,
    indented v1, or externally pretty-printed) fall back to a
    whole-file parse.
    """
    try:
        first = _read_first_line(path)
        try:
            data = json.loads(first.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        if not isinstance(data, dict):
            raise CheckpointCorruption(
                f"checkpoint {path!r} does not hold a JSON object"
            )
        return data
    except CheckpointCorruption:
        raise
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruption(f"cannot read checkpoint {path!r}: {exc}") from exc


def load_mapped_arrays(
    path: str, table: Dict[str, Any], verify: bool = True
) -> Dict[str, np.ndarray]:
    """Memory-map the raw-array region described by a verified table.

    ``table`` is the (CRC-verified) body of the :data:`RAW_SECTION`
    section.  Each array's bytes are CRC32-checked once (one sequential
    pass over the mapping) and returned as a read-only plain
    ``np.ndarray`` view of the file mapping — zero-copy, so N processes
    attaching to the same file share one physical copy of the pages.
    The views are not ``np.memmap`` instances: scalar indexing into a
    memmap goes through its Python-level ``__getitem__``, which the
    query kernels would pay on every element they read.  Raises
    :class:`~repro.errors.CheckpointCorruption` on any mismatch.
    """
    specs = table.get("arrays")
    align = table.get("align")
    if not isinstance(specs, dict) or not isinstance(align, int) or align <= 0:
        raise CheckpointCorruption(
            "malformed raw-array table", section=RAW_SECTION
        )
    header_len = len(_read_first_line(path)) + 1
    data_start = -(-header_len // align) * align
    try:
        mm = np.asarray(np.memmap(path, mode="r", dtype=np.uint8))
    except (OSError, ValueError) as exc:
        raise CheckpointCorruption(
            f"cannot map checkpoint {path!r}: {exc}", section=RAW_SECTION
        ) from exc
    out: Dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        if (
            not isinstance(spec, dict)
            or spec.get("dtype") not in _RAW_DTYPES
            or not isinstance(spec.get("shape"), list)
            or not isinstance(spec.get("offset"), int)
            or not isinstance(spec.get("nbytes"), int)
            or not isinstance(spec.get("crc32"), int)
        ):
            raise CheckpointCorruption(
                f"malformed raw-array spec for {name!r}", section=RAW_SECTION
            )
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(s) for s in spec["shape"])
        nbytes = spec["nbytes"]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count * dtype.itemsize != nbytes or nbytes < 0:
            raise CheckpointCorruption(
                f"raw array {name!r}: shape {shape} disagrees with "
                f"{nbytes} bytes",
                section=RAW_SECTION,
            )
        start = data_start + spec["offset"]
        stop = start + nbytes
        if stop > mm.size:
            raise CheckpointCorruption(
                f"raw array {name!r} extends past end of file",
                section=RAW_SECTION,
            )
        raw = mm[start:stop]
        if verify and zlib.crc32(raw.tobytes()) & 0xFFFFFFFF != spec["crc32"]:
            raise CheckpointCorruption(
                f"raw array {name!r} CRC32 mismatch", section=RAW_SECTION
            )
        array = raw.view(dtype).reshape(shape)
        array.flags.writeable = False
        out[name] = array
    return out


# ----------------------------------------------------------------------
# Cover payloads (shared by every checkpoint kind: navigators, FT
# spanners and routing labels all embed the cover they were built from)

def tree_section_name(index: int) -> str:
    return f"tree/{index:04d}"


def cover_sections(cover: TreeCover) -> Dict[str, Any]:
    """One section per cover tree plus a ``cover`` header section.

    The per-tree granularity is what makes single-tree corruption
    detectable — and repairable — without touching the other trees.
    """
    sections: Dict[str, Any] = {
        "cover": {
            "n": cover.metric.n,
            "num_trees": cover.size,
            "home": cover.home,
        }
    }
    for index, cover_tree in enumerate(cover.trees):
        sections[tree_section_name(index)] = {
            "tree": tree_to_dict(cover_tree.tree),
            "vertex_of_point": list(cover_tree.vertex_of_point),
            "rep_point": list(cover_tree.rep_point),
        }
    return sections


def _decode_tree_section(body: Any, name: str, n_points: int) -> CoverTree:
    try:
        return cover_tree_from_dict(body, n_points)
    except ValueError as exc:
        raise CheckpointCorruption(str(exc), section=name) from exc


def cover_from_sections(
    bodies: Dict[str, Any], metric: Metric
) -> TreeCover:
    """Reassemble a :class:`TreeCover` from verified section bodies.

    Shape problems (missing sections, length mismatches, out-of-range
    ids) raise :class:`~repro.errors.CheckpointCorruption` naming the
    section; the caller is expected to have CRC-verified the bodies
    already.
    """
    header = bodies.get("cover")
    if not isinstance(header, dict):
        raise CheckpointCorruption("missing cover header", section="cover")
    if header.get("n") != metric.n:
        raise CheckpointCorruption(
            f"cover was built for {header.get('n')} points, metric has {metric.n}",
            section="cover",
        )
    num_trees = header.get("num_trees")
    if not isinstance(num_trees, int) or num_trees <= 0:
        raise CheckpointCorruption(
            f"bad tree count {num_trees!r}", section="cover"
        )
    trees: List[CoverTree] = []
    for index in range(num_trees):
        name = tree_section_name(index)
        if name not in bodies:
            raise CheckpointCorruption("section missing", section=name)
        trees.append(_decode_tree_section(bodies[name], name, metric.n))
    home = header.get("home")
    if home is not None:
        if (
            not isinstance(home, list)
            or len(home) != metric.n
            or any(
                not isinstance(t, int) or not 0 <= t < num_trees for t in home
            )
        ):
            raise CheckpointCorruption("malformed home table", section="cover")
    return TreeCover(metric, trees, home=home)


def load_v1_cover(data: Any, metric: Metric) -> Optional[TreeCover]:
    """Decode a legacy v1 payload, or return ``None`` if not v1.

    Shape errors in a recognized v1 payload surface as
    :class:`~repro.errors.CheckpointCorruption` so v1 and v2 loads fail
    uniformly.
    """
    if not isinstance(data, dict) or data.get("format") != V1_COVER_FORMAT:
        return None
    try:
        return cover_from_dict(data, metric)
    except ValueError as exc:
        raise CheckpointCorruption(f"legacy v1 cover: {exc}") from exc
