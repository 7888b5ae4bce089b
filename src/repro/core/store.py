"""Content-addressed, persistent results store.

The experiment orchestrator (:mod:`repro.experiments.orchestrator`)
decomposes each experiment into *work units*; this module persists their
outputs so that re-running a sweep skips every cell that has already been
computed and interrupted grids resume where they stopped.

Entries are **content-addressed**: the key of a cell is a SHA-256 digest
over the canonical JSON of its function's dotted path, its parameters
(seed, scale and every code-relevant knob live in there) and the digests
of the cells it depends on — so two cells with identical inputs share one
entry, and any change to the inputs produces a fresh key.

Serialization reuses the exact ``.npz``-with-JSON-sidecar round-tripping
of :mod:`repro.core.io`: NumPy arrays are stored raw (bit-for-bit), and
the JSON skeleton preserves Python floats exactly (``repr`` round-trip),
so a payload loaded from the store is numerically indistinguishable from
the freshly computed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .io import decode_meta, encode_meta, npz_path

__all__ = [
    "GCStats",
    "MISSING",
    "ResultsStore",
    "StoreFormatError",
    "digest_key",
    "load_payload",
    "pack_payload",
    "save_payload",
    "unpack_payload",
]


class StoreFormatError(ValueError):
    """A *valid* entry this code version cannot read (kind/format mismatch).

    Distinct from corruption: on a store shared between machines running
    different code versions the entry must be left in place for the
    writers who can read it, never deleted.
    """

#: Sentinel distinguishing "no (readable) entry" from a stored ``None``
#: payload — ``None`` is a perfectly legal payload value.  Pass as the
#: ``default`` of :meth:`ResultsStore.load_or_none` wherever that
#: distinction matters (cache scans, worker skip shortcuts).
MISSING = object()

_STORE_VERSION = 1

_ARRAY_TAG = "__ndarray__"


def pack_payload(payload: Any) -> tuple[Any, list[np.ndarray]]:
    """Split ``payload`` into a JSON-able skeleton plus extracted arrays.

    Supported payloads are arbitrary nestings of ``dict`` (string keys),
    ``list``/``tuple`` (tuples come back as lists), ``str``, ``bool``,
    ``int``, ``float``, ``None``, NumPy scalars (converted losslessly via
    ``.item()``) and ``np.ndarray`` (replaced by an ``{"__ndarray__": i}``
    marker and collected into the returned list, preserving dtype).
    """
    arrays: list[np.ndarray] = []

    def walk(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            arrays.append(node)
            return {_ARRAY_TAG: len(arrays) - 1}
        if isinstance(node, np.generic):
            return node.item()
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if not isinstance(key, str):
                    raise TypeError(f"payload dict keys must be str, got {key!r}")
                if key == _ARRAY_TAG:
                    raise TypeError(f"payload dict key {_ARRAY_TAG!r} is reserved")
                out[key] = walk(value)
            return out
        if isinstance(node, (list, tuple)):
            return [walk(item) for item in node]
        if node is None or isinstance(node, (str, bool, int, float)):
            return node
        raise TypeError(f"unsupported payload element of type {type(node).__name__}")

    return walk(payload), arrays


def unpack_payload(skeleton: Any, arrays: list[np.ndarray]) -> Any:
    """Inverse of :func:`pack_payload`."""

    def walk(node: Any) -> Any:
        if isinstance(node, dict):
            if set(node) == {_ARRAY_TAG}:
                return arrays[node[_ARRAY_TAG]]
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(skeleton)


def _canonical_json(obj: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_key(fn: str, params: Mapping[str, Any], dep_digests: Mapping[str, str] | None = None) -> str:
    """SHA-256 content address of one work unit.

    ``fn`` is the dotted path of the cell function, ``params`` its
    JSON-able keyword arguments, ``dep_digests`` maps dependency names to
    their own digests — so the address covers the whole upstream input
    closure, not just the local parameters.
    """
    blob = _canonical_json({
        "version": _STORE_VERSION,
        "fn": fn,
        "params": params,
        "deps": dict(dep_digests or {}),
    })
    return hashlib.sha256(blob.encode()).hexdigest()


def save_payload(path: str | Path, payload: Any, extra_meta: Mapping[str, Any] | None = None) -> Path:
    """Write a payload as one ``.npz`` archive (meta JSON embedded)."""
    path = npz_path(path)
    skeleton, arrays = pack_payload(payload)
    meta = {
        "format_version": _STORE_VERSION,
        "kind": "payload",
        "skeleton": skeleton,
        "extra": dict(extra_meta or {}),
    }
    np.savez_compressed(
        path,
        meta=encode_meta(meta),
        **{f"arr_{i}": arr for i, arr in enumerate(arrays)},
    )
    return path


def load_payload(path: str | Path) -> Any:
    """Read a payload written by :func:`save_payload`."""
    with np.load(Path(path)) as data:
        meta = decode_meta(data)
        if meta.get("kind") != "payload":
            raise StoreFormatError(f"expected a saved payload, found {meta.get('kind')!r}")
        if meta.get("format_version") != _STORE_VERSION:
            raise StoreFormatError(f"unsupported store format version {meta.get('format_version')}")
        skeleton = meta["skeleton"]
        arrays = []
        i = 0
        while f"arr_{i}" in data:
            arrays.append(data[f"arr_{i}"].copy())
            i += 1
    return unpack_payload(skeleton, arrays)


def _uncertified_bracket(node: Any) -> bool:
    """Whether a payload holds an offline bracket without its certificate.

    Brackets (``OptBracket`` payloads: ``lower``/``upper``/``method``) and
    the ratio measurements built on them (``opt_lower``) carry their
    certificate's ``gap`` / ``opt_gap`` since the offline solver became
    primal–dual.  Earlier entries lack it: their lower ends came from an
    uncertified solver and are sometimes above the optimum.  Content
    addresses did not change, so :meth:`ResultsStore.load_or_none` reads
    such entries as misses and their cells recompute in place.
    """
    if isinstance(node, dict):
        if {"lower", "upper", "method"} <= node.keys() and "gap" not in node:
            return True
        if "opt_lower" in node and "opt_gap" not in node:
            return True
        return any(_uncertified_bracket(value) for value in node.values())
    if isinstance(node, list):
        return any(_uncertified_bracket(item) for item in node)
    return False


@dataclass(frozen=True)
class GCStats:
    """Outcome of one :meth:`ResultsStore.gc` pass."""

    evicted: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int


class ResultsStore:
    """A directory of content-addressed cell payloads.

    One ``.npz`` file per entry, named by digest.  ``save`` writes through
    a per-process temporary file (dot-prefixed, so it never counts as an
    entry) and atomically renames, so a killed run never leaves a corrupt
    entry behind — the next ``--resume`` simply recomputes the missing
    cell — and concurrent runs computing the same cell race benignly:
    both write complete files and the renames are atomic, last one wins
    with identical content.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # Digests that :meth:`gc` must never evict while this handle is
        # open — live session checkpoints of an in-flight serve run.  The
        # pins are per-process by design: a crashed server's stale pins
        # die with it, leaving its checkpoints ordinary (evictable)
        # entries until the resuming server re-pins them.
        self._pins: set[str] = set()

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.npz"

    def pin(self, digest: str) -> None:
        """Shield ``digest`` from :meth:`gc` until :meth:`unpin` or process exit."""
        self._pins.add(digest)

    def unpin(self, digest: str) -> None:
        self._pins.discard(digest)

    def pinned(self) -> frozenset[str]:
        """Currently pinned digests (a snapshot)."""
        return frozenset(self._pins)

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def load(self, digest: str) -> Any:
        payload = load_payload(self.path_for(digest))
        self.touch(digest)
        return payload

    def touch(self, digest: str) -> None:
        """Stamp ``digest`` as just used, so :meth:`gc` evicts it last.

        Bumps the entry's mtime (atimes are unreliable under
        relatime/noatime mounts); a missing entry is left missing.
        """
        try:
            os.utime(self.path_for(digest))
        except OSError:
            pass

    def load_or_none(self, digest: str, default: Any = None) -> Any:
        """:meth:`load`, except missing/corrupt entries return ``default``.

        ``save`` renames complete files into place, so a corrupt entry
        can only come from outside the normal write path (a truncating
        filesystem, a partial copy between machines, manual tampering).
        Such an entry is deleted so the caller — the orchestrator's
        cache scan, a spool worker resolving dependencies — treats it as
        a plain cache miss and recomputes the cell instead of crashing
        the run.  An entry whose offline bracket predates its certificate
        (:func:`_uncertified_bracket`) is a miss as well.  Since ``None``
        is itself a storable payload, callers that must tell the two apart
        pass :data:`MISSING` as ``default``.
        """
        path = self.path_for(digest)
        try:
            payload = self.load(digest)
        except OSError:
            # Missing entry or a *transient* I/O failure (stale NFS
            # handle, fd exhaustion): a plain miss, never a deletion —
            # the entry may be perfectly valid.
            return default
        except StoreFormatError:
            # Another code version's valid entry (shared store): miss,
            # but never delete what its writer can still read.  (This
            # guard is best-effort defense in depth — a format change
            # also changes every content address via digest_key's
            # version field, so same-digest cross-version reads should
            # not occur in the first place.)
            return default
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile,
                zlib.error, json.JSONDecodeError):
            # Content corruption — a torn mid-file copy surfaces as
            # zlib.error/EOFError with the zip directory still intact,
            # garbage bytes as BadZipFile/ValueError.  Drop the entry so
            # it recomputes (best effort: a read-only share still gets
            # the miss, the recompute simply overwrites later).
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return default
        if _uncertified_bracket(payload):
            # A superseded but readable entry: a miss that the recompute
            # overwrites, never a deletion.
            return default
        return payload

    def save(self, digest: str, payload: Any, extra_meta: Mapping[str, Any] | None = None) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(digest)
        tmp = self.root / f".tmp-{os.getpid()}-{digest}.npz"
        try:
            save_payload(tmp, payload, extra_meta=extra_meta)
            tmp.replace(final)
        finally:
            tmp.unlink(missing_ok=True)
        return final

    def delete(self, digest: str) -> bool:
        """Drop one entry; returns whether it existed."""
        path = self.path_for(digest)
        if path.exists():
            path.unlink()
            return True
        return False

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for p in self.root.glob("*.npz") if not p.name.startswith("."))

    def entry_digests(self) -> set[str]:
        """Digests of every entry, from one directory scan.

        For polling loops (the spool executor) that would otherwise
        probe the store once per in-flight cell per tick — one scandir
        replaces O(cells) ``exists`` calls on the shared filesystem.
        """
        try:
            return {entry.name[:-4] for entry in os.scandir(self.root)
                    if entry.name.endswith(".npz")
                    and not entry.name.startswith(".")}
        except FileNotFoundError:
            return set()

    def size_bytes(self) -> int:
        """Total size of all entries (temporary files excluded)."""
        if not self.root.exists():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*.npz")
                   if not p.name.startswith("."))

    def gc(self, max_bytes: int) -> GCStats:
        """Evict least-recently-used entries until the store fits ``max_bytes``.

        Recency is tracked via entry mtimes: :meth:`save` stamps creation
        and :meth:`load` re-stamps every cache hit, so eviction order is
        true LRU over both writes and reads.  Entries vanishing mid-pass
        (a concurrent run's own gc) are treated as already evicted by the
        other party and skipped.  Entries pinned via :meth:`pin` (live
        session checkpoints of an in-flight serve run) are never evicted;
        they still count toward the total, so a heavily pinned store may
        legitimately finish above ``max_bytes``.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = []
        if self.root.exists():
            for path in self.root.glob("*.npz"):
                if path.name.startswith("."):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        remaining = len(entries)
        evicted = 0
        freed = 0
        for _, size, path in sorted(entries, key=lambda e: e[0]):
            if total <= max_bytes:
                break
            if path.stem in self._pins:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            evicted += 1
            remaining -= 1
        return GCStats(evicted=evicted, freed_bytes=freed,
                       remaining_entries=remaining, remaining_bytes=total)
