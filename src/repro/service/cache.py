"""Content-addressed result cache keyed on the request's config fingerprint.

A cache entry maps one fully-resolved simulation request — the
``config_sha256`` the snapshot layer already computes (covering machine
geometry, fault schedule, and invariant mode) plus workload, policy, and
seed — to the canonical flattened result dict.  Because simulation is
deterministic for a given key, identical requests across users are never
simulated twice: the first run pays, everyone after reads.

Entry files use the snapshot framing (magic, version, CRC32 header over a
canonical-JSON payload) and are written through
:func:`repro.ioutils.atomic_write`, so ``kill -9`` mid-store leaves either
no entry or a complete one.  Reads CRC-validate; a corrupt entry (bit
rot, truncated copy) is quarantined to ``<name>.corrupt`` with a
structured warning and reported as a miss, so the caller recomputes
instead of serving garbage.

Fleet tier
----------
When constructed with ``fleet_dir`` (fleet mode), the cache is two-tier:
the private per-host directory in front of a shared directory all hosts
publish into.  Reads fall back to the shared tier (promoting valid
entries locally); writes land locally and are then *published* to the
shared tier through :func:`repro.ioutils.atomic_publish` — an exclusive
link of a complete, fsynced file — so of N hosts racing the same key
exactly one entry appears and it is never torn.  A publish is preceded
by the caller's fence check (``fence=...``): a stale owner whose claim
was reclaimed is counted in ``fleet_fenced`` and its bytes never reach
the shared tier.  Losing the exclusive-link race is *not* an error:
simulation is deterministic, so the winner's bytes are the loser's bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import warnings
import zlib
from pathlib import Path
from typing import Any, Callable

from repro import failpoints
from repro.ioutils import atomic_publish, atomic_write
from repro.snapshot import config_sha256

__all__ = ["ResultCache", "request_key", "CACHE_MAGIC", "CACHE_VERSION"]

#: file magic for a cached result (distinct from the RPROSNAP snapshots).
CACHE_MAGIC = b"RPROCRES"

#: bump on any incompatible entry layout change; old versions are treated
#: as misses (and quarantined) rather than loaded wrongly.
CACHE_VERSION = 1

_HEADER = struct.Struct("<II")  # version, crc32(payload)

#: the event counters a worker child reports back to the server's cache.
_COUNTERS = (
    "hits", "misses", "corrupt", "stores",
    "fleet_hits", "fleet_stores", "fleet_fenced", "fleet_corrupt",
)


def request_key(cfg, workload: str, policy: str, seed: int) -> str:
    """The content address of one simulation request.

    Built from ``config_sha256(cfg)`` — which already folds in capacities,
    latencies, the fault schedule, and strict-invariant mode — plus the
    (workload, policy, seed) cell, so two requests share a key exactly
    when their simulations are guaranteed byte-identical.
    """
    blob = f"{config_sha256(cfg)}|{workload}|{policy}|{seed}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """CRC-validated, atomically-written result store under one directory.

    Thread-safe: the service's worker threads store entries while the
    asyncio loop reads them.  Counters (:attr:`hits`, :attr:`misses`,
    :attr:`corrupt`, :attr:`stores`) feed the health endpoint and the CI
    smoke's "zero new simulation work on a duplicate submit" assertion.
    """

    def __init__(
        self, root: str | Path, *, fleet_dir: str | Path | None = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fleet_dir = Path(fleet_dir) if fleet_dir is not None else None
        if self.fleet_dir is not None:
            self.fleet_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        # fleet-tier counters (surfaced in stats() only in fleet mode)
        self.fleet_hits = 0
        self.fleet_stores = 0
        self.fleet_fenced = 0
        self.fleet_corrupt = 0
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.rcache"

    def fleet_path_for(self, key: str) -> Path:
        if self.fleet_dir is None:
            raise ValueError("cache has no fleet tier")
        return self.fleet_dir / f"{key}.rcache"

    # ------------------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached result for ``key``, or ``None`` on miss.

        A corrupt entry is renamed to ``<name>.corrupt`` (kept for
        forensics), counted, warned about, and reported as a miss — the
        degradation path is always "recompute", never "serve garbage".
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            result = self._fleet_get(key)
            if result is None:
                with self._lock:
                    self.misses += 1
            return result
        try:
            entry = self._decode(path, raw)
        except ValueError as exc:
            self._quarantine(path, exc)
            return self._fleet_get(key)
        if entry.get("key") != key:
            # Entry content does not match its address (renamed file?):
            # treat exactly like corruption.
            self._quarantine(path, ValueError(f"{path}: key mismatch"))
            return self._fleet_get(key)
        with self._lock:
            self.hits += 1
        return entry["result"]

    def _fleet_get(self, key: str) -> dict[str, Any] | None:
        """Shared-tier read: validate, count, and promote to the local
        tier (byte-for-byte, so the promoted copy carries the same CRC)."""
        if self.fleet_dir is None:
            return None
        path = self.fleet_path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            entry = self._decode(path, raw)
            if entry.get("key") != key:
                raise ValueError(f"{path}: key mismatch")
        except ValueError as exc:
            # A torn/corrupt shared entry is quarantined *in the shared
            # tier* so every host stops tripping over it; the publisher
            # slot reopens and the next owner republishes clean bytes.
            quarantine = path.with_name(path.name + ".corrupt")
            try:
                os.replace(path, quarantine)
                where = f"quarantined to {quarantine}"
            except OSError:
                where = "could not be quarantined"
            with self._lock:
                self.fleet_corrupt += 1
            warnings.warn(
                f"ignoring corrupt fleet cache entry ({exc}); {where}; "
                f"recomputing",
                stacklevel=3,
            )
            return None
        with self._lock:
            self.fleet_hits += 1
        try:
            with atomic_write(self.path_for(key), "wb") as fh:
                fh.write(raw)
        except OSError:
            pass  # promotion is an optimisation, never load-bearing
        return entry["result"]

    def put(self, key: str, result: dict[str, Any],
            meta: dict[str, Any] | None = None, *,
            fence: Callable[[], bool] | None = None) -> Path:
        """Store ``result`` under ``key`` atomically; returns the path.

        In fleet mode the entry is also published to the shared tier —
        but only if ``fence`` (when given) still approves: a stale owner
        whose claim was reclaimed is counted in :attr:`fleet_fenced` and
        its bytes never leave the host.  Losing the exclusive-publish
        race to a peer is silent by design (deterministic bytes).
        """
        entry = {
            "key": key,
            "meta": dict(meta or {}),
            "result": result,
        }
        payload = json.dumps(entry, sort_keys=True).encode("utf-8")
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        # Chaos site: mangling the payload *after* the CRC models a torn
        # write — the next read must quarantine the entry, not serve it.
        payload = failpoints.mangle("cache.write.torn", payload, key=key)
        path = self.path_for(key)
        with atomic_write(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(_HEADER.pack(CACHE_VERSION, crc))
            fh.write(payload)
        with self._lock:
            self.stores += 1
        if self.fleet_dir is not None:
            self._fleet_publish(key, entry, fence)
        return path

    def _fleet_publish(
        self,
        key: str,
        entry: dict[str, Any],
        fence: Callable[[], bool] | None,
    ) -> None:
        payload = json.dumps(entry, sort_keys=True).encode("utf-8")
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        # Chaos site: a torn *shared* publish.  CRC is computed first, so
        # the mangled entry is detectable by every reader and quarantined
        # fleet-wide rather than served.
        payload = failpoints.mangle("fleet.publish.torn", payload, key=key)
        # The fence check sits as close to the publish as possible: after
        # it passes, the only remaining race is against a *legitimate*
        # owner publishing the same deterministic bytes, and the
        # exclusive link lets exactly one of those land.
        if fence is not None and not fence():
            with self._lock:
                self.fleet_fenced += 1
            return
        blob = CACHE_MAGIC + _HEADER.pack(CACHE_VERSION, crc) + payload
        if atomic_publish(self.fleet_path_for(key), blob):
            with self._lock:
                self.fleet_stores += 1

    def __contains__(self, key: str) -> bool:
        if self.path_for(key).is_file():
            return True
        return (
            self.fleet_dir is not None
            and self.fleet_path_for(key).is_file()
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.rcache"))

    def counters(self) -> dict[str, int]:
        """The event counters (local and fleet tier) as one dict."""
        with self._lock:
            return {name: getattr(self, name) for name in _COUNTERS}

    def add_counters(self, counts: dict[str, int]) -> None:
        """Fold in counter deltas another process made against the same
        directories — a worker child's lookups and stores."""
        with self._lock:
            for name, n in counts.items():
                if name in _COUNTERS:
                    setattr(self, name, getattr(self, name) + n)

    def stats(self) -> dict[str, int]:
        with self._lock:
            out = {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "stores": self.stores,
                "entries": len(self),
            }
            if self.fleet_dir is not None:
                out["fleet_hits"] = self.fleet_hits
                out["fleet_stores"] = self.fleet_stores
                out["fleet_fenced"] = self.fleet_fenced
                out["fleet_corrupt"] = self.fleet_corrupt
                out["fleet_entries"] = sum(
                    1 for _ in self.fleet_dir.glob("*.rcache")
                )
        return out

    # ------------------------------------------------------------------

    @staticmethod
    def _decode(path: Path, raw: bytes) -> dict[str, Any]:
        header_len = len(CACHE_MAGIC) + _HEADER.size
        if len(raw) < header_len:
            raise ValueError(
                f"{path}: truncated cache entry "
                f"({len(raw)} bytes, header needs {header_len})"
            )
        if raw[: len(CACHE_MAGIC)] != CACHE_MAGIC:
            raise ValueError(
                f"{path}: not a cache entry (magic "
                f"{raw[:len(CACHE_MAGIC)]!r}, expected {CACHE_MAGIC!r})"
            )
        version, crc = _HEADER.unpack_from(raw, len(CACHE_MAGIC))
        if version != CACHE_VERSION:
            raise ValueError(
                f"{path}: unsupported cache entry version {version} "
                f"(this build reads version {CACHE_VERSION})"
            )
        payload = raw[header_len:]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ValueError(f"{path}: checksum mismatch (corrupt payload)")
        try:
            entry = json.loads(payload)
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable payload: {exc}") from exc
        if not isinstance(entry, dict) or "result" not in entry:
            raise ValueError(f"{path}: payload is not a cache entry")
        return entry

    def _quarantine(self, path: Path, exc: Exception) -> None:
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
            where = f"quarantined to {quarantine}"
        except OSError:
            where = "could not be quarantined"
        with self._lock:
            self.corrupt += 1
            self.misses += 1
        warnings.warn(
            f"ignoring corrupt cache entry ({exc}); {where}; recomputing",
            stacklevel=3,
        )
