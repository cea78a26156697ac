"""Content-addressed result cache for deterministic sessions.

A session is a pure function of its
:class:`~repro.pipeline.spec.SessionSpec`: the whole simulation stack
is seeded, the pooled and serial batch paths are pinned byte-identical,
and checkpoint/resume replays to the same digest.  That determinism is
worth money — a 32-session batch costs ~20 s of wall clock, and sweeps,
tournaments and CI replays keep asking questions whose answers have
not changed.  This module stores those answers.

Key derivation
--------------
An entry's key is::

    sha256(canonical_spec_json
           + "\\n" + schema_rev        # repro-session/1 by default
           + "\\n" + code_salt         # CODE_REV_SALT, bumped manually
           + "\\n" + payload_kind)     # "entry" vs "entry+events"

* ``canonical_spec_json`` is :meth:`SessionSpec.canonical_json` —
  sorted keys, no indent, Nones omitted — so two equal specs always
  share a key.
* ``schema_rev`` ties entries to the spec schema: a ``repro-session/2``
  world never reads ``repro-session/1`` answers.
* ``code_salt`` is the manual escape hatch: any PR that changes
  simulation *output* for an unchanged spec must bump
  :data:`CODE_REV_SALT`, which orphans every existing entry at once.
* ``payload_kind`` separates plain summaries from summaries carrying a
  captured telemetry event stream (``run_batch(stream_path=...)``) —
  the two payload shapes must never alias.

The full invalidation matrix — including what the key deliberately
does **not** cover — lives in ``docs/caching.md``.

What is refused
---------------
:meth:`ResultCache.key_for` returns ``None`` (and counts
``cache.uncacheable``) for sessions whose output is not a pure
function of the spec bytes:

* trace-replay workloads (``trace:<path>`` apps): the trace *file's*
  content decides the result, and the key only covers its path;
* sessions with a ``telemetry.jsonl_path`` sink: serving a hit would
  silently skip writing the side-effect stream;
* configs the spec codec cannot round-trip losslessly (exotic live
  objects — the same rule the batch wire format applies).

Durability and concurrency
--------------------------
Entries are **write-once**: the payload lands in a temp file (fsynced,
same directory) and is then hard-linked to its final name.  The first
writer wins; a concurrent loser sees ``FileExistsError``, discards its
temp file and counts ``cache.store_races``.  A reader can therefore
never observe a torn entry — it sees the old world or a complete new
entry, nothing in between.  Corrupt or truncated entries (disk damage,
a meddling human) are detected at read time, counted, deleted and
treated as misses: the cache recomputes, never crashes and never
serves garbage.

Stats are counted in a :class:`~repro.telemetry.metrics.MetricsRegistry`
(``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
``cache.store_races`` / ``cache.corrupt_entries`` /
``cache.evictions`` / ``cache.uncacheable``), so a service configured
with a cache exposes them live through the Prometheus endpoint, and
:meth:`ResultCache.write_index` folds them into a persistent
``index.json`` whose totals survive across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .errors import ConfigurationError
from .ioutil import atomic_write_json, ensure_directory
from .pipeline.spec import SPEC_SCHEMA, SessionSpec
from .telemetry.metrics import MetricsRegistry

PathLike = Union[str, pathlib.Path]

#: Entry document schema; bump on layout changes (old entries orphan).
CACHE_SCHEMA = "repro-cache/1"

#: Index document schema.
INDEX_SCHEMA = "repro-cache-index/1"

#: Manual code-revision salt.  Bump this in any PR that changes what a
#: session *computes* for an unchanged spec (new power model terms,
#: governor behaviour fixes, summary fields, ...), which invalidates
#: every existing cache entry at once.  Structural spec changes are
#: covered separately by the ``repro-session`` schema rev.
CODE_REV_SALT = "2026-10-18.1"

#: Stat counter names (all plain counters in the metrics registry).
STAT_NAMES = ("cache.hits", "cache.misses", "cache.stores",
              "cache.store_races", "cache.corrupt_entries",
              "cache.evictions", "cache.uncacheable")


def cache_key(spec: SessionSpec, *, capture: bool = False,
              schema_rev: str = SPEC_SCHEMA,
              code_salt: str = CODE_REV_SALT) -> str:
    """The content-addressed key of one spec (hex sha256).

    Pure function of its arguments; see the module docstring for what
    each component invalidates.  ``capture`` selects the payload kind:
    a summary-only entry and a summary-plus-events entry never alias.
    """
    kind = "entry+events" if capture else "entry"
    material = "\n".join((spec.canonical_json(), schema_rev,
                          code_salt, kind))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _spec_is_cacheable(spec: SessionSpec) -> bool:
    """Spec-level purity check (trace workloads, side-effect sinks)."""
    app = spec.app
    if isinstance(app, str) and app.startswith("trace:"):
        return False
    if isinstance(app, Mapping) and app.get("type") == "trace":
        return False
    telemetry = spec.telemetry
    if isinstance(telemetry, Mapping) and telemetry.get("jsonl_path"):
        return False
    return True


class ResultCache:
    """A write-once, content-addressed store of session results.

    Layout under ``root``::

        index.json              # schema, rev/salt, running stat totals
        objects/<k[:2]>/<key>.json

    One payload per key; payloads are the batch runner's wire form
    (``{"entry": <summary dict>, "events": [...]}``).  Construct one
    per sweep/batch/service; instances are cheap and hold no open
    files.  Not thread-safe for *stats* (counters are plain ints), but
    entry reads/writes are safe under full process concurrency — the
    write-once link is the synchronization.
    """

    def __init__(self, root: PathLike, *,
                 schema_rev: str = SPEC_SCHEMA,
                 code_salt: str = CODE_REV_SALT,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if not schema_rev or not code_salt:
            raise ConfigurationError(
                "cache schema_rev and code_salt must be non-empty")
        self.root = pathlib.Path(root)
        self.schema_rev = schema_rev
        self.code_salt = code_salt
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._flushed: Dict[str, int] = {name: 0
                                         for name in STAT_NAMES}
        ensure_directory(self.objects_dir)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> pathlib.Path:
        return self.root / "objects"

    @property
    def index_path(self) -> pathlib.Path:
        return self.root / "index.json"

    def entry_path(self, key: str) -> pathlib.Path:
        """Where the entry for ``key`` lives (may not exist)."""
        return self.objects_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_for(self, config: Any, *,
                capture: bool = False) -> Optional[str]:
        """The cache key of a live config, or None when uncacheable.

        Mirrors the batch wire format's losslessness rule: a config
        the spec codec cannot round-trip exactly is not addressable by
        its spec bytes, so it cannot be cached either.
        """
        try:
            spec = SessionSpec.from_config(config)
            if spec.to_config() != config:
                raise ValueError("spec round trip is lossy")
        except Exception:  # noqa: BLE001 - any failure means "run it"
            self._count("cache.uncacheable")
            return None
        return self.key_for_spec(spec, capture=capture)

    def key_for_spec(self, spec: SessionSpec, *,
                     capture: bool = False) -> Optional[str]:
        """The cache key of a spec, or None when uncacheable."""
        if not _spec_is_cacheable(spec):
            self._count("cache.uncacheable")
            return None
        return cache_key(spec, capture=capture,
                         schema_rev=self.schema_rev,
                         code_salt=self.code_salt)

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or None (a miss).

        A present-but-unusable entry (truncated write by a meddler,
        bit rot, wrong schema, key mismatch from a renamed file) is
        counted as ``cache.corrupt_entries``, deleted, and reported as
        a miss — the caller recomputes and the bad entry is gone.
        """
        path = self.entry_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._count("cache.misses")
            return None
        except OSError:
            self._count("cache.misses")
            return None
        payload = self._decode_entry(text, key)
        if payload is None:
            self._count("cache.corrupt_entries")
            path.unlink(missing_ok=True)
            self._count("cache.misses")
            return None
        self._count("cache.hits")
        return payload

    def _decode_entry(self, text: str,
                      key: str) -> Optional[Dict[str, Any]]:
        try:
            document = json.loads(text)
        except ValueError:
            return None
        if not isinstance(document, dict):
            return None
        if document.get("schema") != CACHE_SCHEMA:
            return None
        if document.get("key") != key:
            return None
        payload = document.get("payload")
        if not isinstance(payload, dict) or "entry" not in payload:
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> bool:
        """Store ``payload`` under ``key``; first writer wins.

        Returns True when this call created the entry, False when one
        already existed (including losing a concurrent race — counted
        as ``cache.store_races``).  The entry serializes with
        ``allow_nan=True`` deliberately: summaries can legitimately
        carry ``inf`` (``metering_error`` on contentless sessions) and
        the cache must hand back *exactly* what was stored.
        """
        path = self.entry_path(key)
        if path.exists():
            self._count("cache.store_races")
            return False
        document = {"schema": CACHE_SCHEMA, "key": key,
                    "payload": payload}
        text = json.dumps(document, sort_keys=True) + "\n"
        directory = ensure_directory(path.parent)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=directory)
        tmp_path = pathlib.Path(tmp_name)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            try:
                os.link(tmp_path, path)
            except FileExistsError:
                self._count("cache.store_races")
                return False
            except OSError:
                # Filesystem without hard links: fall back to the
                # atomic rename.  Racing writers hold byte-identical
                # payloads (the store is content-addressed over a
                # deterministic function), so replace is still safe.
                if path.exists():
                    self._count("cache.store_races")
                    return False
                os.replace(tmp_path, path)
                self._count("cache.stores")
                return True
        finally:
            tmp_path.unlink(missing_ok=True)
        self._count("cache.stores")
        return True

    # ------------------------------------------------------------------
    # Stats, index, eviction
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def stats_dict(self) -> Dict[str, int]:
        """This instance's stat counters, flat (short names)."""
        counters = self.metrics.as_dict()["counters"]
        return {name.split(".", 1)[1]: int(counters.get(name, 0))
                for name in STAT_NAMES}

    def entry_count(self) -> int:
        """Entries currently on disk."""
        return sum(1 for _ in self.objects_dir.glob("*/*.json"))

    def write_index(self) -> pathlib.Path:
        """Fold this instance's stats into the persistent index.

        Read-modify-write of ``index.json`` (atomic): running totals
        accumulate across runs, last-writer-wins under concurrency —
        the index is bookkeeping, never a correctness input.  Only the
        counts accumulated since the previous ``write_index`` call are
        folded in, so calling it repeatedly never double-counts.
        """
        existing = read_index(self.root)
        totals = {name.split(".", 1)[1]: 0 for name in STAT_NAMES}
        if existing is not None and \
                isinstance(existing.get("totals"), dict):
            for name, value in existing["totals"].items():
                if name in totals:
                    try:
                        totals[name] = int(value)
                    except (TypeError, ValueError):
                        pass
        counters = self.metrics.as_dict()["counters"]
        for name in STAT_NAMES:
            current = int(counters.get(name, 0))
            totals[name.split(".", 1)[1]] += \
                current - self._flushed[name]
            self._flushed[name] = current
        document = {
            "schema": INDEX_SCHEMA,
            "cache_schema": CACHE_SCHEMA,
            "spec_schema_rev": self.schema_rev,
            "code_salt": self.code_salt,
            "entries": self.entry_count(),
            "totals": totals,
        }
        return atomic_write_json(self.index_path, document)

    def prune(self, max_entries: int) -> int:
        """Evict oldest entries (by mtime, then name) beyond a cap.

        Returns how many entries were evicted (counted as
        ``cache.evictions``).  Eviction is safe at any time: a
        concurrent reader of an evicted entry simply misses and
        recomputes.
        """
        if max_entries < 0:
            raise ConfigurationError(
                f"max_entries must be >= 0, got {max_entries}")
        entries = []
        for path in self.objects_dir.glob("*/*.json"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, path.name, path))
        entries.sort()
        excess = len(entries) - max_entries
        evicted = 0
        for _, _, path in entries[:max(0, excess)]:
            try:
                path.unlink()
            except OSError:
                continue
            evicted += 1
        if evicted:
            self._count("cache.evictions", evicted)
        return evicted


def read_index(root: PathLike) -> Optional[Dict[str, Any]]:
    """The persistent index document, or None (missing/unreadable).

    Tolerant by design: the index is bookkeeping, and a damaged one
    must never block cache use — it just resets the running totals.
    """
    path = pathlib.Path(root) / "index.json"
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or \
            document.get("schema") != INDEX_SCHEMA:
        return None
    return document


def hit_rate(stats: Mapping[str, int]) -> Tuple[int, int, float]:
    """``(hits, lookups, fraction)`` from a :meth:`stats_dict` dict."""
    hits = int(stats.get("hits", 0))
    lookups = hits + int(stats.get("misses", 0))
    return hits, lookups, (hits / lookups if lookups else 0.0)
