"""Content-addressed, on-disk artifact store.

Artifacts (schedules, study rows) are JSON envelopes keyed by the SHA-256
of a canonical *request* — the complete structural identity of what was
computed: graph fingerprint × machine description × scheduler × options.
Identical requests therefore land on the same key no matter which
process, worker or server run produced them, which is what lets a
restarted server serve warm results without rescheduling.

Layout on disk (one file per artifact, fanned out **two levels** by key
prefix so no directory ever holds more than a few hundred entries even
with millions of artifacts)::

    <root>/
      objects/
        ab/
          cd/
            abcd12…ef.json  # {"schema": 1, "kind": …, "key": …,
                            #  "request": …, "payload": …}

This is the only layout: a read is one ``open()`` of the sharded path
(a miss is that ``open()`` failing), and a write produces exactly that
file.

Envelopes carry a schema version and an ``integrity`` digest (SHA-256
of the canonical envelope minus the digest itself), verified on every
read.  A file that is torn, fails its digest, or declares a schema this
code does not understand is **quarantined** — atomically moved to
``<root>/quarantine/`` (never silently deleted: it is evidence) — and
the read counts as a miss, so the request falls through to a fresh
compute.  Envelopes written before the digest existed verify trivially
(no declared digest, nothing to check).  Writes are atomic (temp file +
``os.replace``), so concurrent workers racing on the same key are
harmless — both write the same bits.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ArtifactError
from repro.obs import trace
from repro.service import faults

logger = logging.getLogger(__name__)

#: Envelope schema written by this version of the store.
STORE_SCHEMA = 1


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing requests (sorted keys,
    no whitespace; tuples collapse onto lists)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def request_key(request: dict) -> str:
    """The content address (SHA-256 hex) of a canonical request dict."""
    return hashlib.sha256(canonical_json(request).encode("utf-8")).hexdigest()


def envelope_integrity(envelope: dict) -> str:
    """The integrity digest of *envelope*: SHA-256 over its canonical
    JSON with the ``integrity`` field itself removed."""
    core = {k: v for k, v in envelope.items() if k != "integrity"}
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Hit/miss accounting since the store object was created."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Corrupt/unsupported envelopes moved to ``quarantine/``.
    quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ArtifactStore:
    """A durable map from request keys to JSON artifact envelopes."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._quarantine_dir = self.root / "quarantine"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._stats = StoreStats()
        #: Optional :class:`repro.obs.events.EventLog`; the service
        #: installs one so quarantines land in the audit journal.
        self.events: Any = None

    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        """The canonical (two-level sharded) location of *key*."""
        if len(key) < 4 or any(c not in "0123456789abcdef" for c in key):
            raise ArtifactError(f"malformed artifact key {key!r}")
        return self._objects / key[:2] / key[2:4] / f"{key}.json"

    def key_for(self, request: dict) -> str:
        """Content address of *request* (alias of :func:`request_key`)."""
        return request_key(request)

    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Atomically move a bad envelope to ``quarantine/`` (evidence,
        not garbage); best-effort — losing the race to a concurrent
        reader or a re-put is fine."""
        self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self._quarantine_dir / f"{key}.json"
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = self._quarantine_dir / f"{key}.{suffix}.json"
        try:
            os.replace(path, dest)
        except OSError:
            return
        with self._lock:
            self._stats.quarantined += 1
        logger.warning(
            "quarantined artifact %s (%s) -> %s", key, reason, dest
        )
        if self.events is not None:
            self.events.emit(
                "store.quarantined",
                key=key,
                reason=reason,
                dest=str(dest),
            )

    def get(self, key: str) -> dict | None:
        """The envelope stored under *key*, or ``None`` on a miss.

        Every read is verified: unparseable JSON, a failed ``integrity``
        digest, a non-dict envelope, or a schema newer than this code
        understands moves the file to ``quarantine/`` and counts as a
        miss (the caller recomputes).
        """
        if trace.ACTIVE is None:
            return self._get(key)
        with trace.span("store.get", key=key[:12]) as tspan:
            envelope = self._get(key)
            if tspan is not None:
                tspan.attrs["hit"] = envelope is not None
            return envelope

    def _get(self, key: str) -> dict | None:
        path = self._path_for(key)
        try:
            if faults.ACTIVE is not None and faults.ACTIVE.should_fire(
                "store.get.io"
            ):
                raise OSError(f"injected I/O fault reading {key}")
            text = path.read_text(encoding="utf-8")
        except OSError:
            with self._lock:
                self._stats.misses += 1
            return None
        try:
            envelope = json.loads(text)
            if not isinstance(envelope, dict):
                raise json.JSONDecodeError("not an object", text, 0)
        except json.JSONDecodeError:
            self._quarantine(path, key, "unparseable envelope")
            with self._lock:
                self._stats.misses += 1
            return None
        schema = envelope.get("schema", STORE_SCHEMA)
        if not isinstance(schema, int) or schema > STORE_SCHEMA:
            self._quarantine(path, key, f"unsupported schema {schema!r}")
            with self._lock:
                self._stats.misses += 1
            return None
        declared = envelope.get("integrity")
        if declared is not None and declared != envelope_integrity(envelope):
            self._quarantine(path, key, "integrity digest mismatch")
            with self._lock:
                self._stats.misses += 1
            return None
        with self._lock:
            self._stats.hits += 1
        return envelope

    def put(self, key: str, kind: str, request: dict, payload: dict) -> dict:
        """Store *payload* under *key* and return the written envelope.

        The envelope carries an ``integrity`` digest over its canonical
        form so a later read can prove the bytes are the ones written."""
        if trace.ACTIVE is None:
            return self._put(key, kind, request, payload)
        with trace.span("store.put", key=key[:12], kind=kind):
            return self._put(key, kind, request, payload)

    def _put(self, key: str, kind: str, request: dict, payload: dict) -> dict:
        envelope = {
            "schema": STORE_SCHEMA,
            "kind": kind,
            "key": key,
            "request": request,
            "payload": payload,
        }
        envelope["integrity"] = envelope_integrity(envelope)
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        if faults.ACTIVE is not None:
            if faults.ACTIVE.should_fire("store.put.io"):
                raise OSError(f"injected I/O fault writing {key}")
            rule = faults.ACTIVE.should_fire("store.put.torn")
            if rule is not None:
                # Write real corruption to disk (the returned in-memory
                # envelope stays good — exactly what a torn write does).
                text = faults.mangle(
                    text, faults.ACTIVE.point_rng("store.put.torn")
                )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self._stats.writes += 1
        return envelope

    def delete(self, key: str) -> bool:
        """Remove *key*; ``True`` if it existed.  Real I/O failures
        (e.g. a read-only mount) propagate — only "already gone" is
        silent."""
        try:
            self._path_for(key).unlink()
        except FileNotFoundError:
            return False
        return True

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self._path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def iter_keys(self) -> Iterator[str]:
        """All stored artifact keys (unordered)."""
        for entry in sorted(self._objects.rglob("*.json")):
            if entry.name.startswith(".tmp-"):
                continue  # a torn concurrent write, not an artifact
            yield entry.stem

    def absorb(self, counts: dict[str, int]) -> None:
        """Add counter deltas that another store object over the same
        root recorded (a process-backend worker's, carried home in its
        result envelope) to this one's counters."""
        with self._lock:
            for name, amount in counts.items():
                setattr(self._stats, name, getattr(self._stats, name) + amount)

    def stats(self) -> StoreStats:
        """A copy of the hit/miss counters."""
        with self._lock:
            return StoreStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                writes=self._stats.writes,
                quarantined=self._stats.quarantined,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r})"


class _StudyCache:
    """The study runner's ``cache=`` mapping, persisted in the store.

    :func:`repro.experiments.stats.run_study` keys its cache with
    ``(graph_fingerprint, scheduler_names, machine_fingerprint)``
    tuples, stores ``(mii, {scheduler: StudyRow})`` values, and touches
    the cache only through :meth:`get` and item assignment.  This
    adapter persists those entries as ``"study-row"`` artifacts, so a
    warm store turns a whole Perfect-Club study into pure reads.  A
    torn or corrupt row is quarantined by the store and reads as a
    miss, so the runner recomputes it.
    """

    KIND = "study-row"

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store
        #: Deserialised entries this process already touched; repeated
        #: lookups of the same loop stay off the disk.
        self._memo: dict[tuple, tuple] = {}

    @staticmethod
    def _request(key: tuple) -> dict:
        return {"kind": _StudyCache.KIND, "study_key": key}

    def get(self, key: tuple):
        """The cached ``(mii, rows)`` for *key*, or ``None``."""
        if key in self._memo:
            return self._memo[key]
        envelope = self.store.get(request_key(self._request(key)))
        if envelope is None:
            return None
        from repro.experiments.stats import StudyRow

        payload = envelope["payload"]
        rows = {
            name: StudyRow(**row) for name, row in payload["rows"].items()
        }
        value = payload["mii"], rows
        self._memo[key] = value
        return value

    def __setitem__(self, key: tuple, value) -> None:
        mii, rows = value
        payload = {
            "mii": mii,
            "rows": {name: vars(row) for name, row in rows.items()},
        }
        request = self._request(key)
        self.store.put(request_key(request), self.KIND, request, payload)
        self._memo[key] = value


def persistent_study_cache(store: ArtifactStore | str | Path) -> _StudyCache:
    """A ``cache=`` argument for :func:`repro.experiments.stats.run_study`
    backed by the artifact store, so study rows survive across
    processes."""
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    return _StudyCache(store)
