"""Sharded, atomically-written on-disk result cache.

Layout (one directory per schema version, 256 shards per version)::

    <root>/
        v8/
            index.json          # manifest snapshot (write_manifest)
            3f/
                <key>.json      # one sweep point, shard = sha1(key)[:2]
            a0/
                ...
            provenance/
                3f/
                    <key>.json  # who produced the entry (sidecar; the
                                # manifest folds these into its rows)

Properties the sweep executor relies on:

* **atomic writes** — entries are written to a ``.tmp-*`` file in the
  final shard directory and published with :func:`os.replace`, so readers
  (including concurrent pool workers) never observe a truncated blob and
  two writers racing on the same key leave one complete entry;
* **corrupt-entry recovery** — :meth:`ResultCache.get` deletes and
  reports a miss for entries that fail to parse (e.g. a pre-fix truncated
  write, or a crash mid-``json.dump`` on a non-atomic cache), so one bad
  blob costs a resimulation instead of crashing every later load;
* **version isolation** — bumping the schema version simply selects a
  different subdirectory; stale versions are reclaimed by :meth:`prune`.

Files outside the ``v<N>/`` directories are not the cache's: nothing
here reads, counts or deletes them.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from ..sim.config import stable_digest

#: manifest file name inside each version directory
MANIFEST_NAME = "index.json"

#: per-entry provenance sidecars live under this version subdirectory
PROVENANCE_DIR = "provenance"

_TMP_PREFIX = ".tmp-"


def shard_of(key: str) -> str:
    """Two-hex-digit shard of a cache key (256-way fanout)."""
    return stable_digest(key)[:2]


def atomic_write(path: str, data: bytes) -> str:
    """Atomically publish ``data`` at ``path`` (tmp file + ``os.replace``).

    The single implementation of the harness's write discipline: readers
    (including concurrent sweep workers) never observe a truncated file,
    and two writers racing on one path leave one complete copy.  The
    parent directory is created if needed; the tmp file is unlinked on
    any failure.
    """
    target_dir = os.path.dirname(path)
    os.makedirs(target_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target_dir, prefix=_TMP_PREFIX, suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


@dataclass
class CacheStats:
    """Aggregate cache statistics (``repro-cmp cache stats``)."""

    root: str
    current_version: int
    #: version -> (entry count, total bytes)
    versions: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def entries(self) -> int:
        """Entry count of the current version."""
        return self.versions.get(self.current_version, (0, 0))[0]

    @property
    def total_bytes(self) -> int:
        """Bytes across every version."""
        return sum(b for _, b in self.versions.values())

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"cache {self.root} (current v{self.current_version})"]
        for ver in sorted(self.versions):
            n, b = self.versions[ver]
            mark = "*" if ver == self.current_version else " "
            lines.append(f"  {mark} v{ver}: {n} entries, {b / 1e6:.2f} MB")
        if not self.versions:
            lines.append("    (empty)")
        return "\n".join(lines)


@dataclass
class PruneReport:
    """What :meth:`ResultCache.prune` removed."""

    stale_versions: int = 0
    stale_entries: int = 0
    corrupt_entries: int = 0
    tmp_files: int = 0

    @property
    def removed(self) -> int:
        """Total files/entries removed."""
        return self.stale_entries + self.corrupt_entries + self.tmp_files

    def render(self) -> str:
        """One-line summary."""
        return (
            f"pruned {self.removed} files: {self.stale_versions} stale "
            f"version dirs ({self.stale_entries} entries), "
            f"{self.corrupt_entries} corrupt, {self.tmp_files} tmp"
        )


@dataclass
class MergeReport:
    """What :meth:`ResultCache.import_entries` did with one source cache."""

    source: str
    imported: int = 0
    identical: int = 0
    conflicts: int = 0
    stale_manifest: int = 0
    corrupt: int = 0
    excluded: int = 0

    @property
    def examined(self) -> int:
        """Source entries whose blobs were actually compared or copied."""
        return self.imported + self.identical + self.conflicts

    def render(self) -> str:
        """One-line summary (``repro-cmp cache merge``)."""
        text = (
            f"merged {self.source}: {self.imported} imported, "
            f"{self.identical} identical, {self.conflicts} conflicts kept "
            f"local, {self.stale_manifest} stale manifest rows, "
            f"{self.corrupt} corrupt skipped"
        )
        if self.excluded:
            text += f", {self.excluded} previously merged"
        return text


class ResultCache:
    """Sharded JSON blob store keyed by sweep-point cache keys."""

    def __init__(self, root: str, version: int) -> None:
        self.root = root
        self.version = int(version)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def version_dir(self, version: Optional[int] = None) -> str:
        """Directory of one schema version."""
        return os.path.join(
            self.root, f"v{self.version if version is None else version}"
        )

    def path_for(self, key: str) -> str:
        """Entry path of ``key`` in the current version."""
        return os.path.join(self.version_dir(), shard_of(key), key + ".json")

    def provenance_path(self, key: str) -> str:
        """Provenance-sidecar path of ``key`` in the current version."""
        return os.path.join(
            self.version_dir(), PROVENANCE_DIR, shard_of(key), key + ".json"
        )

    # ------------------------------------------------------------------
    # Entry I/O
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Load an entry; ``None`` on miss.  Corrupt entries are deleted."""
        path = self.path_for(key)
        try:
            with open(path) as fh:
                blob = json.load(fh)
        except OSError:
            # transient I/O failure (or plain miss): the entry may be
            # perfectly valid, so report a miss without deleting it
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self.invalidate(key)
            return None
        if not isinstance(blob, dict):
            self.invalidate(key)
            return None
        return blob

    def put(self, key: str, blob: dict) -> str:
        """Atomically write an entry (tmp file + ``os.replace``)."""
        return self.put_bytes(key, json.dumps(blob).encode("utf-8"))

    def put_bytes(self, key: str, data: bytes) -> str:
        """Atomically write an entry's raw serialized bytes.

        The shard-import path uses this instead of :meth:`put` so merged
        entries stay byte-for-byte identical to what the source worker
        wrote — re-encoding could mask a producer that serializes
        differently.
        """
        return atomic_write(self.path_for(key), data)

    def read_bytes(self, key: str) -> Optional[bytes]:
        """Raw serialized bytes of an entry; ``None`` on miss."""
        try:
            with open(self.path_for(key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def put_provenance(self, key: str, info: dict) -> str:
        """Atomically record who produced an entry (worker/host/backend).

        Provenance lives in a *sidecar* file, never inside the entry
        blob — result blobs stay byte-identical across workers, hosts
        and wall-clock time, which is the property every bit-identity
        test and byte-for-byte merge relies on.  The manifest
        (:meth:`write_manifest`) folds the sidecars into its rows.
        """
        return atomic_write(
            self.provenance_path(key),
            json.dumps(info, sort_keys=True).encode("utf-8"),
        )

    def get_provenance(self, key: str) -> Optional[dict]:
        """Load one entry's provenance record; ``None`` when absent."""
        try:
            with open(self.provenance_path(key)) as fh:
                info = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return info if isinstance(info, dict) else None

    def invalidate(self, key: str) -> bool:
        """Delete one entry (and its provenance); True if it existed."""
        try:
            os.unlink(self.provenance_path(key))
        except OSError:
            pass
        try:
            os.unlink(self.path_for(key))
            return True
        except OSError:
            return False

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    # ------------------------------------------------------------------
    # Maintenance API
    # ------------------------------------------------------------------
    def iter_entries(
        self, version: Optional[int] = None
    ) -> Iterator[Tuple[str, str]]:
        """Yield ``(key, path)`` for every entry of one version."""
        vdir = self.version_dir(version)
        try:
            shards = sorted(os.listdir(vdir))
        except OSError:
            return
        for shard in shards:
            if shard == PROVENANCE_DIR:
                continue
            shard_dir = os.path.join(vdir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.startswith(_TMP_PREFIX) or not name.endswith(".json"):
                    continue
                yield name[: -len(".json")], os.path.join(shard_dir, name)

    def versions_present(self) -> Dict[int, str]:
        """Schema versions on disk, as ``version -> directory``."""
        out: Dict[int, str] = {}
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in names:
            path = os.path.join(self.root, name)
            if name.startswith("v") and name[1:].isdigit() and os.path.isdir(path):
                out[int(name[1:])] = path
        return out

    def stats(self) -> CacheStats:
        """Entry counts and sizes per version."""
        st = CacheStats(root=self.root, current_version=self.version)
        for ver in self.versions_present():
            count = size = 0
            for _, path in self.iter_entries(ver):
                count += 1
                try:
                    size += os.path.getsize(path)
                except OSError:
                    pass
            st.versions[ver] = (count, size)
        return st

    def prune(self) -> PruneReport:
        """Reclaim disk: stale versions, tmp files and corrupt entries.

        Every current-version entry is parsed; the ones that fail to
        load are deleted.
        """
        report = PruneReport()
        for ver, vdir in self.versions_present().items():
            if ver == self.version:
                continue
            report.stale_entries += sum(1 for _ in self.iter_entries(ver))
            shutil.rmtree(vdir, ignore_errors=True)
            report.stale_versions += 1
        vdir = self.version_dir()
        if os.path.isdir(vdir):
            for dirpath, _, names in os.walk(vdir):
                for name in names:
                    if name.startswith(_TMP_PREFIX):
                        os.unlink(os.path.join(dirpath, name))
                        report.tmp_files += 1
        for key, path in list(self.iter_entries()):
            try:
                with open(path) as fh:
                    json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                os.unlink(path)
                report.corrupt_entries += 1
        return report

    def build_manifest(self) -> dict:
        """A fresh, read-only manifest of what is on disk *right now*.

        Every row is re-verified against its blob file: a key whose blob
        vanished between the directory listing and the stat — or that
        survives only as a provenance sidecar after
        :meth:`invalidate`/:meth:`prune` — is dropped, never listed.
        The invariant consumers rely on: every key in the returned
        manifest had a blob :meth:`read_bytes` could read at build time
        (so a serving layer never advertises an entry it cannot serve).
        """
        entries = {}
        for key, path in self.iter_entries():
            try:
                row = {
                    "bytes": os.path.getsize(path),
                    "shard": shard_of(key),
                }
            except OSError:
                continue  # blob vanished since listing: drop, don't 404 later
            prov = self.get_provenance(key)
            if prov is not None:
                row["provenance"] = prov
            entries[key] = row
        return {
            "version": self.version,
            "count": len(entries),
            "entries": entries,
        }

    def write_manifest(self) -> str:
        """Write an atomic ``index.json`` snapshot of the current version.

        The written manifest is a convenience for humans and external
        tooling (sync scripts, CI artifact diffing); lookups never
        consult it, so a stale manifest can never serve stale results —
        and readers that must be fresh (the HTTP ``/v1/manifest``
        endpoint) call :meth:`build_manifest` directly instead of
        trusting a possibly-stale ``index.json``.
        """
        manifest = self.build_manifest()
        return atomic_write(
            os.path.join(self.version_dir(), MANIFEST_NAME),
            json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8"),
        )

    def read_manifest(self) -> Optional[dict]:
        """Load the manifest snapshot; ``None`` when absent/corrupt."""
        path = os.path.join(self.version_dir(), MANIFEST_NAME)
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    # ------------------------------------------------------------------
    # Multi-host sync
    # ------------------------------------------------------------------
    def import_entries(
        self,
        source: Union["ResultCache", str],
        exclude: Iterable[str] = (),
    ) -> MergeReport:
        """Merge another cache's current-version entries into this one.

        The source is another cache root (e.g. a batch worker's shard,
        or a ``.repro_cache`` rsynced from a different host).  The shard
        directories are walked and the manifest's key list is unioned
        in — so entries written *after*
        the manifest snapshot are still merged, while manifest rows whose
        blob is missing on disk are counted as ``stale_manifest`` (a
        worker died between write and sync) instead of failing.

        Entries are copied byte-for-byte (:meth:`put_bytes`).  A key that
        already exists locally with identical bytes is counted and
        skipped; differing bytes are a **conflict** — the local entry
        wins, because two deterministic runs of one schema version can
        only disagree when something is wrong, and the count surfaces
        that for auditing.  Source blobs that fail to parse are skipped
        as ``corrupt``, never imported.

        ``exclude`` names keys to skip without any I/O (counted as
        ``excluded``) — pollers that repeatedly merge a still-growing
        shard pass the keys they already settled so steady-state polls
        cost one directory listing, not a byte comparison per entry.
        """
        src = (
            source
            if isinstance(source, ResultCache)
            else ResultCache(source, self.version)
        )
        report = MergeReport(source=src.root)
        skip = set(exclude)
        paths: Dict[str, str] = dict(src.iter_entries())
        manifest = src.read_manifest()
        if manifest is not None and isinstance(manifest.get("entries"), dict):
            for key in manifest["entries"]:
                paths.setdefault(key, src.path_for(key))
        for key in sorted(paths):
            path = paths[key]
            if key in skip:
                report.excluded += 1
                continue
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                report.stale_manifest += 1
                continue
            try:
                blob = json.loads(data)
            except (json.JSONDecodeError, UnicodeDecodeError):
                report.corrupt += 1
                continue
            if not isinstance(blob, dict):
                report.corrupt += 1
                continue
            ours = self.read_bytes(key)
            if ours is None:
                self.put_bytes(key, data)
                report.imported += 1
            elif ours == data:
                report.identical += 1
            else:
                report.conflicts += 1
                continue
            # carry the producer's provenance sidecar along with its
            # entry (local records win; conflicts keep local everything)
            if self.get_provenance(key) is None:
                prov = src.get_provenance(key)
                if prov is not None:
                    self.put_provenance(key, prov)
        return report
