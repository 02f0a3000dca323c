"""Sharded result cache: atomicity, corruption recovery, maintenance."""

import json
import multiprocessing
import os

import pytest

from repro.harness.result_cache import (
    MANIFEST_NAME,
    MergeReport,
    ResultCache,
    shard_of,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"), version=8)


class TestBasicIO:
    def test_roundtrip(self, cache):
        cache.put("k1", {"a": 1})
        assert cache.get("k1") == {"a": 1}
        assert "k1" in cache
        assert "k2" not in cache

    def test_miss(self, cache):
        assert cache.get("absent") is None

    def test_sharded_layout(self, cache):
        cache.put("k1", {"a": 1})
        path = cache.path_for("k1")
        assert os.path.exists(path)
        assert os.path.basename(os.path.dirname(path)) == shard_of("k1")
        assert f"v{cache.version}" in path

    def test_shard_is_hash_stable(self):
        # sharding must not depend on PYTHONHASHSEED (pool workers compute
        # shards independently of the parent process)
        import hashlib

        expected = hashlib.sha1(b"some-key").hexdigest()[:2]
        assert shard_of("some-key") == expected

    def test_put_leaves_no_tmp_files(self, cache):
        for i in range(10):
            cache.put(f"k{i}", {"i": i})
        for dirpath, _, names in os.walk(cache.root):
            assert not [n for n in names if n.startswith(".tmp-")]

    def test_invalidate(self, cache):
        cache.put("k1", {"a": 1})
        assert cache.invalidate("k1")
        assert cache.get("k1") is None
        assert not cache.invalidate("k1")


class TestCorruptionRecovery:
    def test_truncated_entry_is_dropped(self, cache):
        cache.put("k1", {"a": 1})
        path = cache.path_for("k1")
        with open(path, "w") as fh:
            fh.write('{"a": 1')  # the pre-fix interrupted-write shape
        assert cache.get("k1") is None
        assert not os.path.exists(path)
        # a later put works again
        cache.put("k1", {"a": 2})
        assert cache.get("k1") == {"a": 2}

    def test_non_dict_entry_is_dropped(self, cache):
        cache.put("k1", {"a": 1})
        with open(cache.path_for("k1"), "w") as fh:
            json.dump([1, 2, 3], fh)
        assert cache.get("k1") is None

    def test_prune_removes_corrupt(self, cache):
        cache.put("ok", {"a": 1})
        cache.put("bad", {"a": 1})
        with open(cache.path_for("bad"), "w") as fh:
            fh.write("not json")
        report = cache.prune()
        assert report.corrupt_entries == 1
        assert cache.get("ok") == {"a": 1}


class TestVersioning:
    def test_version_bump_invalidates(self, tmp_path):
        old = ResultCache(str(tmp_path), version=7)
        old.put("k1", {"a": 1})
        new = ResultCache(str(tmp_path), version=8)
        assert new.get("k1") is None
        # the old entry is untouched until pruned
        assert old.get("k1") == {"a": 1}

    def test_stats_per_version(self, tmp_path):
        ResultCache(str(tmp_path), version=7).put("k1", {"a": 1})
        cache = ResultCache(str(tmp_path), version=8)
        cache.put("k2", {"a": 2})
        st = cache.stats()
        assert st.versions[7][0] == 1
        assert st.versions[8][0] == 1
        assert st.entries == 1  # current version only
        assert "v8" in st.render()

    def test_prune_drops_stale_versions_and_legacy(self, tmp_path):
        ResultCache(str(tmp_path), version=7).put("k1", {"a": 1})
        cache = ResultCache(str(tmp_path), version=8)
        cache.put("k2", {"a": 2})
        report = cache.prune()
        assert report.stale_versions == 1
        assert report.stale_entries == 1
        assert cache.get("k2") == {"a": 2}
        assert not os.path.exists(tmp_path / "v7")

    def test_prune_keeps_files_outside_version_dirs(self, tmp_path):
        # the cache owns its v<N>/ directories only: a JSON file that
        # merely sits in the cache root is not an entry and must survive
        notes = tmp_path / "notes.json"
        notes.write_text('{"keep": true}')
        cache = ResultCache(str(tmp_path), version=8)
        cache.put("k1", {"a": 1})
        report = cache.prune()
        assert report.removed == 0
        assert notes.read_text() == '{"keep": true}'
        assert cache.get("k1") == {"a": 1}


class TestManifest:
    def test_write_and_read(self, cache):
        cache.put("k1", {"a": 1})
        cache.put("k2", {"b": 2})
        path = cache.write_manifest()
        assert os.path.basename(path) == MANIFEST_NAME
        manifest = cache.read_manifest()
        assert manifest["count"] == 2
        assert set(manifest["entries"]) == {"k1", "k2"}
        assert manifest["entries"]["k1"]["shard"] == shard_of("k1")

    def test_manifest_not_listed_as_entry(self, cache):
        cache.put("k1", {"a": 1})
        cache.write_manifest()
        assert [k for k, _ in cache.iter_entries()] == ["k1"]
        assert cache.stats().entries == 1

    def test_manifest_drops_vanished_blob(self, cache):
        """Regression: a key whose blob file vanished must not be listed.

        The provenance sidecar survives the deletion — the manifest must
        go by the blob (what ``read_bytes`` can actually serve), never by
        leftover metadata.
        """
        cache.put("k1", {"a": 1})
        cache.put("k2", {"b": 2})
        cache.put_provenance("k2", {"worker": "w0"})
        cache.write_manifest()
        os.unlink(cache.path_for("k2"))  # blob gone; sidecar remains
        fresh = cache.build_manifest()
        assert set(fresh["entries"]) == {"k1"}
        assert fresh["count"] == 1
        # every listed key must be readable right now
        assert all(cache.read_bytes(k) is not None for k in fresh["entries"])
        # rewriting replaces the stale on-disk snapshot too
        cache.write_manifest()
        assert set(cache.read_manifest()["entries"]) == {"k1"}

    def test_manifest_drops_blob_vanishing_mid_build(self, cache, monkeypatch):
        """A blob deleted between directory listing and stat is dropped."""
        import repro.harness.result_cache as rc

        cache.put("k1", {"a": 1})
        cache.put("k2", {"b": 2})
        k2_path = cache.path_for("k2")
        real_getsize = os.path.getsize

        def racing_getsize(path):
            if path == k2_path:
                if os.path.exists(path):
                    os.unlink(path)  # simulate a concurrent prune
                return real_getsize(path)  # raises OSError
            return real_getsize(path)

        monkeypatch.setattr(rc.os.path, "getsize", racing_getsize)
        manifest = cache.build_manifest()
        assert set(manifest["entries"]) == {"k1"}


class TestImportEntries:
    """Multi-host sync: manifest-driven, byte-for-byte shard merging."""

    @pytest.fixture
    def source(self, tmp_path):
        src = ResultCache(str(tmp_path / "src"), version=8)
        src.put("k1", {"a": 1})
        src.put("k2", {"b": 2})
        return src

    def test_import_into_empty_cache(self, cache, source):
        source.write_manifest()
        report = cache.import_entries(source)
        assert (report.imported, report.identical, report.conflicts) == (2, 0, 0)
        assert cache.get("k1") == {"a": 1}
        # byte-for-byte, not a re-encode
        assert cache.read_bytes("k2") == source.read_bytes("k2")

    def test_import_accepts_a_path(self, cache, source):
        report = cache.import_entries(source.root)
        assert report.imported == 2

    def test_import_without_manifest_walks_shards(self, cache, source):
        assert source.read_manifest() is None
        report = cache.import_entries(source)
        assert report.imported == 2
        assert report.stale_manifest == 0

    def test_reimport_is_idempotent(self, cache, source):
        cache.import_entries(source)
        report = cache.import_entries(source)
        assert (report.imported, report.identical) == (0, 2)

    def test_exclude_skips_settled_keys_without_io(self, cache, source):
        cache.import_entries(source)
        report = cache.import_entries(source, exclude={"k1", "k2"})
        assert report.excluded == 2
        assert report.examined == 0
        assert "previously merged" in report.render()

    def test_conflicting_entry_keeps_local(self, cache, source):
        cache.put("k1", {"a": "local truth"})
        report = cache.import_entries(source)
        assert report.conflicts == 1
        assert report.imported == 1  # k2 still arrives
        assert cache.get("k1") == {"a": "local truth"}

    def test_entries_newer_than_manifest_still_merge(self, cache, source):
        # a worker that wrote blobs after its manifest snapshot (rerun
        # against a grown task file, died before re-snapshotting) must
        # not have those newer entries ignored by the merge
        source.write_manifest()
        source.put("k3", {"c": 3})
        report = cache.import_entries(source)
        assert report.imported == 3
        assert cache.get("k3") == {"c": 3}

    def test_stale_manifest_rows_are_counted_not_fatal(self, cache, source):
        # manifest written, then a blob lost (worker died mid-sync)
        source.write_manifest()
        os.unlink(source.path_for("k1"))
        report = cache.import_entries(source)
        assert report.stale_manifest == 1
        assert report.imported == 1
        assert cache.get("k1") is None
        assert cache.get("k2") == {"b": 2}

    def test_corrupt_source_blob_never_imported(self, cache, source):
        with open(source.path_for("k1"), "w") as fh:
            fh.write("not json")
        report = cache.import_entries(source)
        assert report.corrupt == 1
        assert report.imported == 1
        assert cache.get("k1") is None

    def test_put_bytes_roundtrip_and_atomicity(self, cache):
        data = b'{"x": 1}'
        cache.put_bytes("kb", data)
        assert cache.read_bytes("kb") == data
        assert cache.get("kb") == {"x": 1}
        for dirpath, _, names in os.walk(cache.root):
            assert not [n for n in names if n.startswith(".tmp-")]

    def test_report_render_and_examined(self):
        report = MergeReport(
            source="s", imported=2, identical=1, conflicts=1, stale_manifest=3
        )
        assert report.examined == 4
        assert "2 imported" in report.render()
        assert "3 stale" in report.render()


def _hammer(args):
    """Worker: write many entries into a shared cache."""
    root, worker_id, n = args
    cache = ResultCache(root, version=8)
    for i in range(n):
        # every worker also writes the contended shared key
        cache.put("shared", {"worker": worker_id, "i": i})
        cache.put(f"w{worker_id}-{i}", {"worker": worker_id, "i": i})
    return worker_id


class TestParallelWriters:
    def test_concurrent_writers_do_not_clobber(self, tmp_path):
        root = str(tmp_path / "cache")
        n_workers, n_puts = 4, 25
        with multiprocessing.get_context().Pool(n_workers) as pool:
            done = pool.map(
                _hammer, [(root, w, n_puts) for w in range(n_workers)]
            )
        assert sorted(done) == list(range(n_workers))
        cache = ResultCache(root, version=8)
        # every entry parses (atomic publication: no torn writes) ...
        entries = dict(cache.iter_entries())
        assert len(entries) == n_workers * n_puts + 1
        for key in entries:
            assert cache.get(key) is not None, key
        # ... including the key all workers raced on
        assert cache.get("shared")["i"] == n_puts - 1
        # and no tmp droppings survived
        assert cache.prune().removed == 0
