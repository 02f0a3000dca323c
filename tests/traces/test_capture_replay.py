"""Capture-replay identity: the subsystem's correctness anchor.

A synthetic workload captured to a trace file and replayed via
``trace:<file>`` must produce **byte-identical** result blobs to the
direct generator run — through the serial runner and through
``LocalBackend`` worker processes.  The blob embeds the workload's meta
name, so identity also proves the header round-trips the source
metadata faithfully.
"""

import hashlib
import os
import re

import pytest

from repro.harness.executor import ParallelSweepRunner
from repro.harness.runner import SweepRunner
from repro.traces import TraceError, capture_workload, convert_csv
from repro.workloads.registry import get_workload

SCALE = 0.04
SEED = 1
N_CORES = 4


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """One full capture of the uniform workload at smoke scale."""
    path = str(tmp_path_factory.mktemp("capture") / "uniform.rtr")
    capture_workload("uniform", path, n_cores=N_CORES, scale=SCALE, seed=SEED)
    return path


def make_runner(tmp_path, trace_root=None, **kwargs):
    return SweepRunner(
        scale=SCALE,
        seed=SEED,
        n_cores=N_CORES,
        cache_dir=str(tmp_path / "cache"),
        verbose=False,
        trace_root=trace_root,
        **kwargs,
    )


def blob_digest(runner, point):
    runner.run_point(point)
    key = runner.point_key(point)
    with open(runner.cache.path_for(key), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestStreamIdentity:
    def test_replay_streams_equal_generator_streams(self, capture):
        src = get_workload("uniform", n_cores=N_CORES, scale=SCALE, seed=SEED)
        rep = get_workload(f"trace:{capture}", n_cores=N_CORES)
        assert rep.meta == src.meta  # name included — blob identity needs it
        for a, b in zip(src.streams(N_CORES), rep.streams(N_CORES)):
            assert list(a) == list(b)

    def test_replay_is_repeatable(self, capture):
        rep = get_workload(f"trace:{capture}", n_cores=N_CORES)
        first = [list(s) for s in rep.streams(N_CORES)]
        second = [list(s) for s in rep.streams(N_CORES)]
        assert first == second


class TestBlobIdentity:
    def test_serial_runner_bit_identical(
        self, capture, tmp_path, reference_runner
    ):
        """The golden: generator blob == replay blob, byte for byte."""
        gen = reference_runner  # the serial generator run, session-shared
        rep = make_runner(tmp_path / "rep")
        for tech in ("baseline", "protocol", "decay64K"):
            p_gen = gen.point("uniform", 1, tech)
            p_rep = rep.point(f"trace:{capture}", 1, tech)
            assert blob_digest(gen, p_gen) == blob_digest(rep, p_rep), tech

    def test_local_backend_bit_identical(
        self, capture, tmp_path, reference_runner
    ):
        """Same identity through LocalBackend worker processes (jobs=2)."""
        gen = reference_runner
        rep = ParallelSweepRunner(
            scale=SCALE,
            seed=SEED,
            n_cores=N_CORES,
            cache_dir=str(tmp_path / "rep" / "cache"),
            verbose=False,
            jobs=2,
        )
        points = [
            rep.point(f"trace:{capture}", 1, t) for t in ("baseline", "protocol")
        ]
        rep.prefetch_points(points)
        for point, tech in zip(points, ("baseline", "protocol")):
            direct = blob_digest(gen, gen.point("uniform", 1, tech))
            key = rep.point_key(point)
            with open(rep.cache.path_for(key), "rb") as fh:
                replayed = hashlib.sha256(fh.read()).hexdigest()
            assert replayed == direct, tech


class TestCacheKeys:
    def test_point_key_stays_one_path_component(self, capture, tmp_path):
        """Trace names carry paths; cache keys must not nest directories."""
        runner = make_runner(tmp_path)
        key = runner.point_key(runner.point(f"trace:{capture}", 1, "baseline"))
        assert "/" not in key and "\\" not in key

    def test_point_key_is_filesystem_safe_everywhere(self, capture, tmp_path):
        """No ':' (or any path-hostile char) survives — NTFS rejects them."""
        runner = make_runner(tmp_path)
        for name in (f"trace:{capture}", f"mix:pingpong+trace:{capture}"):
            key = runner.point_key(runner.point(name, 1, "baseline"))
            assert not re.search(r"[^A-Za-z0-9._+-]", key), key

    def test_recapturing_a_trace_changes_the_cache_key(self, tmp_path):
        """The key folds in trace *content*, not just the trace's name.

        Overwriting a trace at the same path used to silently serve the
        old capture's cached results.
        """
        path = str(tmp_path / "t.rtr")
        capture_workload(
            "uniform", path, n_cores=N_CORES, scale=SCALE, seed=SEED, limit=64
        )
        runner = make_runner(tmp_path)
        point = runner.point(f"trace:{path}", 1, "baseline")
        key_before = runner.point_key(point)
        capture_workload(
            "uniform", path, n_cores=N_CORES, scale=SCALE, seed=SEED + 1, limit=64
        )
        assert runner.point_key(point) != key_before

    def test_recaptured_trace_replays_the_new_capture(self, tmp_path):
        """A runner that replayed a trace must not keep the old capture.

        It used to cache the built workload by (name, cores, scale,
        seed), so after a re-capture at the same path it simulated the
        new key with the old header and frames.
        """
        path = str(tmp_path / "t.rtr")
        capture_workload(
            "uniform", path, n_cores=N_CORES, scale=SCALE, seed=SEED, limit=2000
        )
        runner = make_runner(tmp_path / "same")
        point = runner.point(f"trace:{path}", 1, "baseline")
        runner.run_point(point)
        capture_workload(
            "uniform", path, n_cores=N_CORES, scale=SCALE, seed=SEED, limit=1500
        )
        fresh = make_runner(tmp_path / "fresh")
        assert blob_digest(runner, point) == blob_digest(fresh, point)

    def test_relative_and_rooted_names_share_a_key_digest(self, capture, tmp_path):
        """Host-portability: the digest hashes content, never paths."""
        root = os.path.dirname(capture)
        name = f"trace:{os.path.basename(capture)}"
        rooted = make_runner(tmp_path / "a", trace_root=root)
        key_rooted = rooted.point_key(rooted.point(name, 1, "baseline"))
        moved = make_runner(tmp_path / "b", trace_root=root)
        assert moved.point_key(moved.point(name, 1, "baseline")) == key_rooted

    def test_trace_blobs_appear_in_manifest(self, capture, tmp_path):
        runner = make_runner(tmp_path)
        runner.run_point(runner.point(f"trace:{capture}", 1, "baseline"))
        runner.cache.write_manifest()
        manifest = runner.cache.read_manifest()
        assert manifest["count"] == 1
        (key,) = manifest["entries"]
        assert "/" not in key


class TestTraceInMix:
    def test_mix_with_trace_component_runs(self, capture, tmp_path):
        runner = make_runner(tmp_path)
        point = runner.point(f"mix:pingpong+trace:{capture}", 1, "protocol")
        res, energy = runner.run_point(point)
        assert res.total_cycles > 0

    def test_mix_rebases_trace_addresses(self, capture):
        from repro.workloads.mix import REBASE_STRIDE

        mix = get_workload(
            f"mix:pingpong+trace:{capture}",
            n_cores=N_CORES,
            scale=SCALE,
            seed=SEED,
        )
        streams = mix.streams(N_CORES)
        # core 1 runs the trace component, rebased by one stride
        rep = get_workload(f"trace:{capture}", n_cores=N_CORES)
        want = next(rep.streams(N_CORES)[1])
        gap, addr, flags = next(streams[1])
        assert (gap, addr - REBASE_STRIDE, flags) == want


class TestConvertedReplay:
    def test_csv_conversion_replays(self, tmp_path):
        src = tmp_path / "log.csv"
        src.write_text(
            "core,addr,write,gap\n"
            "0,0x1000,0,3\n0,0x1040,1,2\n0,0x1000,0,0\n"
            "1,0x2000,1,1\n1,0x2040,0,4\n"
        )
        out = str(tmp_path / "log.rtr")
        summary = convert_csv(str(src), out)
        assert summary["counts"] == [3, 2]
        wl = get_workload(f"trace:{out}", n_cores=2)
        # converted headers carry no access count; the trailer fills it
        assert wl.meta.accesses_per_core == 3
        streams = wl.streams(2)
        # flags default to ILP_MODERATE reads -> make_flags(False, 1) == 2
        assert next(streams[0]) == (3, 0x1000, 2)
        assert next(streams[1])[1] == 0x2000

    def test_csv_empty_field_rejected_not_shifted(self, tmp_path):
        """``0,,4096,1`` must fail, not parse 4096 as the address."""
        src = tmp_path / "bad.csv"
        src.write_text("core,addr,write,gap\n0,,4096,1\n")
        with pytest.raises(TraceError, match="bad address"):
            convert_csv(str(src), str(tmp_path / "bad.rtr"))

    def test_csv_trailing_empty_cells_tolerated(self, tmp_path):
        src = tmp_path / "trail.csv"
        src.write_text("core,addr,write\n0,0x40,1,,\n")
        summary = convert_csv(str(src), str(tmp_path / "trail.rtr"))
        assert summary["counts"] == [1]

    def test_capture_with_limit_truncates(self, tmp_path):
        path = str(tmp_path / "short.rtr")
        capture_workload(
            "uniform", path, n_cores=N_CORES, scale=SCALE, seed=SEED, limit=100
        )
        wl = get_workload(f"trace:{path}", n_cores=N_CORES)
        assert wl.meta.accesses_per_core == 100
        assert all(len(list(s)) == 100 for s in wl.streams(N_CORES))


class TestProvenance:
    def test_trace_points_record_capture_digest(self, capture, tmp_path):
        runner = make_runner(tmp_path)
        point = runner.point(f"trace:{capture}", 1, "baseline")
        runner.run_point(point)
        info = runner.cache.get_provenance(runner.point_key(point))
        refs = info["traces"]
        ref = refs[f"trace:{capture}"]
        assert ref["file"] == os.path.abspath(capture)
        assert ref["bytes"] == os.path.getsize(capture)
        digest = hashlib.sha256(open(capture, "rb").read()).hexdigest()
        assert ref["sha256"] == digest

    def test_synthetic_points_have_no_trace_table(self, tmp_path):
        runner = make_runner(tmp_path)
        point = runner.point("uniform", 1, "baseline")
        runner.run_point(point)
        info = runner.cache.get_provenance(runner.point_key(point))
        assert "traces" not in info

    def test_trace_root_resolves_relative_names(self, capture, tmp_path):
        root = os.path.dirname(capture)
        name = f"trace:{os.path.basename(capture)}"
        runner = make_runner(tmp_path, trace_root=root)
        point = runner.point(name, 1, "baseline")
        runner.run_point(point)
        refs = runner.cache.get_provenance(runner.point_key(point))["traces"]
        assert refs[name]["file"] == os.path.abspath(capture)
