"""The stream memo: ``ReplayWorkload`` and the runner's one stream slot.

A replay must yield exactly the records of the generator it memoizes,
so every blob a memoized stream produces is byte-identical to a fresh
generator run; streams that do not fit the columns, and builds that
raise, must behave exactly as an unmemoized run.
"""

import dataclasses
import json
import os
import weakref

import pytest

from repro.harness import runner as runner_mod
from repro.harness.runner import SweepRunner, encode_entry
from repro.power.energy import EnergyModel
from repro.sim.simulator import simulate
from repro.traces import capture_workload
from repro.traces.format import TraceFormatError, TraceWriter
from repro.workloads import trace as trace_mod
from repro.workloads.registry import get_workload, list_workloads
from repro.workloads.trace import ReplayWorkload, Workload, make_flags

SCALE = 0.04
SEED = 1
#: two cores keep the all-workloads sweep cheap
N_CORES = 2


def records(streams):
    return [list(stream) for stream in streams]


def field_types(cores):
    return {type(v) for core in cores for rec in core for v in rec}


def short_capture(directory, name):
    """A 1000-record capture: fast to simulate under every technique."""
    path = str(directory / f"{name}.rtr")
    capture_workload(name, path, n_cores=N_CORES, scale=SCALE, seed=SEED, limit=1000)
    return path


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    return short_capture(tmp_path_factory.mktemp("memo"), "uniform")


def make_runner(tmp_path, name="cache"):
    return SweepRunner(
        scale=SCALE,
        seed=SEED,
        n_cores=N_CORES,
        cache_dir=str(tmp_path / name),
        verbose=False,
    )


def direct_blob(runner, point):
    """The blob an unmemoized run writes: a fresh generator, no replay."""
    ctx = runner.context_for(point)
    cfg = runner.config_for(point)
    source = get_workload(
        point.workload,
        n_cores=int(ctx["n_cores"]),
        scale=float(ctx["scale"]),
        seed=int(ctx["seed"]),
    )
    res = simulate(cfg, source, warmup_fraction=float(ctx["warmup"]))
    return json.dumps(encode_entry(res, EnergyModel(cfg).evaluate(res))).encode()


def runner_blob(runner, point):
    runner.run_point(point)
    with open(runner.cache.path_for(runner.point_key(point)), "rb") as fh:
        return fh.read()


class TestReplayIdentity:
    @pytest.mark.parametrize(
        "name", [*list_workloads(), "mix:water_ns+mpeg2dec", "trace"]
    )
    def test_replay_equals_generator(self, name, capture):
        if name == "trace":
            name = f"trace:{capture}"

        def build():
            return get_workload(name, n_cores=N_CORES, scale=SCALE, seed=SEED)

        want = records(build().streams(N_CORES))
        assert field_types(want) == {int}
        replay = ReplayWorkload(build())
        assert replay.meta == replay.source.meta
        for _ in range(2):
            got = records(replay.streams(N_CORES))
            assert got == want
            assert field_types(got) == {int}
        assert replay.built

    def test_other_core_count_goes_to_the_source(self):
        replay = ReplayWorkload(
            get_workload("uniform", n_cores=N_CORES, scale=SCALE, seed=SEED)
        )
        replay.streams(N_CORES)
        with pytest.raises(ValueError, match="built for 2 cores"):
            replay.streams(N_CORES + 1)


class TestRunnerSlot:
    def test_one_build_per_stream_and_one_slot(self, capture, tmp_path, monkeypatch):
        """8 techniques build once; a new stream drops the old memo first."""
        other = short_capture(tmp_path, "pingpong")
        made = []

        class Tracked(ReplayWorkload):
            def __init__(self, source):
                super().__init__(source)
                made.append(weakref.ref(self))

        builds = []
        held_at_build = []
        source_streams = Workload.streams

        def streams(self, n_cores):
            builds.append(self.name)
            held_at_build.append(
                sum(1 for ref in made if ref() is not None and ref().built)
            )
            return source_streams(self, n_cores)

        monkeypatch.setattr(runner_mod, "ReplayWorkload", Tracked)
        monkeypatch.setattr(Workload, "streams", streams)
        runner = make_runner(tmp_path)
        for tech in runner.technique_order():
            runner.run_point(runner.point(f"trace:{capture}", 1, tech))
        assert builds == ["uniform"]
        runner.run_point(runner.point(f"trace:{other}", 1, "protocol"))
        runner.run_point(runner.point(f"trace:{capture}", 2, "protocol"))
        assert builds == ["uniform", "pingpong", "uniform"]
        assert held_at_build == [0, 0, 0]
        assert sum(1 for ref in made if ref() is not None) == 1

    def test_memoized_blobs_match_the_generator(self, capture, tmp_path):
        runner = make_runner(tmp_path)
        for tech in ("baseline", "protocol", "decay64K"):
            point = runner.point(f"trace:{capture}", 1, tech)
            assert runner_blob(runner, point) == direct_blob(runner, point)
        assert runner._stream_memo[1].built

    def test_stream_key_ignores_size_technique_and_warmup(self, tmp_path):
        runner = make_runner(tmp_path)
        a = runner.point("uniform", 1, "protocol")
        b = runner.point("uniform", 4, "decay64K")
        key = runner.stream_key(a)
        assert runner.stream_key(b) == key
        assert runner.stream_key(dataclasses.replace(a, warmup=0.5)) == key
        for other in (
            runner.point("pingpong", 1, "protocol"),
            dataclasses.replace(a, seed=SEED + 1),
            dataclasses.replace(a, scale=0.05),
            dataclasses.replace(a, n_cores=N_CORES + 2),
        ):
            assert runner.stream_key(other) != key


class TestFallback:
    def test_stream_over_the_cap_streams_fresh(self, capture, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_mod, "REPLAY_MAX_RECORDS", 1500)
        runner = make_runner(tmp_path)
        for tech in ("baseline", "decay64K"):
            point = runner.point(f"trace:{capture}", 1, tech)
            assert runner_blob(runner, point) == direct_blob(runner, point)
        assert not runner._stream_memo[1].built

    @pytest.mark.parametrize(
        "record",
        [(1 << 32, 0x2000, 0), (2, (1 << 64) + 0x40, make_flags(True))],
        ids=["gap-2^32", "addr-2^64"],
    )
    def test_value_no_column_stores_streams_fresh(self, record, tmp_path):
        path = str(tmp_path / "wide.rtr")
        with TraceWriter(path, N_CORES, header={"accesses_per_core": 5}) as out:
            for core in range(N_CORES):
                for i in range(4):
                    rec = (3, 0x1000 + 64 * i + 4096 * core, make_flags(i % 2 == 0))
                    out.append(core, rec)
            out.append(1, record)
        runner = make_runner(tmp_path)
        point = runner.point(f"trace:{path}", 1, "decay64K")
        assert runner_blob(runner, point) == direct_blob(runner, point)
        assert not runner._stream_memo[1].built

    @pytest.mark.parametrize("fraction", [0.3, 0.6, 0.97])
    def test_build_that_raises_leaves_no_memo(self, fraction, capture, tmp_path):
        """A cut trace raises exactly what an unmemoized run raises."""
        path = str(tmp_path / "cut.rtr")
        with open(capture, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: int(len(data) * fraction)])
        runner = make_runner(tmp_path)
        point = runner.point(f"trace:{path}", 1, "baseline")
        with pytest.raises(TraceFormatError) as direct:
            direct_blob(runner, point)
        for _ in range(2):
            with pytest.raises(TraceFormatError) as memo:
                runner.run_point(point)
            assert str(memo.value) == str(direct.value)
            assert not runner._stream_memo[1].built
        assert not os.path.exists(runner.cache.path_for(runner.point_key(point)))
