"""Record-level golden of the workload generators.

``tests/golden/stream_digests.json`` pins, for each listed stream, every
core's record count and the sha256 of its records.  The engine goldens
(``test_engine_bit_identity.py``) pin only mpeg2enc and water_ns at one
seed; this golden pins the generators themselves, across all registered
workloads, a mix, a held-out seed, another core count and another scale,
so a generator change that alters a single record fails here first.

The digest hashes three little-endian int64 columns (gap, address,
flags) in that order, so it does not depend on the host's byte order.

If a deliberate model change ever alters the streams, regenerate the
file from a trusted build with::

    PYTHONPATH=src python tests/workloads/test_stream_digests.py --write

and bump ``repro.harness.runner.CACHE_VERSION`` in the same commit.
"""

import hashlib
import json
import os
import sys
from array import array

import pytest

from repro.workloads.registry import get_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "golden", "stream_digests.json"
)

#: the registered workloads (named here: tests may register more)
WORKLOADS = (
    "facerec",
    "fmm",
    "mpeg2dec",
    "mpeg2enc",
    "pingpong",
    "streaming",
    "uniform",
    "volrend",
    "water_ns",
)


def golden_cases():
    """(workload, seed, scale, n_cores) of every stream the golden pins."""
    cases = [(name, 1, 0.04, 4) for name in WORKLOADS]
    cases.append(("mix:water_ns+mpeg2dec", 1, 0.04, 4))
    for scale in (0.04, 0.1):
        cases += [(name, 1009, scale, 2) for name in ("water_ns", "fmm", "facerec")]
    return cases


def stream_digest(stream):
    """``(records, sha256)`` of one core's record stream."""
    gaps, addrs, flags = array("q"), array("q"), array("q")
    add_gap, add_addr, add_flags = gaps.append, addrs.append, flags.append
    for gap, addr, flag in stream:
        add_gap(gap)
        add_addr(addr)
        add_flags(flag)
    digest = hashlib.sha256()
    for column in (gaps, addrs, flags):
        if sys.byteorder == "big":
            column.byteswap()
        digest.update(column.tobytes())
    return len(gaps), digest.hexdigest()


def case_entry(workload, seed, scale, n_cores):
    """The golden entry of one stream: its identity plus per-core digests."""
    wl = get_workload(workload, n_cores=n_cores, scale=scale, seed=seed)
    records, sha256 = zip(*(stream_digest(s) for s in wl.streams(n_cores)))
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "n_cores": n_cores,
        "records": list(records),
        "sha256": list(sha256),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return {
            (e["workload"], e["seed"], e["scale"], e["n_cores"]): e
            for e in json.load(fh)["streams"]
        }


def test_golden_covers_every_case(golden):
    """The file pins exactly the streams :func:`golden_cases` lists."""
    assert sorted(golden) == sorted(golden_cases())


@pytest.mark.parametrize(
    "case", golden_cases(), ids=lambda c: "{}-s{}-x{}-c{}".format(*c)
)
def test_stream_records_match_golden(golden, case):
    assert case_entry(*case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    document = {
        "comment": "per-core record counts and sha256 of workload streams; "
        "see tests/workloads/test_stream_digests.py",
        "streams": [case_entry(*case) for case in golden_cases()],
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
