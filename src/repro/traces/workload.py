"""The ``trace:<file>`` workload family and its provenance helpers.

A trace workload is addressed by file, through the same name seam every
other workload uses::

    trace:traces/app.rtr            # relative to the spec file / trace root
    trace:/abs/path/capture.rtr     # absolute paths pass through

Names stay *relative* inside sweep points and cache keys (keeping result
digests host-portable); resolution against a ``trace_root`` — the spec
file's directory, by default — happens only when the workload is built.
Replay reuses the header's **meta name** (the source workload's name for
self-captures), so the result blobs a replay produces are byte-identical
to the direct generator run.  Mixes rebase trace components into their
own address windows exactly like synthetic components
(:mod:`repro.workloads.mix` is format-agnostic).

:func:`trace_provenance` exposes the capture file's sha256 for the
per-entry provenance sidecars, so a served ``/v1/provenance/<digest>``
answer identifies which capture produced a result.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional, Tuple

from ..workloads.trace import Workload, WorkloadMeta
from .format import TraceError, TraceReader

#: dispatch prefix of file-backed trace workload names
TRACE_PREFIX = "trace:"


def is_trace_name(name: str) -> bool:
    """True when ``name`` addresses a file-backed trace (``trace:<file>``)."""
    return name.startswith(TRACE_PREFIX)


def trace_path(name: str, trace_root: Optional[str] = None) -> str:
    """Resolve a ``trace:`` name to a filesystem path.

    Relative paths resolve against ``trace_root`` (the spec file's
    directory when running a spec) or the working directory; absolute
    paths are taken as-is.  Raises for names without the prefix or with
    an empty path.
    """
    if not is_trace_name(name):
        raise TraceError(f"not a trace name (no {TRACE_PREFIX!r} prefix): {name!r}")
    rel = name[len(TRACE_PREFIX) :]
    if not rel:
        raise TraceError(f"bad trace name {name!r}: empty file path")
    if os.path.isabs(rel) or trace_root is None:
        return rel
    return os.path.join(trace_root, rel)


def check_trace(name: str, trace_root: Optional[str] = None) -> str:
    """Validate that a ``trace:`` name resolves to a readable trace file.

    Returns the resolved path; raises :class:`TraceError` with a clean,
    actionable message (missing file, unreadable file, bad magic or
    version) — the error spec validation surfaces without a traceback.
    """
    path = trace_path(name, trace_root)
    if not os.path.exists(path):
        raise TraceError(
            f"trace file not found: {path!r} (from workload {name!r})"
        )
    reader = TraceReader(path)  # parses magic/version/header
    return reader.path


def trace_exists(name: str, trace_root: Optional[str] = None) -> bool:
    """True when ``name`` is a ``trace:`` name over a readable trace file."""
    if not is_trace_name(name):
        return False
    try:
        check_trace(name, trace_root)
    except TraceError:
        return False
    return True


def _replay_meta(name: str, reader: TraceReader) -> WorkloadMeta:
    """Build replay metadata from the header (trailer fills the gaps).

    Self-captures carry the source workload's full metadata — reused
    verbatim, *including the name*, which is what makes replay blobs
    byte-identical to the generator run.  Converted logs leave the
    stream-dependent fields null; those are recovered from the trailer
    statistics (``accesses_per_core`` drives warmup, so it must reflect
    the real stream length).
    """
    header = reader.header
    accesses = header.get("accesses_per_core")
    if not isinstance(accesses, int) or accesses < 0:
        accesses = max(reader.counts(), default=0)
    footprint = header.get("footprint_bytes")
    if not isinstance(footprint, int) or footprint < 0:
        trailer = reader.trailer()
        lo, hi = trailer.get("min_addr"), trailer.get("max_addr")
        line_bytes = header.get("line_bytes") or 64
        footprint = (hi - lo + line_bytes) if isinstance(lo, int) else 0
    shared = header.get("shared_bytes")
    return WorkloadMeta(
        name=str(header.get("name") or os.path.basename(reader.path)),
        suite=str(header.get("suite") or "captured"),
        kind=str(header.get("kind") or "trace"),
        accesses_per_core=accesses,
        footprint_bytes=footprint,
        shared_bytes=shared if isinstance(shared, int) else 0,
        description=str(header.get("description") or f"trace replay of {name}"),
    )


def trace_workload(
    name: str,
    n_cores: int = 4,
    scale: float = 1.0,
    seed: int = 1,
    line_bytes: int = 64,
    trace_root: Optional[str] = None,
) -> Workload:
    """Build the replay :class:`~repro.workloads.trace.Workload` of a trace.

    ``scale``/``seed``/``line_bytes`` are accepted for registry-signature
    compatibility but do not alter replay — a trace file *is* its record
    streams.  ``n_cores`` must match the capture's core count (checked
    here and again by ``streams()``).
    """
    path = trace_path(name, trace_root)
    try:
        reader = TraceReader(path)
    except OSError as exc:  # pragma: no cover - open() errors wrap above
        raise TraceError(f"cannot open trace {path!r}: {exc}") from exc
    if n_cores != reader.n_cores:
        raise TraceError(
            f"trace {path!r} was captured for {reader.n_cores} core(s), "
            f"asked to replay on {n_cores}"
        )
    meta = _replay_meta(name, reader)
    return Workload(meta, reader.streams)


def trace_components(name: str) -> List[str]:
    """The ``trace:`` components a workload point name references.

    ``trace:x.rtr`` → itself; ``mix:uniform+trace:x.rtr`` → its trace
    components; anything else → empty list.
    """
    if is_trace_name(name):
        return [name]
    from ..workloads.mix import is_mix_name, parse_mix_name

    if is_mix_name(name):
        try:
            return [c for c in parse_mix_name(name) if is_trace_name(c)]
        except ValueError:
            return []
    return []


#: (abs path, size, mtime_ns) → sha256, so repeated points on one trace
#: file hash it once per process
_DIGEST_CACHE: Dict[Tuple[str, int, int], str] = {}


def trace_digest(path: str) -> str:
    """sha256 of the trace file, memoized by (path, size, mtime)."""
    abspath = os.path.abspath(path)
    st = os.stat(abspath)
    key = (abspath, st.st_size, st.st_mtime_ns)
    cached = _DIGEST_CACHE.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    with open(abspath, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    _DIGEST_CACHE[key] = digest.hexdigest()
    return _DIGEST_CACHE[key]


def trace_provenance(
    name: str, trace_root: Optional[str] = None
) -> Dict[str, dict]:
    """Per-component capture identity for the provenance sidecar.

    Maps each ``trace:`` component of ``name`` to its resolved file,
    size, and sha256 — recorded with every ``trace:`` point so served
    provenance answers identify which capture produced a result.
    Components whose file vanished are skipped (the run itself would
    have failed earlier; provenance never raises).
    """
    refs: Dict[str, dict] = {}
    for component in trace_components(name):
        try:
            path = trace_path(component, trace_root)
            refs[component] = {
                "file": os.path.abspath(path),
                "bytes": os.path.getsize(path),
                "sha256": trace_digest(path),
            }
        except (OSError, TraceError):  # pragma: no cover - defensive
            continue
    return refs
