"""Declarative experiment specs: typed sweep points, serializable scenarios.

This module is the experiment-description layer of the harness.  Instead
of passing ``(workload, total_mb, technique_label)`` string triples
around — which hardwires the paper's 6×4×8 matrix — an experiment is:

* a :class:`SweepPoint`: one frozen, hashable simulation point carrying
  the workload name, the total L2 capacity, a **full**
  :class:`~repro.sim.config.TechniqueConfig`, and optional runner-context
  overrides (``n_cores``/``scale``/``seed``/``warmup``); or
* an :class:`ExperimentSpec`: a named scenario that declares axes
  (workloads × sizes × techniques), constraints (``skip`` filters), and
  explicit off-grid points, and expands to an ordered point list.

Both serialize losslessly to JSON and TOML (:func:`load_spec` /
:func:`save_spec`, ``repro-cmp spec load|expand|validate``), so a
scenario is a *file*: authored once, shipped verbatim to socket/batch
workers, and replayed bit-identically anywhere.  Identity is digest
based — :meth:`SweepPoint.digest` hashes the canonical JSON form with
:func:`~repro.sim.config.stable_digest`, so cache keys agree across
processes, hosts, and ``PYTHONHASHSEED`` values.

The paper's own 192-point matrix ships as ``specs/paper_matrix.toml``
(programmatically: :func:`paper_matrix_spec`); any new scenario — more
cores, off-grid decay times, different counter hardware — is another
spec file, not another Python module.
"""

from __future__ import annotations

import json
import os
import re
import tomllib
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..sim.config import (
    BASELINE,
    TechniqueConfig,
    paper_technique_order,
    paper_techniques,
    stable_digest,
)

#: schema marker of serialized specs; bump on incompatible layout changes
SPEC_FORMAT = 1

#: runner-context keys a spec (or a point) may override
CONTEXT_KEYS = ("n_cores", "scale", "seed", "warmup")

#: keys a ``skip`` constraint may match on
SKIP_KEYS = ("workload", "size_mb", "technique")

#: keys an ``[ensemble]`` table may set (see ``repro.scenarios.ensemble``)
ENSEMBLE_KEYS = ("replicas", "base_seed", "seed_stride")


class SpecError(ValueError):
    """An experiment spec (or sweep point) failed validation."""


def _require(cond: bool, message: str) -> None:
    """Raise :class:`SpecError` with ``message`` unless ``cond`` holds."""
    if not cond:
        raise SpecError(message)


# ---------------------------------------------------------------------------
# SweepPoint
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One fully-specified simulation point of a sweep.

    ``technique`` is the resolved hardware configuration (actual decay
    cycles, counter mode); ``tech_label`` is the presentation name used
    by figures and cache-key prefixes — for the paper's techniques it
    keeps the *nominal* decay time (``decay512K``) even when the cycles
    are scaled.  The four context fields default to ``None``, meaning
    "inherit from the executing runner"; a point that pins them runs
    with its own core count / scale / seed / warmup regardless of the
    runner's defaults.
    """

    workload: str
    total_mb: int
    technique: TechniqueConfig = field(default_factory=TechniqueConfig)
    tech_label: Optional[str] = None
    n_cores: Optional[int] = None
    scale: Optional[float] = None
    seed: Optional[int] = None
    warmup: Optional[float] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.workload, str) and bool(self.workload),
            f"workload must be a non-empty string, got {self.workload!r}",
        )
        _require(
            isinstance(self.total_mb, int) and self.total_mb >= 1,
            f"total_mb must be a positive integer, got {self.total_mb!r}",
        )
        _require(
            isinstance(self.technique, TechniqueConfig),
            f"technique must be a TechniqueConfig, got {self.technique!r}",
        )
        if self.tech_label is None:
            object.__setattr__(self, "tech_label", self.technique.label())
        if self.n_cores is not None:
            _require(int(self.n_cores) >= 1, "n_cores override must be >= 1")
        if self.scale is not None:
            _require(float(self.scale) > 0, "scale override must be positive")
        if self.warmup is not None:
            _require(
                0.0 <= float(self.warmup) < 1.0,
                "warmup override must be in [0, 1)",
            )

    # -- identity ---------------------------------------------------------
    @property
    def triple(self) -> Tuple[str, int, str]:
        """Legacy ``(workload, total_mb, tech_label)`` view of the point."""
        return (self.workload, self.total_mb, self.tech_label)

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``water_ns 4MB decay64K``."""
        return f"{self.workload} {self.total_mb}MB {self.tech_label}"

    def baseline_twin(self) -> "SweepPoint":
        """The unoptimized point every relative metric pairs against.

        Same workload, capacity, and context overrides; technique
        replaced by the always-on baseline.
        """
        if self.tech_label == BASELINE and self.technique.name == BASELINE:
            return self
        return replace(
            self,
            technique=TechniqueConfig(name=BASELINE),
            tech_label=BASELINE,
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical dict; unset context overrides are omitted."""
        out: Dict[str, Any] = {
            "workload": self.workload,
            "total_mb": self.total_mb,
            "tech_label": self.tech_label,
            "technique": self.technique.to_dict(),
        }
        for key in CONTEXT_KEYS:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPoint":
        """Rebuild a point from :meth:`to_dict` output (validating)."""
        _require(isinstance(data, Mapping), f"point must be a dict, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        _require(
            not unknown, f"unknown point fields: {', '.join(sorted(unknown))}"
        )
        for key in ("workload", "total_mb", "technique"):
            _require(key in data, f"point is missing required field {key!r}")
        try:
            technique = TechniqueConfig.from_dict(data["technique"])
        except ValueError as exc:
            raise SpecError(f"bad technique in point: {exc}") from exc
        kwargs: Dict[str, Any] = {}
        for key in CONTEXT_KEYS:
            if data.get(key) is not None:
                kwargs[key] = data[key]
        return cls(
            workload=str(data["workload"]),
            total_mb=int(data["total_mb"]),
            technique=technique,
            tech_label=(
                str(data["tech_label"]) if data.get("tech_label") else None
            ),
            **kwargs,
        )

    def digest(self) -> str:
        """Process-independent identity digest of the point.

        Hashes the canonical JSON form with
        :func:`~repro.sim.config.stable_digest`, so the digest survives
        serialization, socket/batch transport, and differing
        ``PYTHONHASHSEED`` values — the property the distributed cache
        keys rely on.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return stable_digest(canonical)


# ---------------------------------------------------------------------------
# Technique-label resolution
# ---------------------------------------------------------------------------
def resolve_technique(
    label: str,
    scale: float = 1.0,
    custom: Optional[Mapping[str, TechniqueConfig]] = None,
) -> TechniqueConfig:
    """Resolve a technique axis label to a full configuration.

    Resolution order: the spec's own ``[techniques.<label>]`` tables
    (used verbatim — their ``decay_cycles`` are literal, never scaled),
    then ``baseline``, then the paper's seven labels (whose nominal
    decay times are multiplied by ``scale``, matching the runner's
    time-dilation convention).
    """
    if custom and label in custom:
        return custom[label]
    if label == BASELINE:
        return TechniqueConfig(name=BASELINE)
    table = paper_techniques(scale)
    if label in table:
        return table[label]
    known = [BASELINE, *paper_technique_order()]
    if custom:
        known = [*custom, *known]
    raise SpecError(
        f"unknown technique label {label!r}; one of: {', '.join(known)}"
    )


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------
@dataclass
class ExperimentSpec:
    """A named, serializable scenario: axes, constraints, extra points.

    The grid axes expand in the harness's canonical sweep order (sizes
    outermost, then workloads, then techniques); ``skip`` filters drop
    grid points matching every key they name; ``points`` appends
    explicit off-grid points after the grid.  ``run`` carries the
    scenario's *requested* runner context (scale/seed/n_cores/warmup) —
    applied when the spec is executed through the CLI, overridable by
    explicit flags, and deliberately **not** baked into the expanded
    points, so one spec file can be replayed at any fidelity.

    ``ensemble`` declares the scenario's *requested* replication —
    ``replicas``/``base_seed``/``seed_stride`` — consumed by the
    ensemble engine (:mod:`repro.scenarios.ensemble`) and the
    ``--replicas`` CLI flag; like ``run`` it never changes what
    :meth:`expand` returns, so plain single-run consumers are
    unaffected by a spec that also describes an ensemble.
    """

    name: str
    workloads: Tuple[str, ...] = ()
    sizes_mb: Tuple[int, ...] = ()
    techniques: Tuple[str, ...] = ()
    description: str = ""
    custom_techniques: Dict[str, TechniqueConfig] = field(default_factory=dict)
    run: Dict[str, Any] = field(default_factory=dict)
    skip: Tuple[Dict[str, Any], ...] = ()
    points: Tuple[Dict[str, Any], ...] = ()
    ensemble: Dict[str, Any] = field(default_factory=dict)
    #: directory the spec was loaded from (set by :func:`load_spec`);
    #: anchors relative ``trace:`` paths so shipped specs are portable.
    #: Never serialized and excluded from equality — it is *where* the
    #: file lives, not part of what the scenario describes.
    base_dir: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.workloads = tuple(self.workloads)
        self.sizes_mb = tuple(self.sizes_mb)
        self.techniques = tuple(self.techniques)
        self.skip = tuple(dict(s) for s in self.skip)
        self.points = tuple(dict(p) for p in self.points)
        self.ensemble = dict(self.ensemble)
        self.validate()

    # -- validation ---------------------------------------------------------
    def validate(self, strict: bool = False) -> None:
        """Check internal consistency; raises :class:`SpecError`.

        ``strict`` additionally verifies that every workload exists in
        the registry and every grid/point technique label resolves —
        what ``repro-cmp spec validate`` runs before a spec is shipped.
        """
        _require(
            isinstance(self.name, str) and bool(self.name),
            "spec needs a non-empty name",
        )
        has_grid = bool(self.workloads or self.sizes_mb or self.techniques)
        if has_grid:
            _require(
                bool(self.workloads and self.sizes_mb and self.techniques),
                "a grid spec needs all three axes (workloads, sizes_mb, "
                "techniques); drop all three for a pure point list",
            )
        _require(
            has_grid or bool(self.points),
            "spec declares no grid axes and no explicit points",
        )
        for wl in self.workloads:
            _require(
                isinstance(wl, str) and bool(wl),
                f"workload axis entries must be names, got {wl!r}",
            )
        for mb in self.sizes_mb:
            _require(
                isinstance(mb, int) and not isinstance(mb, bool) and mb >= 1,
                f"sizes_mb entries must be positive integers, got {mb!r}",
            )
        for label in self.techniques:
            _require(
                isinstance(label, str) and bool(label),
                f"technique axis entries must be labels, got {label!r}",
            )
        for label, cfg in self.custom_techniques.items():
            _require(
                isinstance(cfg, TechniqueConfig),
                f"custom technique {label!r} must be a TechniqueConfig",
            )
        unknown = set(self.run) - set(CONTEXT_KEYS)
        _require(
            not unknown,
            f"unknown [run] keys: {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(CONTEXT_KEYS)})",
        )
        self._validate_ensemble()
        for rule in self.skip:
            _require(
                isinstance(rule, dict) and bool(rule),
                f"skip rules must be non-empty tables, got {rule!r}",
            )
            bad = set(rule) - set(SKIP_KEYS)
            _require(
                not bad,
                f"unknown skip keys: {', '.join(sorted(bad))} "
                f"(allowed: {', '.join(SKIP_KEYS)})",
            )
        for entry in self.points:
            _require(
                isinstance(entry, dict),
                f"points entries must be tables, got {entry!r}",
            )
            for key in ("workload", "size_mb", "technique"):
                _require(
                    key in entry,
                    f"explicit point {entry!r} is missing {key!r}",
                )
            bad = set(entry) - {"workload", "size_mb", "technique", *CONTEXT_KEYS}
            _require(
                not bad,
                f"unknown point keys: {', '.join(sorted(bad))}",
            )
            self._validate_point_values(entry)
        if strict:
            from ..workloads.registry import check_workload

            for wl in self._all_workloads():
                try:
                    # base_dir (the spec file's directory) anchors the
                    # relative paths of trace: workloads, so a shipped
                    # spec validates wherever it is checked out
                    check_workload(wl, trace_root=self.base_dir)
                except ValueError as exc:
                    raise SpecError(str(exc)) from None
            for label in self._all_technique_labels():
                resolve_technique(label, 1.0, self.custom_techniques)

    def _validate_ensemble(self) -> None:
        """Check the ``[ensemble]`` table (shape only, like ``[run]``)."""
        unknown = set(self.ensemble) - set(ENSEMBLE_KEYS)
        _require(
            not unknown,
            f"unknown [ensemble] keys: {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(ENSEMBLE_KEYS)})",
        )
        if "replicas" in self.ensemble:
            v = self.ensemble["replicas"]
            _require(
                isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                f"[ensemble] replicas must be a positive integer, got {v!r}",
            )
        for key in ("base_seed", "seed_stride"):
            if key in self.ensemble:
                v = self.ensemble[key]
                _require(
                    isinstance(v, int) and not isinstance(v, bool),
                    f"[ensemble] {key} must be an integer, got {v!r}",
                )
        if "seed_stride" in self.ensemble:
            _require(
                self.ensemble["seed_stride"] != 0,
                "[ensemble] seed_stride must be non-zero (replicas would "
                "collapse onto one seed)",
            )

    @staticmethod
    def _validate_point_values(entry: Mapping[str, Any]) -> None:
        """Value checks for one explicit point (validate-time, not expand)."""
        _require(
            isinstance(entry["workload"], str) and bool(entry["workload"]),
            f"point workload must be a name, got {entry['workload']!r}",
        )
        size = entry["size_mb"]
        _require(
            isinstance(size, int) and not isinstance(size, bool) and size >= 1,
            f"point size_mb must be a positive integer, got {size!r}",
        )
        _require(
            isinstance(entry["technique"], str) and bool(entry["technique"]),
            f"point technique must be a label, got {entry['technique']!r}",
        )
        numeric = (int, float)
        if "n_cores" in entry:
            v = entry["n_cores"]
            _require(
                isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                f"point n_cores must be a positive integer, got {v!r}",
            )
        if "scale" in entry:
            v = entry["scale"]
            _require(
                isinstance(v, numeric) and not isinstance(v, bool) and v > 0,
                f"point scale must be positive, got {v!r}",
            )
        if "seed" in entry:
            v = entry["seed"]
            _require(
                isinstance(v, int) and not isinstance(v, bool),
                f"point seed must be an integer, got {v!r}",
            )
        if "warmup" in entry:
            v = entry["warmup"]
            _require(
                isinstance(v, numeric)
                and not isinstance(v, bool)
                and 0.0 <= v < 1.0,
                f"point warmup must be in [0, 1), got {v!r}",
            )

    def _all_workloads(self) -> List[str]:
        return [*self.workloads, *(str(p["workload"]) for p in self.points)]

    def _all_technique_labels(self) -> List[str]:
        return [*self.techniques, *(str(p["technique"]) for p in self.points)]

    # -- execution context ----------------------------------------------------
    def context(self, **overrides: Any) -> Dict[str, Any]:
        """The spec's requested runner context, merged with overrides.

        Overrides whose value is ``None`` (an unset CLI flag) defer to
        the spec's ``[run]`` table; everything still unset is left out,
        so the runner's own defaults apply last.
        """
        ctx = dict(self.run)
        for key, value in overrides.items():
            _require(key in CONTEXT_KEYS, f"unknown context key {key!r}")
            if value is not None:
                ctx[key] = value
        return ctx

    # -- expansion ------------------------------------------------------------
    def _skipped(self, workload: str, size_mb: int, label: str) -> bool:
        for rule in self.skip:
            if "workload" in rule and rule["workload"] != workload:
                continue
            if "size_mb" in rule and int(rule["size_mb"]) != size_mb:
                continue
            if "technique" in rule and rule["technique"] != label:
                continue
            return True
        return False

    def expand(self, scale: float = 1.0) -> List[SweepPoint]:
        """The ordered point list this scenario describes.

        ``scale`` resolves the paper's nominal technique labels to
        scaled decay cycles (pass the executing runner's scale; the
        runner does this via ``expand_spec``).  Grid order is the
        harness's canonical sweep order — sizes, then workloads, then
        techniques — followed by the explicit ``points`` in file order.
        A point that pins its own ``scale`` resolves its technique with
        that value instead.
        """
        out: List[SweepPoint] = []
        for mb in self.sizes_mb:
            for wl in self.workloads:
                for label in self.techniques:
                    if self._skipped(wl, mb, label):
                        continue
                    out.append(
                        SweepPoint(
                            workload=wl,
                            total_mb=mb,
                            technique=resolve_technique(
                                label, scale, self.custom_techniques
                            ),
                            tech_label=label,
                        )
                    )
        for entry in self.points:
            label = str(entry["technique"])
            overrides = {
                key: entry[key] for key in CONTEXT_KEYS if key in entry
            }
            point_scale = float(overrides.get("scale", scale))
            out.append(
                SweepPoint(
                    workload=str(entry["workload"]),
                    total_mb=int(entry["size_mb"]),
                    technique=resolve_technique(
                        label, point_scale, self.custom_techniques
                    ),
                    tech_label=label,
                    **overrides,
                )
            )
        return out

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical dict (the on-disk schema, format 1)."""
        out: Dict[str, Any] = {
            "format": SPEC_FORMAT,
            "name": self.name,
        }
        if self.description:
            out["description"] = self.description
        if self.workloads or self.sizes_mb or self.techniques:
            out["axes"] = {
                "workloads": list(self.workloads),
                "sizes_mb": list(self.sizes_mb),
                "techniques": list(self.techniques),
            }
        if self.custom_techniques:
            out["techniques"] = {
                label: cfg.to_dict()
                for label, cfg in self.custom_techniques.items()
            }
        if self.run:
            out["run"] = dict(self.run)
        if self.skip:
            out["skip"] = [dict(rule) for rule in self.skip]
        if self.points:
            out["points"] = [dict(entry) for entry in self.points]
        if self.ensemble:
            out["ensemble"] = dict(self.ensemble)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (validating)."""
        _require(isinstance(data, Mapping), f"spec must be a dict, got {data!r}")
        fmt = data.get("format", SPEC_FORMAT)
        _require(
            fmt == SPEC_FORMAT,
            f"unsupported spec format {fmt!r} (this build reads "
            f"format {SPEC_FORMAT})",
        )
        known = {
            "format", "name", "description", "axes", "techniques", "run",
            "skip", "points", "ensemble",
        }
        unknown = set(data) - known
        _require(
            not unknown,
            f"unknown spec sections: {', '.join(sorted(unknown))}",
        )
        axes = data.get("axes", {})
        _require(isinstance(axes, Mapping), "[axes] must be a table")
        bad_axes = set(axes) - {"workloads", "sizes_mb", "techniques"}
        _require(
            not bad_axes,
            f"unknown [axes] keys: {', '.join(sorted(bad_axes))}",
        )
        custom_raw = data.get("techniques", {})
        _require(isinstance(custom_raw, Mapping), "[techniques] must be a table")
        _require(
            isinstance(data.get("ensemble", {}), Mapping),
            "[ensemble] must be a table",
        )
        custom: Dict[str, TechniqueConfig] = {}
        for label, table in custom_raw.items():
            try:
                custom[label] = TechniqueConfig.from_dict(table)
            except ValueError as exc:
                raise SpecError(
                    f"bad technique table [techniques.{label}]: {exc}"
                ) from exc
        return cls(
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            workloads=tuple(axes.get("workloads", ())),
            sizes_mb=tuple(axes.get("sizes_mb", ())),
            techniques=tuple(axes.get("techniques", ())),
            custom_techniques=custom,
            run=dict(data.get("run", {})),
            skip=tuple(data.get("skip", ())),
            points=tuple(data.get("points", ())),
            ensemble=dict(data.get("ensemble", {})),
        )

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON spec document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON spec: {exc}") from exc
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """Canonical TOML text (the preferred on-disk format)."""
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        """Parse a TOML spec document."""
        return cls.from_dict(loads_toml(text))


# ---------------------------------------------------------------------------
# Spec construction helpers
# ---------------------------------------------------------------------------
def grid_spec(
    name: str,
    workloads: Iterable[str],
    sizes_mb: Iterable[int],
    techniques: Iterable[str],
    description: str = "",
    **kwargs: Any,
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` for a plain (workload×size×technique) grid."""
    return ExperimentSpec(
        name=name,
        description=description,
        workloads=tuple(workloads),
        sizes_mb=tuple(sizes_mb),
        techniques=tuple(techniques),
        **kwargs,
    )


def paper_matrix_spec() -> ExperimentSpec:
    """The paper's full figure matrix as a spec (6 × 4 × 8 = 192 points).

    This is the programmatic twin of the shipped
    ``specs/paper_matrix.toml``; a regression test keeps the two equal.
    """
    from ..sim.config import PAPER_TOTAL_L2_MB
    from ..workloads.registry import PAPER_BENCHMARKS

    return grid_spec(
        name="paper_matrix",
        description=(
            "Full figure matrix of Monchiero et al., ICPP 2009: 6 "
            "benchmarks x 4 total-L2 capacities x 8 technique configs. "
            "Scale/seed are inherited from the runner so the same spec "
            "replays at any fidelity."
        ),
        workloads=PAPER_BENCHMARKS,
        sizes_mb=PAPER_TOTAL_L2_MB,
        techniques=(BASELINE, *paper_technique_order()),
    )


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------
def load_spec(path: str) -> ExperimentSpec:
    """Load a spec file, dispatching on extension (.toml / .json).

    The loaded spec remembers its directory in ``base_dir`` so relative
    ``trace:`` workload paths resolve against the spec file, wherever
    the process's working directory is.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        spec = ExperimentSpec.from_json(text)
    elif path.endswith(".toml"):
        spec = ExperimentSpec.from_toml(text)
    else:
        raise SpecError(f"{path}: spec files must end in .toml or .json")
    spec.base_dir = os.path.dirname(os.path.abspath(path))
    return spec


def save_spec(spec: ExperimentSpec, path: str) -> str:
    """Write a spec file, dispatching on extension (.toml / .json)."""
    if path.endswith(".json"):
        text = spec.to_json()
    elif path.endswith(".toml"):
        text = spec.to_toml()
    else:
        raise SpecError(f"{path}: spec files must end in .toml or .json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# TOML (subset) emitter + reader
# ---------------------------------------------------------------------------
# Spec documents use a small, regular TOML subset: scalar top-level keys,
# one level of tables ([axes], [run], [techniques.<label>]), and arrays
# of tables ([[skip]], [[points]]).  The emitter below produces it; the
# stdlib ``tomllib`` reads it (and any hand-edited TOML) back.


def _toml_scalar(value: Any) -> str:
    """Format one scalar/array value as TOML."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        return text if ("." in text or "e" in text or "n" in text) else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings share JSON escaping
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise SpecError(f"cannot serialize {value!r} to TOML")


_BARE_KEY_RE = re.compile(r"^[A-Za-z0-9_-]+$")


def _toml_key(key: str) -> str:
    """Quote ``key`` unless it is a bare TOML key.

    Custom-technique labels (e.g. ``decay@16K``) are arbitrary strings;
    emitting them unquoted in ``[techniques.<label>]`` headers produces
    invalid TOML that ``tomllib`` rejects on load.
    """
    if _BARE_KEY_RE.match(key):
        return key
    return json.dumps(key)  # TOML basic strings share JSON escaping


def _toml_table_body(table: Mapping[str, Any]) -> List[str]:
    """``key = value`` lines of one table (scalars and arrays only)."""
    lines = []
    for key, value in table.items():
        if isinstance(value, Mapping):
            raise SpecError(
                f"nested table under {key!r} is deeper than the spec "
                f"TOML subset supports"
            )
        lines.append(f"{_toml_key(key)} = {_toml_scalar(value)}")
    return lines


def dumps_toml(data: Mapping[str, Any]) -> str:
    """Serialize a spec dict to TOML (subset; see module notes)."""
    chunks: List[str] = []
    scalars = {
        k: v
        for k, v in data.items()
        if not isinstance(v, Mapping)
        and not (isinstance(v, list) and v and isinstance(v[0], Mapping))
    }
    if scalars:
        chunks.append("\n".join(_toml_table_body(scalars)))
    for key, value in data.items():
        if key in scalars:
            continue
        if isinstance(value, Mapping):
            subtables = {
                k: v for k, v in value.items() if isinstance(v, Mapping)
            }
            plain = {k: v for k, v in value.items() if k not in subtables}
            if plain or not subtables:
                chunks.append(
                    "\n".join([f"[{_toml_key(key)}]", *_toml_table_body(plain)])
                )
            for sub, table in subtables.items():
                chunks.append(
                    "\n".join(
                        [
                            f"[{_toml_key(key)}.{_toml_key(sub)}]",
                            *_toml_table_body(table),
                        ]
                    )
                )
        else:  # list of tables
            for entry in value:
                chunks.append(
                    "\n".join([f"[[{_toml_key(key)}]]", *_toml_table_body(entry)])
                )
    return "\n\n".join(chunks) + "\n"


def loads_toml(text: str) -> Dict[str, Any]:
    """Parse TOML text into a dict with the stdlib ``tomllib``."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"invalid TOML spec: {exc}") from exc
