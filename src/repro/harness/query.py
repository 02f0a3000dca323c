"""The formal result-query API: one query object, four consumers.

Selection used to be scattered: ``figures.py`` filtered metric lists
with loose coordinate kwargs, the CLI emitted tables and CSV with its
own ad-hoc loops, and the ensemble aggregator picked columns by hand.
This module extracts that logic into one frozen, serializable
:class:`ResultQuery` — filter axes + sort + projection + limit —
executed through a single seam, :meth:`ResultStore.run_query`, by every
consumer:

* the CLI (``repro-cmp query``, ``--query`` on ``run``/``scenario run``),
* the figure renderer (the slice builders in ``figures.py``),
* the ensemble aggregator (``repro.scenarios.stats.aggregate_metrics``),
* the HTTP result service (``repro.serving``, ``GET /v1/query``).

Like :class:`~repro.harness.spec.ExperimentSpec`, a query round-trips
losslessly through JSON and TOML, and additionally parses from the
compact ``key=value`` form shared by the CLI filter argument and HTTP
query strings — the same text selects the same rows everywhere.

:class:`ResultStore` mounts the pair (result-cache directory, experiment
spec) as a read-only table of metric rows: each expanded point is looked
up in the cache (never simulated unless ``simulate_missing``), paired
against its baseline twin, and addressed by its process-independent
:meth:`~repro.harness.spec.SweepPoint.digest`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .metrics import PointMetrics
from .runner import SweepRunner
from .spec import ExperimentSpec, SweepPoint, dumps_toml, loads_toml

#: coordinate columns every metric row carries
COORDINATE_FIELDS: Tuple[str, ...] = (
    "workload",
    "total_mb",
    "technique",
    "n_cores",
)

#: metric columns of a :class:`~repro.harness.metrics.PointMetrics` row
METRIC_FIELDS: Tuple[str, ...] = (
    "occupancy",
    "miss_rate",
    "bandwidth_increase",
    "amat_increase",
    "ipc_loss",
    "energy_reduction",
    "l2_leakage_share",
    "peak_temp_c",
)

#: every sortable/filterable column name
QUERY_FIELDS: Tuple[str, ...] = COORDINATE_FIELDS + METRIC_FIELDS

#: every projectable column name (rows served by a store also carry the
#: point digest, which is an address rather than a measurement)
PROJECTION_FIELDS: Tuple[str, ...] = ("digest",) + QUERY_FIELDS

#: accepted query keys (CLI tokens and HTTP params) -> canonical field
PARAM_ALIASES: Dict[str, str] = {
    "workload": "workloads",
    "workloads": "workloads",
    "size": "sizes_mb",
    "sizes": "sizes_mb",
    "size_mb": "sizes_mb",
    "sizes_mb": "sizes_mb",
    "total_mb": "sizes_mb",
    "technique": "techniques",
    "techniques": "techniques",
    "cores": "cores",
    "n_cores": "cores",
    "sort": "sort",
    "fields": "fields",
    "limit": "limit",
}


class QueryError(ValueError):
    """A result query failed to parse or validate."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise QueryError(message)


_MISSING = object()


def _sort_value(row: Any, attr: str) -> Tuple[bool, Any]:
    """Sort key of one row attribute; ``None`` values order last (asc).

    Works on :class:`~repro.harness.metrics.PointMetrics` (plain
    attributes) and on ensemble summary rows, whose metric values live
    in a ``stats`` mapping of
    :class:`~repro.scenarios.stats.SummaryStat` — there the *mean*
    orders the row.
    """
    value = getattr(row, attr, _MISSING)
    if value is _MISSING:
        stats = getattr(row, "stats", None)
        if stats is not None and attr in stats:
            value = stats[attr].mean
        else:
            raise QueryError(
                f"cannot sort these rows by {attr!r} (not a column of "
                f"{type(row).__name__})"
            )
    return (value is None, 0 if value is None else value)


@dataclass(frozen=True)
class ResultQuery:
    """One declarative selection over metric rows.

    Empty filter tuples mean "any value"; the zero query selects every
    row unchanged.  ``sort`` names columns, optionally ``-``-prefixed
    for descending, applied stably left-to-right; ``fields`` projects
    the served row dicts (the ``digest`` pseudo-column is projectable);
    ``limit`` truncates after sorting.  Instances are frozen and
    hashable, and round-trip through JSON/TOML like experiment specs.
    """

    workloads: Tuple[str, ...] = ()
    sizes_mb: Tuple[int, ...] = ()
    techniques: Tuple[str, ...] = ()
    cores: Tuple[int, ...] = ()
    sort: Tuple[str, ...] = ()
    fields: Tuple[str, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("workloads", "sizes_mb", "techniques", "cores", "sort", "fields"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for wl in self.workloads:
            _require(
                isinstance(wl, str) and bool(wl),
                f"workload filters must be names, got {wl!r}",
            )
        for mb in self.sizes_mb:
            _require(
                isinstance(mb, int) and not isinstance(mb, bool) and mb >= 1,
                f"size filters must be positive integers (MB), got {mb!r}",
            )
        for tech in self.techniques:
            _require(
                isinstance(tech, str) and bool(tech),
                f"technique filters must be labels, got {tech!r}",
            )
        for n in self.cores:
            _require(
                isinstance(n, int) and not isinstance(n, bool) and n >= 1,
                f"cores filters must be positive integers, got {n!r}",
            )
        for token in self.sort:
            _require(
                isinstance(token, str) and token.lstrip("-") in QUERY_FIELDS,
                f"unknown sort column {token!r}; one of: "
                f"{', '.join(QUERY_FIELDS)} (prefix with '-' to descend)",
            )
        for name in self.fields:
            _require(
                name in PROJECTION_FIELDS,
                f"unknown field {name!r}; one of: "
                f"{', '.join(PROJECTION_FIELDS)}",
            )
        if self.limit is not None:
            _require(
                isinstance(self.limit, int)
                and not isinstance(self.limit, bool)
                and self.limit >= 1,
                f"limit must be a positive integer, got {self.limit!r}",
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def matches(self, row: Any) -> bool:
        """Whether one row passes every filter axis.

        ``row`` needs the coordinate attributes (``workload``,
        ``total_mb``, ``technique``, ``n_cores``) — point metrics and
        ensemble summary rows both qualify.  A ``cores`` filter matches
        only rows that *pin* ``n_cores``; rows inheriting the runner
        default carry ``None`` and are excluded.
        """
        if self.workloads and row.workload not in self.workloads:
            return False
        if self.sizes_mb and row.total_mb not in self.sizes_mb:
            return False
        if self.techniques and row.technique not in self.techniques:
            return False
        if self.cores and row.n_cores not in self.cores:
            return False
        return True

    def arrange(self, rows: Sequence[Any]) -> List[Any]:
        """Sort (stably, left-to-right precedence) and apply ``limit``."""
        out = list(rows)
        for token in reversed(self.sort):
            descending = token.startswith("-")
            attr = token.lstrip("-")
            out.sort(key=lambda r: _sort_value(r, attr), reverse=descending)
        if self.limit is not None:
            out = out[: self.limit]
        return out

    def apply(self, rows: Iterable[Any]) -> List[Any]:
        """Filter + sort + limit: the whole query over in-memory rows.

        This is the single implementation of row selection — figure
        slice builders, the ensemble aggregator, the CLI and the HTTP
        service all funnel through it (directly or via
        :meth:`ResultStore.run_query`).
        """
        return self.arrange([r for r in rows if self.matches(r)])

    def project(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        """Project one row dict onto ``fields`` (all columns when unset)."""
        if not self.fields:
            return dict(row)
        return {name: row.get(name) for name in self.fields}

    # ------------------------------------------------------------------
    # Parsing (CLI filter strings and HTTP query parameters)
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "ResultQuery":
        """Parse the compact filter form: whitespace-separated ``k=v``.

        Example: ``'workload=uniform,fft size=4 sort=-energy_reduction
        fields=workload,technique,energy_reduction limit=5'``.  The
        empty string is the zero query (select everything).
        """
        pairs: List[Tuple[str, str]] = []
        for token in text.split():
            _require(
                "=" in token,
                f"bad query token {token!r}; expected key=value",
            )
            key, _, value = token.partition("=")
            pairs.append((key, value))
        return cls.from_params(pairs)

    @classmethod
    def from_params(cls, pairs: Iterable[Tuple[str, str]]) -> "ResultQuery":
        """Build from ``(key, value)`` pairs (HTTP query-string shaped).

        Keys accept the aliases in :data:`PARAM_ALIASES` (``size`` and
        ``total_mb`` both filter capacity; ``cores`` and ``n_cores`` are
        synonyms); repeated keys and comma-separated values both extend
        the same filter axis.  Raises :class:`QueryError` on unknown
        keys or unparseable values.
        """
        buckets: Dict[str, List[str]] = {}
        for key, raw in pairs:
            canonical = PARAM_ALIASES.get(str(key).strip().lower())
            _require(
                canonical is not None,
                f"unknown query key {key!r}; one of: "
                f"{', '.join(sorted(set(PARAM_ALIASES)))}",
            )
            for part in str(raw).split(","):
                part = part.strip()
                if part:
                    buckets.setdefault(canonical, []).append(part)

        def ints(name: str) -> Tuple[int, ...]:
            out = []
            for part in buckets.get(name, ()):
                try:
                    out.append(int(part))
                except ValueError:
                    raise QueryError(
                        f"{name} values must be integers, got {part!r}"
                    ) from None
            return tuple(out)

        limit: Optional[int] = None
        if "limit" in buckets:
            values = buckets["limit"]
            _require(
                len(values) == 1,
                f"limit given {len(values)} times; pass one value",
            )
            try:
                limit = int(values[0])
            except ValueError:
                raise QueryError(
                    f"limit must be an integer, got {values[0]!r}"
                ) from None
        return cls(
            workloads=tuple(buckets.get("workloads", ())),
            sizes_mb=ints("sizes_mb"),
            techniques=tuple(buckets.get("techniques", ())),
            cores=ints("cores"),
            sort=tuple(buckets.get("sort", ())),
            fields=tuple(buckets.get("fields", ())),
            limit=limit,
        )

    # ------------------------------------------------------------------
    # Serialization (JSON/TOML round-trip, like ExperimentSpec)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical dict; unset axes are omitted."""
        out: Dict[str, Any] = {}
        for name in ("workloads", "sizes_mb", "techniques", "cores", "sort", "fields"):
            value = getattr(self, name)
            if value:
                out[name] = list(value)
        if self.limit is not None:
            out["limit"] = self.limit
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultQuery":
        """Rebuild a query from :meth:`to_dict` output (validating)."""
        _require(
            isinstance(data, Mapping), f"query must be a dict, got {data!r}"
        )
        known = {
            "workloads", "sizes_mb", "techniques", "cores", "sort", "fields",
            "limit",
        }
        unknown = set(data) - known
        _require(
            not unknown,
            f"unknown query keys: {', '.join(sorted(unknown))}",
        )
        return cls(
            workloads=tuple(data.get("workloads", ())),
            sizes_mb=tuple(data.get("sizes_mb", ())),
            techniques=tuple(data.get("techniques", ())),
            cores=tuple(data.get("cores", ())),
            sort=tuple(data.get("sort", ())),
            fields=tuple(data.get("fields", ())),
            limit=data.get("limit"),
        )

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultQuery":
        """Parse a JSON query document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QueryError(f"invalid JSON query: {exc}") from exc
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """Canonical TOML text."""
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ResultQuery":
        """Parse a TOML query document."""
        return cls.from_dict(loads_toml(text))


def index_by_triple(
    metrics: Iterable[PointMetrics],
) -> Dict[Tuple[str, int, str], PointMetrics]:
    """Index metric rows by ``(workload, total_mb, technique)``."""
    return {(m.workload, m.total_mb, m.technique): m for m in metrics}


@dataclass
class QueryResult:
    """Everything one :meth:`ResultStore.run_query` execution produced.

    ``metrics`` are the selected rows as objects (figure/table
    consumers); ``rows`` are the same rows as projected, JSON-safe dicts
    with the point ``digest`` (wire consumers).  ``missing`` counts spec
    points whose results are not in the cache — selection never sees
    them — and ``total`` is the full expansion size.
    """

    name: str
    query: ResultQuery
    metrics: List[PointMetrics] = field(default_factory=list)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    missing: int = 0
    total: int = 0

    @property
    def matched(self) -> int:
        """How many rows the query selected."""
        return len(self.rows)


class ResultStore:
    """A read-only table of metric rows over (result cache, spec).

    The store expands the spec once, pairs every point with its baseline
    twin through the runner's cache, and indexes the rows by point
    digest.  Missing entries (either the point's blob or its baseline's)
    are *skipped* — a serving layer must never silently burn CPU
    resimulating — unless ``simulate_missing`` asks for on-demand fill
    (the CLI's ``--simulate``).  Rows are computed lazily and memoized:
    the store is a snapshot, matching the immutability contract of the
    content-addressed read path.
    """

    def __init__(
        self,
        runner: SweepRunner,
        spec: ExperimentSpec,
        simulate_missing: bool = False,
    ) -> None:
        self.runner = runner
        self.spec = spec
        self.simulate_missing = simulate_missing
        self._points: Optional[List[SweepPoint]] = None
        self._pairs: Optional[List[Tuple[SweepPoint, Optional[PointMetrics]]]] = None
        self._by_digest: Optional[Dict[str, SweepPoint]] = None

    @classmethod
    def open(
        cls,
        cache_dir: str,
        spec: ExperimentSpec,
        scale: Optional[float] = None,
        seed: Optional[int] = None,
        n_cores: Optional[int] = None,
        warmup: Optional[float] = None,
        simulate_missing: bool = False,
        verbose: bool = False,
        trace_root: Optional[str] = None,
    ) -> "ResultStore":
        """Mount a cache directory under a spec's resolved run context.

        Context resolution mirrors ``repro-cmp run``: explicit keyword
        overrides beat the spec's ``[run]`` table, which beats the
        runner defaults — so the store computes exactly the cache keys a
        run of the same spec populated.  ``trace_root`` anchors relative
        ``trace:`` workload paths; it defaults to the spec file's own
        directory (``spec.base_dir``), matching ``repro-cmp run``.
        """
        ctx = spec.context(
            scale=scale, seed=seed, n_cores=n_cores, warmup=warmup
        )
        kwargs: Dict[str, Any] = {}
        if "scale" in ctx:
            kwargs["scale"] = float(ctx["scale"])
        if "seed" in ctx:
            kwargs["seed"] = int(ctx["seed"])
        if "n_cores" in ctx:
            kwargs["n_cores"] = int(ctx["n_cores"])
        if "warmup" in ctx:
            kwargs["warmup_fraction"] = float(ctx["warmup"])
        runner = SweepRunner(
            cache_dir=cache_dir,
            verbose=verbose,
            trace_root=trace_root if trace_root is not None else spec.base_dir,
            **kwargs,
        )
        return cls(runner, spec, simulate_missing=simulate_missing)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The mounted spec's name (labels query results)."""
        return self.spec.name

    def points(self) -> List[SweepPoint]:
        """The spec's expanded point list (memoized)."""
        if self._points is None:
            self._points = self.runner.expand_spec(self.spec)
        return self._points

    def digest_index(self) -> Dict[str, SweepPoint]:
        """Point digest -> point, for the content-addressed read path."""
        if self._by_digest is None:
            self._by_digest = {p.digest(): p for p in self.points()}
        return self._by_digest

    def _metrics_or_none(self, point: SweepPoint) -> Optional[PointMetrics]:
        if self.simulate_missing:
            return self.runner.metrics_for(point)
        base = self.runner.lookup(point.baseline_twin())
        pair = self.runner.lookup(point)
        if base is None or pair is None:
            return None
        return PointMetrics.for_point(point, base[0], base[1], pair[0], pair[1])

    def pairs(self) -> List[Tuple[SweepPoint, Optional[PointMetrics]]]:
        """``(point, metrics-or-None)`` per spec point, in spec order."""
        if self._pairs is None:
            self._pairs = [(p, self._metrics_or_none(p)) for p in self.points()]
        return self._pairs

    def metrics(self) -> List[PointMetrics]:
        """Every available metric row, in spec order."""
        return [m for _, m in self.pairs() if m is not None]

    def missing_points(self) -> List[SweepPoint]:
        """Spec points whose results (or baselines) are not cached."""
        return [p for p, m in self.pairs() if m is None]

    # ------------------------------------------------------------------
    def run_query(self, query: ResultQuery) -> QueryResult:
        """Execute one query against the store: the consumer seam.

        Selection/order/limit run through :meth:`ResultQuery.apply`;
        the wire rows carry each point's digest and honor the query's
        projection.
        """
        selected = query.apply(self.metrics())
        point_of = {id(m): p for p, m in self.pairs() if m is not None}
        rows = [
            query.project({"digest": point_of[id(m)].digest(), **m.as_dict()})
            for m in selected
        ]
        return QueryResult(
            name=self.name,
            query=query,
            metrics=selected,
            rows=rows,
            missing=len(self.missing_points()),
            total=len(self.points()),
        )

    def metrics_for_digest(
        self, digest: str
    ) -> Optional[Tuple[SweepPoint, Optional[PointMetrics]]]:
        """Resolve one point digest; ``None`` when the spec lacks it.

        A known digest whose blob (or baseline) is uncached returns
        ``(point, None)`` — the serving layer maps that to 404 without
        conflating it with an unknown address.
        """
        point = self.digest_index().get(digest)
        if point is None:
            return None
        for p, m in self.pairs():
            if p is point:
                return (p, m)
        return (point, None)  # pragma: no cover - index/pairs stay in sync

    def provenance_for_digest(self, digest: str) -> Optional[Dict[str, Any]]:
        """Provenance sidecar of one point digest; ``None`` when absent."""
        point = self.digest_index().get(digest)
        if point is None or self.runner.cache is None:
            return None
        return self.runner.cache.get_provenance(self.runner.point_key(point))
