"""Unit tests of the formal result-query API (no simulation needed)."""

from __future__ import annotations

import pytest

from repro.harness.metrics import PointMetrics
from repro.harness.query import (
    PROJECTION_FIELDS,
    QUERY_FIELDS,
    QueryError,
    ResultQuery,
    index_by_triple,
)


def mk(workload, total_mb, technique, **kw) -> PointMetrics:
    """A metric row with recognizable default values."""
    values = dict(
        occupancy=0.9,
        miss_rate=0.01,
        bandwidth_increase=0.0,
        amat_increase=0.0,
        ipc_loss=0.02,
        energy_reduction=0.1,
        l2_leakage_share=0.3,
    )
    values.update(kw)
    return PointMetrics(
        workload=workload, total_mb=total_mb, technique=technique, **values
    )


ROWS = [
    mk("uniform", 1, "baseline", energy_reduction=0.0),
    mk("uniform", 1, "protocol", energy_reduction=0.10),
    mk("uniform", 4, "protocol", energy_reduction=0.25),
    mk("fft", 4, "decay64K", energy_reduction=0.40, n_cores=8),
    mk("fft", 8, "decay64K", energy_reduction=0.44),
]


class TestFiltering:
    def test_zero_query_selects_everything_unchanged(self):
        assert ResultQuery().apply(ROWS) == ROWS

    def test_each_axis_filters(self):
        assert len(ResultQuery(workloads=("uniform",)).apply(ROWS)) == 3
        assert len(ResultQuery(sizes_mb=(4,)).apply(ROWS)) == 2
        assert len(ResultQuery(techniques=("protocol",)).apply(ROWS)) == 2
        assert len(ResultQuery(cores=(8,)).apply(ROWS)) == 1

    def test_axes_are_or_within_and_across(self):
        q = ResultQuery(workloads=("uniform", "fft"), sizes_mb=(4,))
        assert [(m.workload, m.total_mb) for m in q.apply(ROWS)] == [
            ("uniform", 4),
            ("fft", 4),
        ]

    def test_cores_filter_excludes_default_core_rows(self):
        # rows inheriting the runner default carry n_cores=None and are
        # not matched by an explicit cores filter
        assert ResultQuery(cores=(4,)).apply(ROWS) == []


class TestArrange:
    def test_sort_ascending_and_descending(self):
        up = ResultQuery(sort=("energy_reduction",)).apply(ROWS)
        assert [m.energy_reduction for m in up] == sorted(
            m.energy_reduction for m in ROWS
        )
        down = ResultQuery(sort=("-energy_reduction",)).apply(ROWS)
        assert down == list(reversed(up))

    def test_multi_key_sort_is_stable_left_to_right(self):
        q = ResultQuery(sort=("workload", "-total_mb"))
        got = [(m.workload, m.total_mb) for m in q.apply(ROWS)]
        assert got == [("fft", 8), ("fft", 4), ("uniform", 4), ("uniform", 1),
                       ("uniform", 1)]

    def test_none_values_sort_last(self):
        rows = [mk("a", 1, "t", n_cores=None), mk("b", 1, "t", n_cores=2)]
        got = ResultQuery(sort=("n_cores",)).apply(rows)
        assert [m.workload for m in got] == ["b", "a"]

    def test_limit_truncates_after_sort(self):
        q = ResultQuery(sort=("-energy_reduction",), limit=2)
        assert [m.energy_reduction for m in q.apply(ROWS)] == [0.44, 0.40]

    def test_sort_reads_ensemble_stats_means(self):
        from repro.scenarios.stats import EnsembleMetrics, SummaryStat

        def stat(v):
            return SummaryStat(mean=v, stddev=0.0, ci95=0.0, n=3)

        rows = [
            EnsembleMetrics("a", 1, "t", stats={"ipc_loss": stat(0.3)}),
            EnsembleMetrics("b", 1, "t", stats={"ipc_loss": stat(0.1)}),
        ]
        got = ResultQuery(sort=("ipc_loss",)).arrange(rows)
        assert [r.workload for r in got] == ["b", "a"]

    def test_sort_on_unknown_row_shape_raises(self):
        with pytest.raises(QueryError, match="cannot sort"):
            ResultQuery(sort=("occupancy",)).arrange([object()])


class TestProjection:
    def test_default_projection_keeps_all_columns(self):
        row = {"digest": "d", "workload": "uniform"}
        assert ResultQuery().project(row) == row

    def test_fields_project_and_order(self):
        q = ResultQuery(fields=("digest", "energy_reduction"))
        row = {"digest": "d", "workload": "u", "energy_reduction": 0.1}
        assert q.project(row) == {"digest": "d", "energy_reduction": 0.1}


class TestValidation:
    def test_unknown_sort_column_rejected(self):
        with pytest.raises(QueryError, match="unknown sort column"):
            ResultQuery(sort=("speed",))

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError, match="unknown field"):
            ResultQuery(fields=("nope",))

    def test_bad_limit_rejected(self):
        with pytest.raises(QueryError, match="limit"):
            ResultQuery(limit=0)

    def test_bad_size_rejected(self):
        with pytest.raises(QueryError, match="size filters"):
            ResultQuery(sizes_mb=(0,))

    def test_digest_is_projectable_but_not_sortable(self):
        assert "digest" in PROJECTION_FIELDS
        assert "digest" not in QUERY_FIELDS
        with pytest.raises(QueryError):
            ResultQuery(sort=("digest",))


class TestParsing:
    def test_parse_compact_form(self):
        q = ResultQuery.parse(
            "workload=uniform,fft size=4 sort=-energy_reduction "
            "fields=digest,workload limit=5"
        )
        assert q == ResultQuery(
            workloads=("uniform", "fft"),
            sizes_mb=(4,),
            sort=("-energy_reduction",),
            fields=("digest", "workload"),
            limit=5,
        )

    def test_empty_string_is_the_zero_query(self):
        assert ResultQuery.parse("") == ResultQuery()

    def test_aliases(self):
        for text in ("size=4", "sizes=4", "size_mb=4", "total_mb=4"):
            assert ResultQuery.parse(text).sizes_mb == (4,)
        for text in ("cores=8", "n_cores=8"):
            assert ResultQuery.parse(text).cores == (8,)
        assert ResultQuery.parse("technique=decay64K").techniques == (
            "decay64K",
        )

    def test_repeated_keys_extend_the_axis(self):
        q = ResultQuery.from_params([("workload", "a"), ("workload", "b")])
        assert q.workloads == ("a", "b")

    def test_unknown_key_rejected(self):
        with pytest.raises(QueryError, match="unknown query key"):
            ResultQuery.parse("speed=9")

    def test_non_integer_size_rejected(self):
        with pytest.raises(QueryError, match="integers"):
            ResultQuery.parse("size=big")

    def test_token_without_equals_rejected(self):
        with pytest.raises(QueryError, match="key=value"):
            ResultQuery.parse("workload")


class TestSerialization:
    Q = ResultQuery(
        workloads=("uniform",),
        sizes_mb=(1, 4),
        techniques=("protocol",),
        sort=("-energy_reduction",),
        fields=("digest", "workload", "energy_reduction"),
        limit=3,
    )

    def test_dict_round_trip_omits_empty_axes(self):
        data = ResultQuery(workloads=("a",)).to_dict()
        assert data == {"workloads": ["a"]}
        assert ResultQuery.from_dict(data) == ResultQuery(workloads=("a",))

    def test_json_round_trip(self):
        assert ResultQuery.from_json(self.Q.to_json()) == self.Q

    def test_toml_round_trip(self):
        assert ResultQuery.from_toml(self.Q.to_toml()) == self.Q

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(QueryError, match="unknown query keys"):
            ResultQuery.from_dict({"speed": 1})

    def test_queries_are_frozen_and_hashable(self):
        assert hash(self.Q) == hash(ResultQuery.from_json(self.Q.to_json()))


class TestIndexByTriple:
    def test_indexes_rows(self):
        idx = index_by_triple(ROWS)
        assert idx[("uniform", 4, "protocol")] is ROWS[2]
        assert len(idx) == len(ROWS)
