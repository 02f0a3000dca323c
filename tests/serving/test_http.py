"""HTTP-layer tests: the content-addressed serving contract."""

from __future__ import annotations

import json
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.harness.query import ResultQuery, ResultStore
from repro.serving import BackgroundServer, ResultService

from serving_utils import get_json, http_get, serving_spec


def first_digest(port: int) -> str:
    """The digest of some cached row, via the query endpoint."""
    status, doc = get_json(port, "/v1/query?technique=protocol")
    assert status == 200 and doc["rows"]
    return doc["rows"][0]["digest"]


class TestPointMetrics:
    def test_etag_and_immutable_cache_policy(self, server):
        digest = first_digest(server.port)
        status, headers, body = http_get(
            server.port, f"/v1/points/{digest}/metrics"
        )
        assert status == 200
        assert headers["etag"] == f'"{digest}"'
        assert "immutable" in headers["cache-control"]
        assert json.loads(body)["digest"] == digest

    def test_repeated_fetches_are_byte_identical(self, server):
        digest = first_digest(server.port)
        path = f"/v1/points/{digest}/metrics"
        _, h1, b1 = http_get(server.port, path)
        _, h2, b2 = http_get(server.port, path)
        assert b1 == b2
        assert h1["etag"] == h2["etag"]
        assert int(h1["content-length"]) == len(b1)

    def test_byte_identity_across_server_restarts(self, populated_cache):
        """The acceptance property: a digest's body survives a restart."""
        cache_dir, _ = populated_cache
        fetched = []
        for _ in range(2):  # two independent stores + servers
            store = ResultStore.open(cache_dir, serving_spec())
            with BackgroundServer(ResultService(store).handle) as bg:
                digest = first_digest(bg.port)
                fetched.append(
                    http_get(bg.port, f"/v1/points/{digest}/metrics")
                )
        (s1, h1, b1), (s2, h2, b2) = fetched
        assert s1 == s2 == 200
        assert b1 == b2
        assert h1["etag"] == h2["etag"]

    def test_if_none_match_yields_304_with_empty_body(self, server):
        digest = first_digest(server.port)
        path = f"/v1/points/{digest}/metrics"
        _, headers, _ = http_get(server.port, path)
        status, h304, body = http_get(
            server.port, path, {"If-None-Match": headers["etag"]}
        )
        assert status == 304
        assert body == b""
        assert h304["etag"] == headers["etag"]
        assert "immutable" in h304["cache-control"]

    def test_stale_validator_serves_the_full_body(self, server):
        digest = first_digest(server.port)
        status, _, body = http_get(
            server.port,
            f"/v1/points/{digest}/metrics",
            {"If-None-Match": '"somethingelse"'},
        )
        assert status == 200 and body

    def test_unknown_digest_404s_with_json_error(self, server):
        status, doc = get_json(
            server.port, "/v1/points/" + "0" * 40 + "/metrics"
        )
        assert status == 404
        assert doc["error"]["status"] == 404

    def test_known_point_missing_from_cache_404s(self, tmp_path):
        store = ResultStore.open(str(tmp_path / "empty"), serving_spec())
        digest = store.points()[0].digest()
        with BackgroundServer(ResultService(store).handle) as bg:
            status, doc = get_json(bg.port, f"/v1/points/{digest}/metrics")
        assert status == 404
        assert "cache" in doc["error"]["message"]


class TestQueryEndpoint:
    def test_query_filters_rows(self, server):
        status, doc = get_json(server.port, "/v1/query?technique=protocol")
        assert status == 200
        assert doc["count"] == len(doc["rows"]) == 1
        assert doc["rows"][0]["technique"] == "protocol"
        assert doc["query"] == {"techniques": ["protocol"]}

    def test_query_echoes_totals(self, server, store):
        _, doc = get_json(server.port, "/v1/query")
        assert doc["total"] == len(store.points())
        assert doc["missing"] == 0

    def test_malformed_query_400s_with_json_error(self, server):
        status, doc = get_json(server.port, "/v1/query?bogus=1")
        assert status == 400
        assert doc["error"]["status"] == 400
        assert "bogus" in doc["error"]["message"]

    def test_bad_value_400s(self, server):
        status, doc = get_json(server.port, "/v1/query?size=big")
        assert status == 400
        assert "integer" in doc["error"]["message"]

    def test_csv_format(self, server):
        status, headers, body = http_get(
            server.port, "/v1/query?format=csv&fields=digest,technique"
        )
        assert status == 200
        assert "text/csv" in headers["content-type"]
        lines = body.decode().splitlines()
        assert lines[0] == "digest,technique"
        assert len(lines) == 3  # header + two rows

    def test_sort_and_fields_and_limit(self, server, store):
        top = max(store.metrics(), key=lambda m: m.energy_reduction)
        _, doc = get_json(
            server.port,
            "/v1/query?sort=-energy_reduction&fields=technique&limit=1",
        )
        assert doc["rows"] == [{"technique": top.technique}]


class TestOtherEndpoints:
    def test_index_describes_the_service(self, server, store):
        status, doc = get_json(server.port, "/")
        assert status == 200
        assert doc["spec"] == "serving_smoke"
        assert doc["cached"] == len(store.metrics())
        assert any("/v1/query" in e for e in doc["endpoints"])

    def test_unknown_path_404s(self, server):
        status, doc = get_json(server.port, "/v1/nope")
        assert status == 404
        assert doc["error"]["status"] == 404

    def test_manifest_lists_cached_entries(self, server, store):
        status, doc = get_json(server.port, "/v1/manifest")
        assert status == 200
        assert doc["count"] == len(doc["entries"]) == len(store.metrics())

    def test_manifest_is_fresh_not_the_stale_snapshot(self, tmp_path):
        """A key whose blob vanished is never served, even when the
        on-disk ``index.json`` still lists it."""
        store = ResultStore.open(
            str(tmp_path / "c"), serving_spec(), simulate_missing=True
        )
        store.metrics()  # populate the cache
        cache = store.runner.cache
        cache.write_manifest()
        victim = next(iter(cache.build_manifest()["entries"]))
        import os

        os.unlink(cache.path_for(victim))
        # the stale snapshot still lists it; the served manifest must not
        assert victim in (cache.read_manifest() or {}).get("entries", {})
        with BackgroundServer(ResultService(store).handle) as bg:
            status, doc = get_json(bg.port, "/v1/manifest")
        assert status == 200
        assert victim not in doc["entries"]

    def test_provenance_endpoint(self, server, store):
        point = store.points()[0]
        store.runner.cache.put_provenance(
            store.runner.point_key(point), {"worker": "w9"}
        )
        status, doc = get_json(
            server.port, f"/v1/provenance/{point.digest()}"
        )
        assert status == 200
        assert doc["provenance"] == {"worker": "w9"}
        status, _ = get_json(server.port, "/v1/provenance/" + "0" * 40)
        assert status == 404

    def test_figure_endpoint_renders_from_cache(self, server):
        status, doc = get_json(server.port, "/v1/figures/fig3a")
        assert status == 200
        assert doc["exp_id"] == "fig3a"
        assert doc["columns"] == ["1MB"]
        assert "baseline" in doc["rows"] and "protocol" in doc["rows"]

    def test_figure_csv_and_table1_and_404(self, server):
        status, headers, body = http_get(
            server.port, "/v1/figures/fig5a?format=csv"
        )
        assert status == 200 and "text/csv" in headers["content-type"]
        assert body.decode().startswith("fig5a,")
        status, doc = get_json(server.port, "/v1/figures/table1")
        assert status == 200 and doc["columns"] == ["clean", "dirty"]
        status, _ = get_json(server.port, "/v1/figures/fig99")
        assert status == 404


class TestProtocol:
    def test_post_is_405_with_allow_header(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/v1/query", body=b"{}")
            resp = conn.getresponse()
            assert resp.status == 405
            assert "GET" in resp.getheader("Allow", "")
            resp.read()
        finally:
            conn.close()

    def test_head_returns_headers_without_body(self, server):
        import http.client

        digest = first_digest(server.port)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("HEAD", f"/v1/points/{digest}/metrics")
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 200
            assert body == b""
            assert int(resp.getheader("Content-Length")) > 0
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "payload",
        [
            b"NONSENSE\r\n\r\n",
            # past the stream reader's 64 KiB line limit
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["garbage", "long_request_line", "long_header_line"],
    )
    def test_malformed_request_line_400s(self, server, payload):
        with socket.create_connection(("127.0.0.1", server.port), 10) as s:
            s.sendall(payload)
            data = s.recv(4096)
        assert data.startswith(b"HTTP/1.1 400 ")

    def test_keep_alive_serves_sequential_requests(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/query")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()

    def test_slow_request_times_out_with_408(self, store):
        """A client that stalls mid-request is 408'd and disconnected."""
        with BackgroundServer(
            ResultService(store).handle, read_timeout=0.3
        ) as bg:
            with socket.create_connection(("127.0.0.1", bg.port), 10) as s:
                s.settimeout(10)
                s.sendall(b"GET /v1/query HTTP/1.1\r\nHost: x")  # never finish
                data = b""
                while True:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    data += chunk
        assert data.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in data

    def test_idle_keep_alive_connection_times_out(self, store):
        """A connection idle between requests is also reclaimed."""
        with BackgroundServer(
            ResultService(store).handle, read_timeout=0.3
        ) as bg:
            with socket.create_connection(("127.0.0.1", bg.port), 10) as s:
                s.settimeout(10)
                s.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                first = s.recv(65536)
                data = b""
                while True:  # send nothing; wait for the 408 + close
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    data += chunk
        assert first.startswith(b"HTTP/1.1 200 ")
        assert data.startswith(b"HTTP/1.1 408 ")

    def test_max_requests_caps_a_keep_alive_connection(self, store):
        import http.client

        with BackgroundServer(
            ResultService(store).handle, max_requests=2
        ) as bg:
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=10)
            try:
                conn.request("GET", "/v1/query")
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.getheader("Connection") == "keep-alive"
                resp.read()
                conn.request("GET", "/v1/query")
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.getheader("Connection") == "close"
                resp.read()
            finally:
                conn.close()

    def test_concurrent_clients_smoke(self, server):
        digest = first_digest(server.port)
        paths = [
            "/v1/query",
            f"/v1/points/{digest}/metrics",
            "/v1/manifest",
            "/v1/query?technique=protocol",
        ] * 5

        def fetch(path):
            return http_get(server.port, path)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fetch, paths))
        assert all(status == 200 for status, _, _ in results)
        bodies = {
            body
            for (status, _, body), path in zip(results, paths)
            if path.endswith("/metrics")
        }
        assert len(bodies) == 1  # identical bytes under concurrency
