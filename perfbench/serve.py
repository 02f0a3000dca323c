"""The ``serve_mix`` workload: closed-loop load on ``repro-cmp serve-results``.

The server runs in its own process over a result cache holding the 16
``matrix_serial`` cells (seed 1).  The cache is installed untimed from
``refs/serve_cache.json`` through ``SweepRunner.install`` and every blob
is checked against the golden digests before the server starts.  One
client process drives the server over 2 keep-alive connections, each
sending its next request only after the previous reply has been read,
with a request mix drawn from a seeded RNG.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import common
import hostspeed

CONNECTIONS = 2

#: route class → share of requests
MIX = (
    ("point_304", 30),
    ("point_200", 20),
    ("query_json", 20),
    ("query_csv", 10),
    ("figure", 10),
    ("provenance", 5),
    ("manifest", 5),
)

#: filtered and sorted result queries (JSON and CSV)
QUERIES = (
    "technique=protocol&sort=-energy_reduction",
    "workload=water_ns&sort=occupancy",
    "size=1&sort=-ipc_loss",
    "technique=decay64K,sel_decay64K&sort=workload,-energy_reduction",
    "workload=mpeg2enc&fields=technique,energy_reduction,ipc_loss"
    "&sort=-energy_reduction",
    "sort=-miss_rate&limit=5",
)
FIGURE = "/v1/figures/fig5a"


def point_digests() -> List[str]:
    from repro.harness.spec import load_spec

    return sorted(p.digest() for p in load_spec(common.SERVE_SPEC).expand(
        scale=common.SCALE))


def urls(digests: List[str]) -> Dict[str, List[str]]:
    """Every URL the mix can send, by route class."""
    return {
        "point_304": [f"/v1/points/{d}/metrics" for d in digests],
        "point_200": [f"/v1/points/{d}/metrics" for d in digests],
        "query_json": [f"/v1/query?{q}" for q in QUERIES],
        "query_csv": [f"/v1/query?{q}&format=csv" for q in QUERIES],
        "figure": [FIGURE],
        "provenance": [f"/v1/provenance/{d}" for d in digests],
        "manifest": ["/v1/manifest"],
    }


# ---------------------------------------------------------------------------
# Cache and server
# ---------------------------------------------------------------------------
def prepare_cache(cache_dir: str) -> None:
    """Install the seed-1 matrix cells and check them against the golden."""
    from repro.harness import SweepRunner
    from repro.harness.runner import decode_entry

    blobs = common.load_json(os.path.join(common.REFS, "serve_cache.json"))["blobs"]
    golden = common.golden_matrix_digests()
    runner = SweepRunner(scale=common.SCALE, seed=1, n_cores=common.N_CORES,
                         cache_dir=cache_dir, verbose=False)
    for point in common.matrix_points(runner):
        key = runner.point_key(point)
        res, energy = decode_entry(json.loads(blobs[key]))
        runner.install(point, res, energy,
                       provenance=runner.point_provenance(point))
        if common.blob_digest(runner, point) != golden[key]:
            raise RuntimeError(f"served cache blob {key} differs from the golden")


class Server:
    """One ``serve-results`` process on an ephemeral port."""

    def __init__(self, cache_dir: str, profile_out: Optional[str] = None) -> None:
        args = ["serve-results", common.SERVE_SPEC, "--cache-dir", cache_dir,
                "--port", "0", "--quiet"]
        if profile_out is None:
            cmd = [sys.executable, "-m", "repro.harness.cli", *args]
        else:
            cmd = [sys.executable, os.path.join(common.HERE, "traced_server.py"),
                   profile_out, *args]
        env = dict(os.environ, PYTHONPATH=common.SRC)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=env)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"serve-results did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].split("/")[0])
        while True:  # first 200
            conn = Connection(self.port)
            try:
                if conn.get("/v1/")[0] == 200:
                    break
            except OSError:
                time.sleep(0.002)
            finally:
                conn.close()
            if self.proc.poll() is not None or time.perf_counter() - t0 > 60:
                self.stop()
                raise RuntimeError("serve-results never answered 200")
        self.setup_span = (t0, time.perf_counter())

    def peak_rss_kib(self) -> int:
        return common.status_kib(self.proc.pid, "VmHWM")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """A lean HTTP/1.1 keep-alive client connection.

    It frames responses by ``Content-Length`` and reports a server's
    ``Connection: close`` (the server caps requests per connection) so
    the caller reopens; every open is counted.  Kept minimal so the load
    generator spends little CPU beside the server on a 2-core machine.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buf = b""
        self.opened = 0

    def send(self, raw: bytes) -> None:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port))
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.buf = b""
            self.opened += 1
        self.sock.sendall(raw)

    def receive(self) -> Optional[Tuple[int, bytes, bool]]:
        """Read what has arrived; ``(status, body, close)`` once complete."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        head_end = self.buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        lines = self.buf[:head_end].split(b"\r\n")
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        end = head_end + 4 + length
        if len(self.buf) < end:
            return None
        body, self.buf = self.buf[head_end + 4:end], self.buf[end:]
        return int(lines[0].split()[1]), body, close

    def get(self, url: str, etag: Optional[str] = None) -> Tuple[int, bytes]:
        """One blocking request (set-up, warm-up and capture)."""
        self.send(encode_request(url, etag))
        response = None
        while response is None:
            response = self.receive()
        status, body, close = response
        if close:
            self.close()
        return status, body

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def encode_request(url: str, etag: Optional[str] = None) -> bytes:
    extra = f"If-None-Match: \"{etag}\"\r\n" if etag else ""
    return f"GET {url} HTTP/1.1\r\nHost: 127.0.0.1\r\n{extra}\r\n".encode()


def etag_of(route: str, url: str) -> Optional[str]:
    """The ETag a conditional point fetch sends (the point digest)."""
    return url.split("/")[3] if route == "point_304" else None


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------
def check(route: str, url: str, status: int, body: bytes,
          refs: Dict[str, str]) -> bool:
    """Whether one response is correct: status, and pinned body digest."""
    if route == "point_304":
        return status == 304
    if status != 200:
        return False
    if route in ("provenance", "manifest"):
        try:
            json.loads(body)
        except ValueError:
            return False
        return True
    return common.sha256_bytes(body) == refs.get(url)


def closed_loop(port: int, seed: int, deadline: float,
                universe: Dict[str, List[str]], refs: Dict[str, str]) -> dict:
    """Drive :data:`CONNECTIONS` connections from one thread until ``deadline``.

    Each connection sends its next request only after reading the reply
    to the previous one; its request sequence comes from its own RNG
    seeded by ``seed``.  One thread (no lock hand-offs between client
    threads) keeps the client's share of the 2 cores small and steady.
    """
    routes = [r for r, _ in MIX]
    weights = [w for _, w in MIX]
    raw = {(route, url): encode_request(url, etag_of(route, url))
           for route, targets in universe.items() for url in targets}
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    rngs = [random.Random(seed * 1000 + i) for i in range(CONNECTIONS)]
    sel = selectors.DefaultSelector()
    pending: Dict[int, tuple] = {}
    records: List[tuple] = []  # (route, start, end, ok)
    errors: List[str] = []

    def send_next(i: int) -> None:
        route = rngs[i].choices(routes, weights)[0]
        url = rngs[i].choice(universe[route])
        t0 = time.perf_counter()
        if t0 >= deadline:
            return
        fresh = conns[i].sock is None
        conns[i].send(raw[route, url])
        if fresh:
            sel.register(conns[i].sock, selectors.EVENT_READ, i)
        pending[i] = (route, url, t0)

    def drop(i: int) -> None:
        if conns[i].sock is not None:
            sel.unregister(conns[i].sock)
            conns[i].close()

    for i in range(CONNECTIONS):
        send_next(i)
    while pending:
        events = sel.select(timeout=30)
        if not events:
            raise RuntimeError("serve-results stopped answering")
        for key, _ in events:
            i = key.data
            try:
                response = conns[i].receive()
            except OSError as exc:
                route, url, t0 = pending.pop(i)
                records.append((route, t0, time.perf_counter(), False))
                errors.append(f"{url}: {exc!r}")
                drop(i)
                send_next(i)
                continue
            if response is None:
                continue
            t1 = time.perf_counter()
            status, body, close = response
            route, url, t0 = pending.pop(i)
            ok = check(route, url, status, body, refs)
            if not ok:
                errors.append(f"{url}: status {status}")
            records.append((route, t0, t1, ok))
            if close:
                drop(i)
            send_next(i)
    for i in range(CONNECTIONS):
        drop(i)
    sel.close()
    return {
        "records": records,
        "errors": errors,
        "reconnects": sum(c.opened for c in conns) - CONNECTIONS,
    }


def drive(port: int, seed: int, seconds: float, universe, refs) -> dict:
    """Closed-loop load for ``seconds``; per-request records."""
    # warm-up: every URL once, untimed (lazy loads settle, routes checked)
    conn = Connection(port)
    for route, targets in universe.items():
        for url in targets:
            status, body = conn.get(url, etag_of(route, url))
            if not check(route, url, status, body, refs):
                raise RuntimeError(f"warm-up request failed: {url} ({status})")
    conn.close()
    t0 = time.perf_counter()
    run = closed_loop(port, seed, t0 + seconds, universe, refs)
    run["start"] = t0
    run["interval_s"] = time.perf_counter() - t0
    return run


def load_references() -> Dict[str, str]:
    return common.load_json(os.path.join(common.REFS, "serve_mix.json"))["digests"]


def measure(seed: int, seconds: float, setups: int, cache_dir: str,
            profile_out: Optional[str] = None) -> dict:
    """Set-up timings, then closed-loop load on the last server launched."""
    universe = urls(point_digests())
    refs = load_references()
    setup = []
    for i in range(setups):
        server = Server(cache_dir, profile_out if i == setups - 1 else None)
        setup.append(server.setup_span)
        if i < setups - 1:
            server.stop()
    try:
        run = drive(server.port, seed, seconds, universe, refs)
        run["rss_kib"] = server.peak_rss_kib()
    finally:
        server.stop()
    run["setup"] = setup
    return run


#: the measured interval is cut into windows of this many seconds; each
#: metric is the median over whole windows, so a slow spell of the host
#: that covers a few windows does not move it
WINDOW_S = 1.0

#: request times follow the speed monitor's kernel whole (log-log fits
#: over runs in different host states: 0.87 and 0.99)
SPEED_EXPONENT = 1.0


def windows(run: dict) -> List[Tuple[float, float, List[float]]]:
    """``(start, end, latencies)`` of each whole window (seconds)."""
    n = int(run["interval_s"] // WINDOW_S)
    out: List[List[float]] = [[] for _ in range(n)]
    for _, start, end, _ in run["records"]:
        i = int((end - run["start"]) // WINDOW_S)
        if i < n:
            out[i].append(end - start)
    return [(run["start"] + i * WINDOW_S, run["start"] + (i + 1) * WINDOW_S, w)
            for i, w in enumerate(out) if len(w) >= 2]


def p99(latencies: List[float]) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[98]


def end_to_end(run: dict, monitor: "hostspeed.Monitor") -> dict:
    """The end-to-end metrics of one interval, in reference seconds.

    Server and client share every CPU, so each window and each set-up
    is scaled by every CPU's speed samples over it; the windows by the
    factor ** :data:`SPEED_EXPONENT`.
    """
    records = run["records"]
    failed = sum(1 for r in records if not r[3])
    wins = [(monitor.factor(start, end, exponent=SPEED_EXPONENT), w)
            for start, end, w in windows(run)]
    setups = [(end - start) * monitor.factor(start, end)
              for start, end in run["setup"]]
    return {
        "attempted": len(records),
        "failed": failed,
        "values": {
            "work_per_s": statistics.median(
                len(w) / (WINDOW_S * f) for f, w in wins),
            "req_p50_ms": statistics.median(
                statistics.median(w) * f for f, w in wins) * 1e3,
            "req_p99_ms": statistics.median(p99(w) * f for f, w in wins) * 1e3,
            "peak_rss_mb": common.kib_to_mb(run["rss_kib"]),
            "setup_s": statistics.median(setups),
            "ok_rate": (len(records) - failed) / len(records) if records else 0.0,
        },
        "samples": {"requests": len(records), "windows": len(wins),
                    "requests_per_window": statistics.median(
                        len(w) for _, w in wins),
                    "setup": len(setups)},
        "host": {
            "speed_factor": monitor.factor(
                run["start"], run["start"] + run["interval_s"],
                exponent=SPEED_EXPONENT),
            "req_per_s": len(records) / run["interval_s"],
            "req_p50_ms": statistics.median(r[2] - r[1] for r in records) * 1e3,
            "setup_s": statistics.median(end - start
                                         for start, end in run["setup"]),
        },
    }


def route_metrics(run: dict) -> dict:
    by_route: Dict[str, List[float]] = {}
    for route, start, end, _ in run["records"]:
        by_route.setdefault(route, []).append(end - start)
    m = {f"route.{route}.p50_ms":
         statistics.median(by_route[route]) * 1e3 if route in by_route else 0.0
         for route, _ in MIX}
    conditional = [r for r in run["records"] if r[0] == "point_304"]
    m["serving.not_modified_ratio"] = (
        sum(1 for r in conditional if r[3]) / len(conditional)
        if conditional else 0.0
    )
    m["serving.reconnects"] = run["reconnects"]
    return m


def run_traced(seed: int, seconds: float, cache_dir: str) -> dict:
    """Untraced interval, then the same load on a sampled server."""
    untraced = measure(seed, seconds, 1, cache_dir)
    profile_out = os.path.join(tempfile.mkdtemp(prefix="server-", dir=common.WORK),
                               "layers.json")
    try:
        traced = measure(seed, seconds, 1, cache_dir, profile_out)
        server_layers = common.load_json(profile_out)
    finally:
        shutil.rmtree(os.path.dirname(profile_out), ignore_errors=True)
    layers = server_layers["layers"]
    # host seconds: the sampler shares the CPUs with the speed monitor,
    # whose samples would read the tracing itself as a slower host
    rps_u = len(untraced["records"]) / untraced["interval_s"]
    n_t = len(traced["records"])
    m = route_metrics(untraced)
    m.update({
        "serving.self_s": layers.get("serving", 0.0),
        "query.self_s": layers.get("query", 0.0),
        "result_cache.self_s": layers.get("result_cache", 0.0),
        "trace.overhead_s": traced["interval_s"] - n_t / rps_u,
        "trace.overhead_frac": rps_u / (n_t / traced["interval_s"]) - 1.0,
    })
    spans = [
        {"name": route, "id": f"r{i}", "parent": None, "start": start,
         "end": end, "pid": os.getpid()}
        for i, (route, start, end, _) in enumerate(traced["records"])
    ]
    return {"untraced": untraced, "traced": traced, "metrics": m,
            "spans": spans, "server_layers": server_layers}


def capture_references(tmp: str) -> None:
    """Pin the body sha256 of every deterministic URL of the mix."""
    cache_dir = os.path.join(tmp, "serve")
    prepare_cache(cache_dir)
    server = Server(cache_dir)
    try:
        conn = Connection(server.port)
        digests = {}
        for route, targets in urls(point_digests()).items():
            if route in ("point_304", "provenance", "manifest"):
                continue
            for url in targets:
                status, body = conn.get(url)
                again = conn.get(url)
                if status != 200 or again != (status, body):
                    raise RuntimeError(f"{url}: status {status} or unstable body")
                digests[url] = common.sha256_bytes(body)
        conn.close()
    finally:
        server.stop()
    common.write_json(
        os.path.join(common.REFS, "serve_mix.json"),
        {"comment": "body sha256 of every deterministic serve_mix URL over "
         "the seed-1 matrix_serial cache", "digests": digests},
    )
