"""Minimal async HTTP/1.1 server on ``asyncio.start_server``.

The harness is stdlib-only, so the serving layer hand-rolls the few
corners of HTTP/1.1 a read-only result service needs: GET/HEAD request
parsing with size caps, keep-alive, ``Content-Length`` framing,
conditional requests (``If-None-Match`` against strong ETags → 304),
JSON error bodies, and connection hygiene — a per-connection read
timeout (slow or silent clients are 408'd and closed rather than
pinning a connection open) plus a cap on requests per keep-alive
connection.  Application logic lives behind a single
``handler(Request) -> Response`` callable; this module knows nothing
about caches or queries.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from .wire import JSON_TYPE, encode_json, error_document

#: parser limits: one request line / header line, total header block
_MAX_LINE = 8192
_MAX_HEADER_BYTES = 32768

#: connection limits: seconds a client may take to deliver one request,
#: and how many requests one keep-alive connection may carry
DEFAULT_READ_TIMEOUT = 30.0
DEFAULT_MAX_REQUESTS = 1000

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """An application-level failure that maps to one HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request: method, decoded path, query params, headers."""

    method: str
    path: str
    params: List[Tuple[str, str]] = field(default_factory=list)
    headers: Dict[str, str] = field(default_factory=dict)

    def header(self, name: str, default: str = "") -> str:
        """A header value by case-insensitive name."""
        return self.headers.get(name.lower(), default)


@dataclass
class Response:
    """One response: status, body bytes, media type, extra headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = JSON_TYPE
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls, doc: dict, status: int = 200, headers: Optional[Dict[str, str]] = None
    ) -> "Response":
        """A canonical-JSON response."""
        return cls(
            status=status,
            body=encode_json(doc),
            content_type=JSON_TYPE,
            headers=dict(headers or {}),
        )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        """A JSON error-body response."""
        return cls.json(error_document(status, message), status=status)


Handler = Callable[[Request], Awaitable[Response]]


def _render(resp: Response, head_only: bool) -> bytes:
    reason = _REASONS.get(resp.status, "Unknown")
    body = b"" if head_only or resp.status == 304 else resp.body
    lines = [f"HTTP/1.1 {resp.status} {reason}"]
    headers = {"Content-Type": resp.content_type, **resp.headers}
    # 304 responses must echo the validator headers but carry no body;
    # Content-Length still frames the (empty) payload for keep-alive.
    headers["Content-Length"] = str(
        0 if resp.status == 304 else len(resp.body)
    )
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` (400) on malformed or oversized input.
    ``readline`` raises ``ValueError`` for a line past the stream's
    64 KiB buffer limit; that is an oversized line too.
    """
    try:
        line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError:
        raise HttpError(400, "request line too long") from None
    if not line:
        return None
    if len(line) > _MAX_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1", "replace").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise HttpError(400, "header line too long") from None
        if not line:
            raise HttpError(400, "truncated header block")
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise HttpError(400, "header block too large")
        if line in (b"\r\n", b"\n"):
            break
        text = line.decode("latin-1", "replace")
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {text.strip()!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    params = parse_qsl(split.query, keep_blank_values=True)
    return Request(
        method=method,
        path=unquote(split.path),
        params=params,
        headers=headers,
    )


class ResultServer:
    """The asyncio server: accept loop, keep-alive, error mapping.

    ``read_timeout`` bounds how long a connection may sit between (or
    inside) requests before it is answered with 408 and closed — a slow
    or silent client cannot pin a connection open indefinitely.
    ``max_requests`` caps how many requests one keep-alive connection
    serves before the server closes it.  ``None`` disables either limit.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
        max_requests: Optional[int] = DEFAULT_MAX_REQUESTS,
    ) -> None:
        self.handler = handler
        self.host = host
        self.read_timeout = read_timeout
        self.max_requests = max_requests
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self._requested_port
        )

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _respond(self, request: Request) -> Response:
        if request.method not in ("GET", "HEAD"):
            resp = Response.error(405, f"method {request.method} not allowed")
            resp.headers["Allow"] = "GET, HEAD"
            return resp
        try:
            resp = await self.handler(request)
        except HttpError as exc:
            return Response.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 - the server must not die
            return Response.error(500, f"internal error: {exc}")
        # Strong-validator conditional: If-None-Match against the ETag.
        etag = resp.headers.get("ETag")
        if etag and resp.status == 200:
            candidates = [
                t.strip()
                for t in request.header("if-none-match").split(",")
                if t.strip()
            ]
            if etag in candidates or "*" in candidates:
                not_modified = Response(status=304, body=b"")
                not_modified.headers = dict(resp.headers)
                not_modified.content_type = resp.content_type
                return not_modified
        return resp

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        served = 0
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader), timeout=self.read_timeout
                    )
                except asyncio.TimeoutError:
                    timed_out = Response.error(
                        408, "connection idle or request incomplete"
                    )
                    timed_out.headers["Connection"] = "close"
                    writer.write(_render(timed_out, False))
                    await writer.drain()
                    break
                except HttpError as exc:
                    writer.write(
                        _render(Response.error(exc.status, exc.message), False)
                    )
                    await writer.drain()
                    break  # framing is unreliable after a parse error
                if request is None:
                    break
                served += 1
                response = await self._respond(request)
                keep_alive = (
                    request.header("connection", "keep-alive").lower() != "close"
                )
                if self.max_requests is not None and served >= self.max_requests:
                    keep_alive = False
                    response.headers["Connection"] = "close"
                response.headers.setdefault(
                    "Connection", "keep-alive" if keep_alive else "close"
                )
                writer.write(_render(response, request.method == "HEAD"))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # connection teardown during server shutdown


def _cancel_all_tasks() -> None:
    """Cancel every task of the running loop (called inside the loop)."""
    for task in asyncio.all_tasks():
        task.cancel()


class BackgroundServer:
    """A :class:`ResultServer` on a dedicated thread (tests, notebooks).

    ``start()`` returns once the socket is bound (the resolved port is
    then available); ``stop()`` cancels the loop and joins the thread.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
        max_requests: Optional[int] = DEFAULT_MAX_REQUESTS,
    ) -> None:
        self.server = ResultServer(
            handler,
            host=host,
            port=port,
            read_timeout=read_timeout,
            max_requests=max_requests,
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        """The bound port once :meth:`start` has returned."""
        return self.server.port

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            try:
                await asyncio.Event().wait()  # park until cancelled
            finally:
                await self.server.aclose()

        try:
            asyncio.run(main())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            if self._startup_error is None:
                self._startup_error = exc
            self._ready.set()

    def start(self) -> "BackgroundServer":
        """Launch the thread and wait for the socket to bind."""
        self._thread = threading.Thread(
            target=self._run, name="repro-result-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"result server failed to start: {self._startup_error}"
            )
        if not self._ready.is_set():
            raise RuntimeError("result server did not start within 10s")
        return self

    def stop(self) -> None:
        """Cancel the serve loop and join the thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                # one callback: the loop may close once its main task
                # is cancelled, before a second call could be scheduled
                loop.call_soon_threadsafe(_cancel_all_tasks)
            except RuntimeError:  # the loop closed after the check
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        """Context-manager entry: start the server."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: stop the server."""
        self.stop()
