"""Read-only HTTP facade over the dictionary plus the thin client.

Endpoints:

    GET  /translate?word=W&from=L1&to=L2
    GET  /reverse?term=T&term_lang=L1&entry_lang=L2
    POST /sparql           (body: query text, content-type text/plain)
    GET  /stats

Responses are JSON. Every error comes back as {"error": message} with a
4xx or 5xx status, also one that http.server itself detects: a request
line or headers that do not parse or are too long, or an unknown
method; its status line is written even when the request line does not
parse. An HTTP/0.9 request, which http.server would answer without a
status line, is answered 400. The store is immutable shared state, so
concurrent requests are safe. A pattern-count cap and a request timeout
guard the endpoint against oversized queries. The timeout is one deadline from a
request's first byte over all its reads: a request line, headers or
body not wholly received when it passes is answered 408, a query whose
answer is not ready to encode by then is answered 503, and a body
declared longer than MAX_BODY_BYTES is answered 413 before any of it is
read. Any body but a POST /sparql one sized by Content-Length closes
its connection unread. A connection beyond MAX_CONNECTIONS open at once
is answered 503 without a thread. Each response, head and body, goes
out in one write. Every response after which the server closes the
connection says `Connection: close`. A client that resets or drops its
connection is let go without a log line.

The client functions keep one keep-alive socket per thread and send
each request, head and body, in one write. They replay a request once
on a fresh connection when a reused one turns out to have been closed by
the server; every route is read-only. They read only what the service
sends: an HTTP/1.x response of at most 100 header lines of at most
64 KiB, its body framed by Content-Length. Any other response closes
the connection and raises ClientTransportError.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import re
import socket
import ssl
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlencode, urlparse, urlsplit, parse_qs

from .dictstore import DictionaryStore, DictionaryError
from .errors import LexalignError
from .sparqlet import QueryParseError, QueryTimeout, evaluate, parse_query
from .triplemap import to_triples

logger = logging.getLogger(__name__)

DEFAULT_MAX_PATTERNS = 64
DEFAULT_TIMEOUT_MS = 5000
MAX_BODY_BYTES = 1 << 20  # the longest POST body read; the paper query is ~1 KB
POLL_INTERVAL_S = 0.05  # how long close() waits at most for the serving loop to notice
MAX_CONNECTIONS = 64  # connections served at once; each holds a thread while it is open


class ServiceError(LexalignError):
    pass


class ClientError(LexalignError):
    """Base class for failures seen by the HTTP client."""


class ClientTransportError(ClientError):
    """The endpoint could not be reached at all."""


class ClientStatusError(ClientError):
    """The endpoint answered with a non-200 status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ClientPayloadError(ClientError):
    """The endpoint answered 200 but the body was not the expected JSON."""


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0
    max_query_patterns: int = DEFAULT_MAX_PATTERNS
    request_timeout_ms: int = DEFAULT_TIMEOUT_MS

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ServiceError(f"port out of range: {self.port}")
        if self.max_query_patterns <= 0:
            raise ServiceError("max_query_patterns must be positive")
        if self.request_timeout_ms <= 0:
            raise ServiceError("request_timeout_ms must be positive")


class _RequestTimeout(Exception):
    """A request was still arriving at its deadline."""


class _RequestReads(socket.SocketIO):
    """A connection's reads. Between start(deadline) and end(), each waits
    at most for the time left to the deadline (a time.monotonic() value)
    and raises _RequestTimeout once it has passed; otherwise each waits for
    the socket's own timeout."""

    def __init__(self, sock: socket.socket):
        super().__init__(sock, "rb")
        self._timeout = sock.gettimeout()
        self._deadline: Optional[float] = None
        self._shortened = False

    def start(self, deadline: float) -> None:
        self._deadline = deadline

    def end(self) -> None:
        self._deadline = None
        if self._shortened:  # a request that came whole in one read costs no syscall here
            self._shortened = False
            self._sock.settimeout(self._timeout)

    def readinto(self, buffer) -> Optional[int]:
        if self._deadline is None:
            return super().readinto(buffer)
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise _RequestTimeout
        self._sock.settimeout(left)
        self._shortened = True
        try:
            return super().readinto(buffer)
        except TimeoutError:
            raise _RequestTimeout from None


class _Handler(BaseHTTPRequestHandler):
    # store, triples and config live on the server object
    protocol_version = "HTTP/1.1"
    # an answer goes out in one write; with Nagle's algorithm, one longer
    # than a TCP segment would hold its last segment for the client's ACK
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = self.server.config.request_timeout_ms / 1000.0
        super().setup()
        self.rfile.close()
        self._reads = _RequestReads(self.connection)
        self.rfile = io.BufferedReader(self._reads)

    def handle_one_request(self) -> None:
        """Wait for a request's first byte under the read timeout, as an
        idle kept-alive connection does; from that byte until its answer
        starts, the request has the request timeout in all. This is where a
        request ends abnormally: a client that resets or drops the
        connection is let go without a log line, a request still arriving
        at its deadline is answered 408, and any other failure 500."""
        try:
            if not self.rfile.peek(1):
                self.close_connection = True
                return
            self.request_deadline = time.monotonic() + self.timeout
            self._reads.start(self.request_deadline)
            super().handle_one_request()
        except (TimeoutError, ConnectionError):  # an idle wait ran out, or the client left
            self.close_connection = True
        except Exception as exc:
            if isinstance(exc, _RequestTimeout):
                self.requestline = ""  # the request line may be unread
                ms = self.server.config.request_timeout_ms
                status, message = 408, f"request not received within {ms} ms"
            else:
                logger.exception("request failed")
                status, message = 500, str(exc)
            with contextlib.suppress(ConnectionError):  # the client may be gone by now
                self.send_error(status, message)

    def send_error(self, code: int, message: Optional[str] = None, explain: Optional[str] = None) -> None:
        """Answer {"error": message} and close the connection. Beside the
        two failures above, http.server calls this for a request line or
        headers it refuses (unparsable, too long, HTTP/2) and for an
        unknown method; the request line may be unparsed, so the answer
        has a status line whatever version the request named."""
        self.close_connection = True
        self.request_version = ""  # not HTTP/0.9, which would drop the status line
        self._error(code, message or self.responses[code][0])

    def parse_request(self) -> bool:
        # once the service is closed, a request on a kept-alive connection
        # gets no answer; the connection closes and the client reconnects
        if self.server.closing:
            self.close_connection = True
            return False
        if not super().parse_request():
            return False
        # http.server takes a line with no version (`GET /x`) as HTTP/0.9,
        # whose answer has no status line and no headers
        if self.request_version == "HTTP/0.9":
            self.send_error(400, f"HTTP/0.9 is not served: {self.requestline!r}")
            return False
        # only a POST /sparql body sized by Content-Length is read; any
        # other body, left unread, would be parsed as the next request
        if "Transfer-Encoding" in self.headers or (
            self.headers.get("Content-Length", "0") != "0"
            and (self.command, urlparse(self.path).path) != ("POST", "/sparql")
        ):
            self.close_connection = True
        return True

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._reads.end()  # the answer's writes wait for the socket's own timeout
        super().send_response(code, message)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self._headers_buffer.extend((b"\r\n", body))  # head and body in one write
        self.flush_headers()

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _query_params(self, required: tuple[str, ...]) -> dict[str, str] | None:
        parsed = urlparse(self.path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        missing = [name for name in required if name not in params]
        if missing:
            self._error(400, f"missing query parameter(s): {', '.join(missing)}")
            return None
        return params

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = urlparse(self.path).path
        try:
            if route == "/translate":
                params = self._query_params(("word", "from", "to"))
                if params is None:
                    return
                words = self.server.store.translations(
                    params["word"], params["from"], params["to"]
                )
                self._send_json(
                    200,
                    {
                        "word": params["word"],
                        "from": params["from"],
                        "to": params["to"],
                        "translations": words,
                        "source": "dictionary",
                    },
                )
            elif route == "/reverse":
                params = self._query_params(("term", "term_lang", "entry_lang"))
                if params is None:
                    return
                headwords = self.server.store.reverse_translations(
                    params["term"], params["term_lang"], params["entry_lang"]
                )
                self._send_json(200, {"term": params["term"], "headwords": headwords})
            elif route == "/stats":
                stats = self.server.store.stats()
                self._send_json(
                    200,
                    {
                        "entry_count": stats.entry_count,
                        "entries_by_language": stats.entries_by_language,
                        "translation_entry_count": stats.translation_entry_count,
                        "translation_pairs": {
                            f"{src}->{tgt}": n
                            for (src, tgt), n in sorted(stats.translation_pairs.items())
                        },
                    },
                )
            else:
                self._error(404, f"no such endpoint: {route}")
        except DictionaryError as exc:
            self._error(400, str(exc))

    def do_POST(self) -> None:  # noqa: N802
        deadline = self.request_deadline
        route = urlparse(self.path).path
        if route != "/sparql":
            self._error(404, f"no such endpoint: {route}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True  # the body's extent is unknown
            self._error(400, "Content-Length must be a non-negative integer")
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body stays unread
            self._error(413, f"request body of {length} bytes exceeds the limit of {MAX_BODY_BYTES}")
            return
        body = self.rfile.read(length)  # short if the client closes mid-body
        try:
            query = parse_query(body.decode("utf-8"))
            if len(query.patterns) > self.server.config.max_query_patterns:
                self._error(
                    400,
                    f"query has {len(query.patterns)} patterns, limit is "
                    f"{self.server.config.max_query_patterns}",
                )
                return
            result = evaluate(query, self.server.triples, deadline=deadline)
            if time.monotonic() > deadline:  # sorting a large answer can take the rest
                raise QueryTimeout("query answer passed its deadline")
            self._send_json(200, {"head": {"vars": result.header}, "rows": [list(r) for r in result.rows]})
        except QueryParseError as exc:
            self._error(400, str(exc))
        except QueryTimeout:
            self._error(
                503, f"query not answered within {self.server.config.request_timeout_ms} ms"
            )
        except UnicodeDecodeError as exc:
            self._error(400, f"query is not UTF-8: {exc}")

    def log_message(self, format: str, *args) -> None:  # quiet by default
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s - %s", self.address_string(), format % args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    closing = False

    def __init__(self, config: ServiceConfig, store: DictionaryStore):
        super().__init__((config.host, config.port), _Handler)
        self.config = config
        self.store = store
        self.triples = to_triples(store)
        self.connection_slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        if not self.connection_slots.acquire(blocking=False):
            self._refuse(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started, so none will release the slot
            self.connection_slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.connection_slots.release()

    def _refuse(self, request) -> None:
        """Answer 503 and close, from the serving thread, which must not
        block: the reply fits an empty send buffer."""
        body = json.dumps(
            {"error": f"the service holds its limit of {MAX_CONNECTIONS} connections"}
        ).encode("utf-8")
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        request.setblocking(False)
        try:
            request.sendall(head.encode("ascii") + body)
            # read what the request sent so far: closing with unread
            # data resets the connection, and the reply may be lost
            request.recv(1 << 16)
        except OSError:
            pass
        self.shutdown_request(request)

    def server_close(self) -> None:
        self.closing = True  # see _Handler.parse_request
        super().server_close()


class ServiceHandle:
    """Running service; shut down with close() or via context manager."""

    def __init__(self, server: _Server, thread: threading.Thread):
        self._server = server
        self._thread = thread

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(config: ServiceConfig, store: DictionaryStore) -> ServiceHandle:
    """Bind and start answering in a background thread.

    Bind failures surface as ServiceError. The handle's port reflects
    the actual binding, so port 0 picks a free one.
    """
    try:
        server = _Server(config, store)
    except OSError as exc:
        raise ServiceError(f"cannot bind {config.host}:{config.port}: {exc}") from exc
    thread = threading.Thread(
        target=server.serve_forever, args=(POLL_INTERVAL_S,), name="lexiserve", daemon=True
    )
    thread.start()
    return ServiceHandle(server, thread)


_MAX_LINE = 65536  # the longest status or header line, its end included, as in http.client
_MAX_HEADERS = 100  # the most header lines a response may carry
_BODY_PART = 1 << 20  # a body is read in parts of at most this, whatever its declared length
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?: ([^\r\n]*))?\r?\n")
_URL = re.compile(r"[!-~]+")  # what a URL may hold to go into a request line and Host as it is
_PORTS = {"http": 80, "https": 443}


class _Disconnected(ConnectionError):
    """The server closed the connection before a status line."""


class _BadResponse(Exception):
    """A response whose framing the client does not accept."""


def _request(origin: tuple[str, str, Optional[int]], target: str, body: Optional[bytes]) -> bytes:
    """A GET of `target`, or a POST of `body` to it, head and body as one
    write. Host has an IPv6 literal in brackets, and the URL's port if it
    names one."""
    _, host, port = origin
    host = f"[{host}]" if ":" in host else host
    head = f"{'GET' if body is None else 'POST'} {target} HTTP/1.1\r\nHost: {host}"
    head += "\r\n" if port is None else f":{port}\r\n"
    if body is None:
        return f"{head}\r\n".encode("ascii")
    return (
        f"{head}Content-Type: text/plain; charset=utf-8\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


class _KeepAlive:
    """One thread's connection, to one origin at a time: a socket and a
    reader of its responses, kept from connect to close. It is closed when
    the thread ends and drops it."""

    origin: Optional[tuple[str, str, Optional[int]]] = None
    timeout: Optional[float] = None
    sock: Optional[socket.socket] = None
    reader: Optional[io.BufferedReader] = None

    def connect(self) -> None:
        scheme, hostname, port = self.origin
        sock = socket.create_connection((hostname, port or _PORTS[scheme]), self.timeout)
        try:
            # as http.client does: a POST longer than a segment would hold its last one
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=hostname)
        except BaseException:
            sock.close()
            raise
        self.sock, self.reader = sock, sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def __del__(self) -> None:
        self.close()


_local = threading.local()  # keep_alive: this thread's _KeepAlive


def _connection(origin: tuple[str, str, Optional[int]], timeout: float) -> tuple[_KeepAlive, bool]:
    """This thread's connection to `origin`, and whether its socket is
    already open. A connection to another origin is closed first."""
    held = getattr(_local, "keep_alive", None)
    if held is None:
        held = _local.keep_alive = _KeepAlive()
    if held.origin != origin:
        held.close()
        held.origin = origin
    held.timeout = timeout  # a fresh socket takes it at connect
    if held.sock is None:
        return held, False
    held.sock.settimeout(timeout)
    return held, True


def _exchange(conn: _KeepAlive, target: str, body: Optional[bytes]) -> tuple[int, str, bytes]:
    """One request, sent in one write, and its whole response body, so
    that the connection can carry the next; a failure leaves the
    connection closed. Only a body framed by Content-Length is read."""
    try:
        if conn.sock is None:
            conn.connect()
        conn.sock.sendall(_request(conn.origin, target, body))
        reader = conn.reader
        line = reader.readline(_MAX_LINE + 1)
        if not line:
            raise _Disconnected("the connection closed before a status line")
        status = _STATUS_LINE.fullmatch(line)
        if status is None:
            raise _BadResponse(f"malformed status line {line[:80]!r}")
        headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = reader.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_LINE:
                raise _BadResponse(f"a header line is longer than {_MAX_LINE} bytes")
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadResponse(f"more than {_MAX_HEADERS} header lines")
        if b"transfer-encoding" in headers:
            raise _BadResponse("a body framed by Transfer-Encoding, not Content-Length")
        length = headers.get(b"content-length", b"")
        if not length.isdigit() or len(length) > 18:
            raise _BadResponse(f"missing or invalid Content-Length {length[:80]!r}")
        left, parts = int(length), []
        while left:
            part = reader.read(min(left, _BODY_PART))
            if not part:
                raise _BadResponse(f"the body ended {left} bytes short of its Content-Length")
            parts.append(part)
            left -= len(part)
        # an HTTP/1.0 server closes the connection unless asked not to
        if status[1] == b"0" or b"close" in headers.get(b"connection", b"").lower():
            conn.close()
        return int(status[2]), (status[3] or b"").decode("latin-1"), b"".join(parts)
    except BaseException:
        conn.close()
        raise


def _request_json(url: str, timeout_ms: int, body: Optional[bytes] = None) -> dict:
    """GET `url`, or POST `body` to it, and decode the JSON object it returns."""
    try:
        parts = urlsplit(url)
        origin = (parts.scheme, parts.hostname, parts.port)
    except ValueError as exc:  # a port that is not a number
        raise ClientTransportError(f"cannot reach {url}: {exc}") from exc
    if parts.scheme not in _PORTS or not parts.hostname or not _URL.fullmatch(url):
        raise ClientTransportError(f"cannot reach {url}: not an http or https URL of visible ASCII")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    for attempt in (1, 2):
        conn, reused = _connection(origin, timeout_ms / 1000.0)
        try:
            status, reason, data = _exchange(conn, target, body)
            break
        except ConnectionError as exc:  # what a server's close of an idle connection looks like
            if not reused or attempt == 2:
                raise ClientTransportError(f"cannot reach {url}: {exc}") from exc
        except (OSError, UnicodeError) as exc:  # UnicodeError: a host name IDNA cannot encode
            raise ClientTransportError(f"cannot reach {url}: {exc}") from exc
        except _BadResponse as exc:
            raise ClientTransportError(f"bad response from {url}: {exc}") from exc
    if status != 200:
        detail = ""
        try:
            detail = json.loads(data.decode("utf-8")).get("error", "")
        except Exception:
            pass
        raise ClientStatusError(status, detail or reason)
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClientPayloadError(f"malformed JSON from {url}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ClientPayloadError(f"unexpected JSON shape from {url}")
    return payload


def _string_list(payload: dict, key: str, url: str) -> list[str]:
    values = payload.get(key)
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ClientPayloadError(f"field {key!r} missing or malformed in response from {url}")
    return values


def client_translate(
    endpoint: str, word: str, from_lang: str, to_lang: str, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> list[str]:
    """GET /translate; mirrors DictionaryStore.translations over HTTP."""
    url = f"{endpoint.rstrip('/')}/translate?" + urlencode(
        {"word": word, "from": from_lang, "to": to_lang}
    )
    return _string_list(_request_json(url, timeout_ms), "translations", url)


def client_reverse_translate(
    endpoint: str, term: str, term_lang: str, entry_lang: str, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> list[str]:
    """GET /reverse; mirrors DictionaryStore.reverse_translations over HTTP."""
    url = f"{endpoint.rstrip('/')}/reverse?" + urlencode(
        {"term": term, "term_lang": term_lang, "entry_lang": entry_lang}
    )
    return _string_list(_request_json(url, timeout_ms), "headwords", url)


def client_sparql(
    endpoint: str, query_text: str, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> tuple[list[str], list[list[str]]]:
    """POST /sparql; returns (vars, rows)."""
    url = f"{endpoint.rstrip('/')}/sparql"
    payload = _request_json(url, timeout_ms, query_text.encode("utf-8"))
    head = payload.get("head")
    variables = head.get("vars") if isinstance(head, dict) else None
    rows = payload.get("rows")
    if not isinstance(variables, list) or not isinstance(rows, list):
        raise ClientPayloadError(
            f"fields 'head.vars' and 'rows' missing or malformed in response from {url}"
        )
    return variables, rows
