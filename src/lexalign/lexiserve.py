"""Read-only HTTP facade over the dictionary plus the thin client.

Endpoints:

    GET  /translate?word=W&from=L1&to=L2
    GET  /reverse?term=T&term_lang=L1&entry_lang=L2
    POST /sparql           (body: query text, content-type text/plain)
    GET  /stats

Service and client read message heads through one function: a first
line, at most 100 header lines of at most 64 KiB each, and a body sized
by one valid Content-Length (RFC 9112 §6). The service answers any other
request head 414, 431 or 400, and the client raises ClientTransportError
on any other response.

Responses are JSON; every error comes back as {"error": message} with
its status, an unknown method (501) or version (505) too. The store is
immutable shared state, so concurrent requests are safe. A
pattern-count cap and a request timeout guard the endpoint against
oversized queries. The timeout is one deadline from a request's first
byte over all its reads: a request not wholly received when it passes
is answered 408, a query whose answer is not ready to encode by then
503, and a body declared longer than MAX_BODY_BYTES 413 before any of
it is read. Any body but a POST /sparql one closes its connection
unread. A connection beyond MAX_CONNECTIONS open at once is answered
503 without a thread. Each response, head and body, goes out in one
write. The connection closes after an HTTP/1.0 request, a request that
asks for it and a request whose framing is refused, and the answer says
`Connection: close`. A client that resets or drops its connection is
let go without a log line.

The client functions keep one keep-alive socket per thread and send
each request, head and body, in one write. They replay a request once
on a fresh connection when a reused one turns out to have been closed by
the server; every route is read-only.
"""

from __future__ import annotations

import functools
import io
import json
import logging
import re
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from typing import Optional
from urllib.parse import SplitResult, quote_plus, unquote_plus, urlsplit

from .dictstore import DictionaryStore, DictionaryError
from .errors import LexalignError
from .sparqlet import QueryParseError, QueryTimeout, evaluate, parse_query
from .triplemap import to_triples

logger = logging.getLogger(__name__)

DEFAULT_MAX_PATTERNS = 64
DEFAULT_TIMEOUT_MS = 5000
MAX_TIMEOUT_MS = 86_400_000  # one day; socket.settimeout overflows past 2**63 ns
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
        if self.request_timeout_ms > MAX_TIMEOUT_MS:
            raise ServiceError(f"request_timeout_ms must be at most {MAX_TIMEOUT_MS} (one day)")


_MAX_LINE = 65536  # the longest first or header line, its end included, as in http.client
_MAX_HEADERS = 100  # the most header lines a message may carry
_REQUEST_LINE = re.compile(rb"([!-~]+) ([!-~]+) HTTP/([0-9])\.([0-9])\r?\n")
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?: ([^\r\n]*))?\r?\n")


class _BadMessage(Exception):
    """A message whose framing is refused; a service answers it with
    `status` and closes the connection."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _read_head(
    reader: io.BufferedReader, first_line: re.Pattern
) -> tuple[re.Match, dict[bytes, bytes], Optional[int]]:
    """Read a message head: a first line that `first_line` matches whole,
    at most _MAX_HEADERS header lines of at most _MAX_LINE bytes, and the
    blank line that ends them. Returns the first line's match, the header
    values by lowercased name, and the body's Content-Length, None if it
    has none. A body framed any other way is refused."""
    line = reader.readline(_MAX_LINE + 1)
    if not line:  # how a close of an idle connection looks; the client replays on it
        raise ConnectionError("the connection closed before a message")
    if len(line) > _MAX_LINE:
        raise _BadMessage(f"the first line is longer than {_MAX_LINE} bytes", 414)
    match = first_line.fullmatch(line)
    if match is None:
        raise _BadMessage(f"malformed first line {line[:80]!r}")
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = reader.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            break
        if len(line) > _MAX_LINE:
            raise _BadMessage(f"a header line is longer than {_MAX_LINE} bytes", 431)
        if not line:
            raise _BadMessage("the connection closed inside a message head")
        name, colon, value = line.partition(b":")
        if not colon or not name or name.strip() != name:  # RFC 9112 §5.1, §5.2
            raise _BadMessage(f"malformed header line {line[:80]!r}")
        name = name.lower()
        if name == b"content-length" and name in headers:
            raise _BadMessage("a repeated Content-Length")  # RFC 9112 §6.3
        headers[name] = value.strip()
    else:
        raise _BadMessage(f"more than {_MAX_HEADERS} header lines", 431)
    if b"transfer-encoding" in headers:
        raise _BadMessage("a body framed by Transfer-Encoding, not Content-Length")
    length = headers.get(b"content-length")
    if length is not None and (not length.isdigit() or len(length) > 18):
        raise _BadMessage(f"Content-Length must be a non-negative integer, not {length[:80]!r}")
    return match, headers, None if length is None else int(length)


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


_REASONS = {status.value: status.phrase for status in HTTPStatus}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@functools.lru_cache(maxsize=1)
def _date_line(second: int) -> str:
    """The Date header line (RFC 9110 §6.6.1) of every answer sent within
    one second, the resolution of an HTTP-date (§5.6.7)."""
    t = time.gmtime(second)
    return (
        f"Date: {_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
        f"{t.tm_hour:02}:{t.tm_min:02}:{t.tm_sec:02} GMT\r\n"
    )


_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def _response(status: int, payload: dict, close: bool) -> bytes:
    """An answer, head and body, to go out in one write: the JSON payload
    with its length, the Date and, when the connection closes after it,
    `Connection: close`."""
    body = _encode_json(payload).encode("utf-8")
    connection = "Connection: close\r\n" if close else ""
    return (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n{_date_line(int(time.time()))}"
        f"Content-Type: application/json; charset=utf-8\r\nContent-Length: {len(body)}\r\n"
        f"{connection}\r\n"
    ).encode("ascii") + body


def _query_parameters(query: str) -> dict[str, str]:
    """The first value of each name in a query string, decoded in one pass
    as `parse_qs(query, keep_blank_values=True)` decodes them."""
    params: dict[str, str] = {}
    for pair in query.split("&"):
        if pair:
            name, _, value = pair.partition("=")
            params.setdefault(unquote_plus(name), unquote_plus(value))
    return params


_GET_PARAMETERS = {  # the query parameters each GET route requires
    "/translate": ("word", "from", "to"),
    "/reverse": ("term", "term_lang", "entry_lang"),
    "/stats": (),
}


class _Handler(socketserver.BaseRequestHandler):
    """One connection: its requests, each read and answered in turn. The
    store, its triples and the config live on the server."""

    def setup(self) -> None:
        sock = self.request
        sock.settimeout(self.server.config.request_timeout_ms / 1000.0)
        # an answer goes out in one write; with Nagle's algorithm, one longer
        # than a TCP segment would hold its last segment for the client's ACK
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reads = _RequestReads(sock)
        self.rfile = io.BufferedReader(self.reads)

    def finish(self) -> None:
        self.rfile.close()

    def handle(self) -> None:
        """Wait for each request's first byte under the read timeout, as an
        idle kept-alive connection does; from that byte until its answer
        starts, the request has the request timeout in all. A client that
        resets or drops the connection is let go without a log line, a
        request still arriving at its deadline is answered 408, and any
        other failure 500. Once the service is closed, a request on a
        kept-alive connection gets no answer; the connection closes and
        the client reconnects."""
        server = self.server
        close = False
        while not close:
            line = b""
            try:
                if not self.rfile.peek(1) or server.closing:
                    return
                deadline = time.monotonic() + server.config.request_timeout_ms / 1000.0
                self.reads.start(deadline)
                head, headers, length = _read_head(self.rfile, _REQUEST_LINE)
                line = head[0].rstrip()
                status, payload, close = self._answer(head, headers, length or 0, deadline)
            except (TimeoutError, ConnectionError):  # an idle wait ran out, or the client left
                return
            except _BadMessage as exc:
                status, payload, close = exc.status, {"error": str(exc)}, True
            except _RequestTimeout:
                ms = server.config.request_timeout_ms
                status, payload, close = 408, {"error": f"request not received within {ms} ms"}, True
            except Exception as exc:
                logger.exception("request failed")
                status, payload, close = 500, {"error": str(exc)}, True
            self.reads.end()  # the answer's write waits for the socket's own timeout
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug('%s - "%s" %d', self.client_address[0], line.decode("latin-1"), status)
            try:
                self.request.sendall(_response(status, payload, close))
            except (TimeoutError, ConnectionError):  # the client is gone
                return

    def _answer(
        self, head: re.Match, headers: dict[bytes, bytes], length: int, deadline: float
    ) -> tuple[int, dict, bool]:
        """The status and payload that answer a request, and whether the
        connection closes after them. Only a POST /sparql body is read;
        any other, left unread, would be taken for the next request. An
        HTTP/1.1 client that expects 100-continue is sent `100 Continue`
        once its body's length is accepted."""
        method, target, major, minor = head.groups()
        if major != b"1":
            version = f"HTTP/{major.decode()}.{minor.decode()}"
            raise _BadMessage(f"{version} is not served", 400 if major == b"0" else 505)
        try:
            url = urlsplit(target.decode("latin-1"))
        except ValueError as exc:  # such as an unclosed IPv6 bracket in an absolute URL
            raise _BadMessage(f"malformed request target: {exc}") from None
        sparql = (method, url.path) == (b"POST", "/sparql")
        close = minor == b"0" or b"close" in headers.get(b"connection", b"").lower()
        if sparql:
            if length > MAX_BODY_BYTES:  # the body stays unread
                raise _BadMessage(f"request body of {length} bytes exceeds the limit of {MAX_BODY_BYTES}", 413)
            if minor != b"0" and headers.get(b"expect", b"").lower() == b"100-continue":
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = self.rfile.read(length)  # short if the client closes mid-body
            return (*self._sparql(body, deadline), close)
        close = close or length > 0
        if method == b"GET":
            return (*self._get(url), close)
        if method == b"POST":
            return 404, {"error": f"no such endpoint: {url.path}"}, close
        raise _BadMessage(f"unsupported method {method.decode('latin-1')!r}", 501)

    def _get(self, url: SplitResult) -> tuple[int, dict]:
        required = _GET_PARAMETERS.get(url.path)
        if required is None:
            return 404, {"error": f"no such endpoint: {url.path}"}
        params = _query_parameters(url.query)
        missing = [name for name in required if name not in params]
        if missing:
            return 400, {"error": f"missing query parameter(s): {', '.join(missing)}"}
        store = self.server.store
        try:
            if url.path == "/translate":
                words = store.translations(params["word"], params["from"], params["to"])
                return 200, {
                    "word": params["word"],
                    "from": params["from"],
                    "to": params["to"],
                    "translations": words,
                    "source": "dictionary",
                }
            if url.path == "/reverse":
                headwords = store.reverse_translations(
                    params["term"], params["term_lang"], params["entry_lang"]
                )
                return 200, {"term": params["term"], "headwords": headwords}
        except DictionaryError as exc:
            return 400, {"error": str(exc)}
        stats = store.stats()
        return 200, {
            "entry_count": stats.entry_count,
            "entries_by_language": stats.entries_by_language,
            "translation_entry_count": stats.translation_entry_count,
            "translation_pairs": {
                f"{src}->{tgt}": n for (src, tgt), n in sorted(stats.translation_pairs.items())
            },
        }

    def _sparql(self, body: bytes, deadline: float) -> tuple[int, dict]:
        limit = self.server.config.max_query_patterns
        try:
            query = parse_query(body.decode("utf-8"))
            if len(query.patterns) > limit:
                return 400, {"error": f"query has {len(query.patterns)} patterns, limit is {limit}"}
            result = evaluate(query, self.server.triples, deadline=deadline)
            if time.monotonic() > deadline:  # sorting a large answer can take the rest
                raise QueryTimeout("query answer passed its deadline")
        except QueryParseError as exc:
            return 400, {"error": str(exc)}
        except QueryTimeout:
            return 503, {"error": f"query not answered within {self.server.config.request_timeout_ms} ms"}
        except UnicodeDecodeError as exc:
            return 400, {"error": f"query is not UTF-8: {exc}"}
        return 200, {"head": {"vars": result.header}, "rows": [list(r) for r in result.rows]}


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = MAX_CONNECTIONS  # the listen backlog: a burst of that many waits to be accepted
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
        message = f"the service holds its limit of {MAX_CONNECTIONS} connections"
        request.setblocking(False)
        try:
            request.sendall(_response(503, {"error": message}, True))
            # read what the request sent so far: closing with unread
            # data resets the connection, and the reply may be lost
            request.recv(1 << 16)
        except OSError:
            pass
        self.shutdown_request(request)

    def server_close(self) -> None:
        self.closing = True  # see _Handler.handle
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


_BODY_PART = 1 << 20  # a body is read in parts of at most this, whatever its declared length
# what an endpoint may hold to go into a request line and Host as it is:
# visible ASCII, but no "#" or "?", as it has no query or fragment
_ENDPOINT = re.compile(r'[!"$->@-~]+')
_PORTS = {"http": 80, "https": 443}


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
                import ssl  # here, so that a process without https never loads it

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
    if held.sock.gettimeout() != timeout:  # settimeout costs a syscall even when it changes nothing
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
        status, headers, left = _read_head(conn.reader, _STATUS_LINE)
        if left is None:
            raise _BadMessage("a body framed by the connection's close, not Content-Length")
        parts = []
        while left:
            part = conn.reader.read(min(left, _BODY_PART))
            if not part:
                raise _BadMessage(f"the body ended {left} bytes short of its Content-Length")
            parts.append(part)
            left -= len(part)
        # an HTTP/1.0 server closes the connection unless asked not to
        if status[1] == b"0" or b"close" in headers.get(b"connection", b"").lower():
            conn.close()
        return int(status[2]), (status[3] or b"").decode("latin-1"), b"".join(parts)
    except BaseException:
        conn.close()
        raise


@functools.lru_cache(maxsize=16)
def _split_endpoint(endpoint: str) -> tuple[tuple[str, str, Optional[int]], str]:
    """The origin of an endpoint URL and the path its routes go under. A
    run sends every request to one endpoint, so it is split once."""
    try:
        parts = urlsplit(endpoint)
        origin = (parts.scheme, parts.hostname, parts.port)
    except ValueError as exc:  # a port that is not a number
        raise ClientTransportError(f"cannot reach {endpoint}: {exc}") from exc
    if parts.scheme not in _PORTS or not parts.hostname or not _ENDPOINT.fullmatch(endpoint):
        problem = "not an http or https URL of visible ASCII with no query or fragment"
        raise ClientTransportError(f"cannot reach {endpoint}: {problem}")
    return origin, parts.path


def _request_json(endpoint: str, route: str, timeout_ms: int, body: Optional[bytes] = None) -> dict:
    """GET `route` under `endpoint`, or POST `body` to it, and decode the
    JSON object it returns."""
    origin, path = _split_endpoint(endpoint)
    target, url = path + route, endpoint + route
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
        except _BadMessage as exc:
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
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an int past the digit limit, or too deep
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
    endpoint = endpoint.rstrip("/")
    route = f"/translate?word={quote_plus(word)}&from={quote_plus(from_lang)}&to={quote_plus(to_lang)}"
    return _string_list(_request_json(endpoint, route, timeout_ms), "translations", endpoint + route)


def client_reverse_translate(
    endpoint: str, term: str, term_lang: str, entry_lang: str, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> list[str]:
    """GET /reverse; mirrors DictionaryStore.reverse_translations over HTTP."""
    endpoint = endpoint.rstrip("/")
    route = (
        f"/reverse?term={quote_plus(term)}&term_lang={quote_plus(term_lang)}"
        f"&entry_lang={quote_plus(entry_lang)}"
    )
    return _string_list(_request_json(endpoint, route, timeout_ms), "headwords", endpoint + route)


def client_sparql(
    endpoint: str, query_text: str, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> tuple[list[str], list[list[str]]]:
    """POST /sparql; returns (vars, rows)."""
    endpoint = endpoint.rstrip("/")
    url = f"{endpoint}/sparql"
    payload = _request_json(endpoint, "/sparql", timeout_ms, query_text.encode("utf-8"))
    head = payload.get("head")
    variables = _string_list(head if isinstance(head, dict) else {}, "vars", url)
    rows = payload.get("rows")
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(variables) and all(isinstance(v, str) for v in row)
        for row in rows
    ):
        raise ClientPayloadError(f"field 'rows' missing or malformed in response from {url}")
    return variables, rows
