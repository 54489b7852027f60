import email.utils
import http.client
import json
import logging
import re
import select
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from conftest import IDIOM_ROWS, store_of
from lexalign import lexiserve
from lexalign.labelkit import DictionaryTranslator, EndpointTranslator
from lexalign.lexiserve import (
    ClientPayloadError,
    ClientStatusError,
    ClientTransportError,
    ServiceConfig,
    ServiceError,
    client_reverse_translate,
    client_sparql,
    client_translate,
    serve,
)


@pytest.fixture(scope="module")
def idioms_service(idioms_store):
    with serve(ServiceConfig(port=0), idioms_store) as handle:
        yield handle


@pytest.fixture(scope="module")
def biblio_service(biblio_store):
    with serve(ServiceConfig(port=0), biblio_store) as handle:
        yield handle


def test_translate_absent_word_is_empty_200(biblio_service):
    assert client_translate(biblio_service.endpoint, "isbn", "en", "fr") == []


def test_translate_round_trip(idioms_service, idioms_store):
    got = client_translate(idioms_service.endpoint, "rain cats and dogs", "en", "fr")
    assert got == idioms_store.translations("rain cats and dogs", "en", "fr")


def test_translate_transparency_every_word(biblio_service, biblio_store):
    for title in biblio_store.columns["page", "page_title"]:
        for src in ("en", "fr"):
            for tgt in ("en", "fr"):
                assert client_translate(
                    biblio_service.endpoint, title, src, tgt
                ) == biblio_store.translations(title, src, tgt)


def test_reverse_endpoint(biblio_service):
    got = client_reverse_translate(biblio_service.endpoint, "université", "fr", "en")
    assert got == ["school", "university"]


def test_reverse_absent_term(biblio_service):
    assert client_reverse_translate(biblio_service.endpoint, "zzzz", "fr", "en") == []


def test_sparql_translation_query(idioms_service, translation_query_text):
    header, rows = client_sparql(idioms_service.endpoint, translation_query_text)
    assert header == ["langCode", "langName", "translationWord"]
    assert {tuple(r) for r in rows} == IDIOM_ROWS


def test_sparql_syntax_error_is_400_with_position(idioms_service):
    with pytest.raises(ClientStatusError) as err:
        client_sparql(idioms_service.endpoint, "SELECT WHERE {}")
    assert err.value.status == 400
    assert "1:8" in str(err.value)


def test_bad_language_code_is_4xx(biblio_service):
    with pytest.raises(ClientStatusError) as err:
        client_translate(biblio_service.endpoint, "book", "en", "zz")
    assert err.value.status == 400
    assert "zz" in str(err.value)


def test_missing_parameter_is_400(biblio_service):
    with pytest.raises(HTTPError) as err:
        urlopen(biblio_service.endpoint + "/translate?word=x")
    with err.value:  # it holds the connection's socket file
        assert err.value.code == 400
        assert "missing query parameter" in json.loads(err.value.read())["error"]


def test_a_blank_query_value_is_a_value(biblio_service, biblio_store):
    endpoint = biblio_service.endpoint
    assert EndpointTranslator(endpoint).translate("", "fr", "en") == DictionaryTranslator(
        biblio_store
    ).translate("", "fr", "en")
    for query in ("/translate?word=book&from=&to=en", "/reverse?term=book&term_lang=en&entry_lang="):
        with pytest.raises(HTTPError) as err:
            urlopen(endpoint + query)
        with err.value:
            assert err.value.code == 400
            assert json.loads(err.value.read()) == {"error": "unknown language code: ''"}


def test_unknown_endpoint_is_404(biblio_service):
    with pytest.raises(HTTPError) as err:
        urlopen(biblio_service.endpoint + "/nope")
    with err.value:
        assert err.value.code == 404


def test_stats_endpoint(idioms_service, idioms_store):
    with urlopen(idioms_service.endpoint + "/stats") as resp:
        payload = json.loads(resp.read().decode("utf-8"))
    stats = idioms_store.stats()
    assert payload["translation_entry_count"] == stats.translation_entry_count
    assert payload["entry_count"] == stats.entry_count
    assert payload["translation_pairs"]["en->fr"] == 3


def test_pattern_cap_rejects_before_evaluation(idioms_store):
    config = ServiceConfig(port=0, max_query_patterns=2)
    with serve(config, idioms_store) as handle:
        text = 'SELECT ?a WHERE { ?a wikpa:lang_code ?b ; wikpa:lang_name ?c ; wikpa:lang_id ?d . }'
        with pytest.raises(ClientStatusError) as err:
            client_sparql(handle.endpoint, text)
        assert err.value.status == 400
        assert "limit is 2" in str(err.value)


def test_sparql_timeout_is_503_and_the_next_request_is_answered():
    store = store_of({"wiki_text": [[i, f"word {i}"] for i in range(1, 201)]})
    # three disconnected patterns: a cross product of 200 ** 3 bindings
    text = "SELECT ?x1 WHERE { " + " ".join(
        f"?a{n} wikpa:wiki_text_text ?x{n} ." for n in (1, 2, 3)
    ) + " }"
    with serve(ServiceConfig(request_timeout_ms=100), store) as handle:
        start = time.monotonic()
        with pytest.raises(ClientStatusError) as err:
            client_sparql(handle.endpoint, text)
        assert time.monotonic() - start < 1.0
        assert err.value.status == 503
        assert "100 ms" in str(err.value)
        text = "SELECT ?x WHERE { ?a wikpa:wiki_text_text ?x . } LIMIT 2"
        assert client_sparql(handle.endpoint, text)[1] == [["word 1"], ["word 10"]]


# what a request may take beyond request_timeout_ms: the check after the
# deadline passes, the 503 body and the round trip
TIMEOUT_SLACK_S = 0.5


def test_sparql_cross_product_is_503_within_the_timeout():
    store = store_of({"wiki_text": [[i, f"word {i}"] for i in range(1, 301)]})
    # two disconnected patterns: 90,000 rows
    text = "SELECT ?x1 ?x2 WHERE { ?a1 wikpa:wiki_text_text ?x1 . ?a2 wikpa:wiki_text_text ?x2 . }"
    with serve(ServiceConfig(request_timeout_ms=100), store) as handle:
        start = time.monotonic()
        with pytest.raises(ClientStatusError) as err:
            client_sparql(handle.endpoint, text)
        assert time.monotonic() - start < 0.1 + TIMEOUT_SLACK_S
        assert err.value.status == 503


def test_answer_ready_after_the_deadline_is_503(monkeypatch, idioms_store):
    evaluate = lexiserve.evaluate

    def late_evaluate(query, graph, deadline):
        result = evaluate(query, graph, deadline=deadline)
        time.sleep(max(deadline - time.monotonic(), 0) + 0.01)
        return result

    monkeypatch.setattr(lexiserve, "evaluate", late_evaluate)
    with serve(ServiceConfig(request_timeout_ms=100), idioms_store) as handle:
        with pytest.raises(ClientStatusError) as err:
            client_sparql(handle.endpoint, "SELECT ?c WHERE { ?l wikpa:lang_code ?c . }")
    assert err.value.status == 503


def test_short_sparql_body_is_408_and_a_fresh_connection_is_answered(
    idioms_store, caplog, capsys
):
    with serve(ServiceConfig(request_timeout_ms=200), idioms_store) as handle:
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            start = time.monotonic()
            sock.sendall(b"POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\nSELECT")
            reply = b""
            while chunk := sock.recv(4096):  # the server closes the connection
                reply += chunk
            elapsed = time.monotonic() - start
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert "200 ms" in json.loads(body)["error"]
        assert elapsed < 1.0
        text = "SELECT ?c WHERE { ?l wikpa:lang_code ?c . } LIMIT 1"
        assert client_sparql(handle.endpoint, text)[1] == [["cmn"]]
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert "Traceback" not in capsys.readouterr().err


def _read_until_closed(sock: socket.socket) -> bytes:
    reply = b""
    try:
        while chunk := sock.recv(4096):
            reply += chunk
    except ConnectionResetError:  # a byte sent after the server closed
        pass
    return reply


def test_dripped_sparql_body_is_408_within_the_timeout(idioms_store, caplog, capsys):
    body = b"SELECT ?c WHERE { ?l wikpa:lang_code ?c . }  "
    with serve(ServiceConfig(request_timeout_ms=300), idioms_store) as handle:
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            start = time.monotonic()
            sock.sendall(
                b"POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            # each byte arrives well inside the read timeout, but the body
            # as a whole would take 2.4 s
            for byte in body[:12]:
                sock.sendall(bytes([byte]))
                if select.select([sock], [], [], 0.2)[0]:  # the server has answered
                    break
            reply = _read_until_closed(sock)
            elapsed = time.monotonic() - start
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert b"\r\nConnection: close" in head
        assert "300 ms" in json.loads(payload)["error"]
        assert elapsed < 0.3 + TIMEOUT_SLACK_S
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("sent_at_once", [b"", b"GET /stats HTTP/1.1\r\n"])
def test_dripped_request_head_is_408_within_the_timeout(
    idioms_store, caplog, capsys, sent_at_once
):
    dripped = b"GET /stats HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"[len(sent_at_once) :]
    with serve(ServiceConfig(request_timeout_ms=300), idioms_store) as handle:
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            start = time.monotonic()
            sock.sendall(sent_at_once)
            # each byte arrives well inside the read timeout, but the whole
            # request line and headers would take over 3 s
            for byte in dripped:
                sock.sendall(bytes([byte]))
                if select.select([sock], [], [], 0.1)[0]:  # the server has answered
                    break
            reply = _read_until_closed(sock)
            elapsed = time.monotonic() - start
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert b"\r\nConnection: close" in head
        assert "300 ms" in json.loads(payload)["error"]
        assert elapsed < 0.3 + TIMEOUT_SLACK_S
        assert client_sparql(handle.endpoint, "SELECT ?c WHERE { ?l wikpa:lang_code ?c . } LIMIT 1")
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert "Traceback" not in capsys.readouterr().err


def test_the_request_timeout_runs_from_the_first_byte(idioms_store):
    with serve(ServiceConfig(request_timeout_ms=300), idioms_store) as handle:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=5)
        sockets = []
        for _ in range(3):  # idle waits add up to more than the timeout
            time.sleep(0.2)
            conn.request("GET", "/stats")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            sockets.append(conn.sock)
        conn.close()
        assert sockets[0] is sockets[-1]  # one kept-alive connection


_LANG_QUERY = b"SELECT ?c WHERE { ?l wikpa:lang_code ?c . }"
_LANG_REQUEST = b"POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (
    len(_LANG_QUERY),
    _LANG_QUERY,
)


def _sparql_post(length_line: bytes) -> bytes:
    """A POST of _LANG_QUERY whose Content-Length is framed by `length_line`."""
    head = b"POST /sparql HTTP/1.1\r\nConnection: close\r\n" + length_line % len(_LANG_QUERY)
    return head + b"\r\n\r\n" + _LANG_QUERY


@pytest.mark.parametrize(
    "sent",
    [
        pytest.param(b"", id="idle"),
        pytest.param(b"GET /stats HTTP/1.1\r\nHo", id="mid-head"),
        pytest.param(
            b"POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nSELECT",
            id="mid-body",
        ),
        pytest.param(_LANG_REQUEST, id="before-the-answer"),
    ],
)
def test_a_client_reset_is_dropped_without_a_log_line(
    monkeypatch, idioms_store, caplog, capsys, sent
):
    evaluate = lexiserve.evaluate

    def slow_evaluate(query, graph, deadline):
        time.sleep(0.3)  # the reset arrives before the answer is written
        return evaluate(query, graph, deadline=deadline)

    monkeypatch.setattr(lexiserve, "evaluate", slow_evaluate)
    monkeypatch.setattr(lexiserve, "MAX_CONNECTIONS", 1)
    with serve(ServiceConfig(), idioms_store) as handle:
        sock = socket.create_connection((handle.host, handle.port), timeout=5)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(sent)
        time.sleep(0.1)  # the server waits for the rest, or evaluates the query
        sock.close()  # with a zero linger time, close resets the connection
        slots = handle._server.connection_slots
        assert slots.acquire(timeout=5)  # the reset connection's thread has ended
        slots.release()
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=5)
        try:
            conn.request("GET", "/stats")
            assert conn.getresponse().status == 200
        finally:
            conn.close()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Exception occurred" not in err


@pytest.mark.parametrize("client_resets", [False, True])
def test_an_unexpected_failure_is_500_and_logged_once(
    monkeypatch, idioms_store, caplog, capsys, client_resets
):
    def failing_evaluate(query, graph, deadline):
        time.sleep(0.3)  # a resetting client is gone before the answer is written
        raise RuntimeError("evaluation broke")

    monkeypatch.setattr(lexiserve, "evaluate", failing_evaluate)
    monkeypatch.setattr(lexiserve, "MAX_CONNECTIONS", 1)
    with serve(ServiceConfig(), idioms_store) as handle:
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            sock.sendall(_LANG_REQUEST)
            if client_resets:
                time.sleep(0.1)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            else:
                head, _, payload = _read_until_closed(sock).partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 500 ")
                assert b"\r\nConnection: close" in head
                assert json.loads(payload)["error"] == "evaluation broke"
        slots = handle._server.connection_slots
        assert slots.acquire(timeout=5)  # the connection's thread has ended
        slots.release()
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert [r.getMessage() for r in errors] == ["request failed"]
    assert "Exception occurred" not in capsys.readouterr().err


def test_connection_over_the_cap_is_503_without_a_thread(monkeypatch, idioms_store):
    monkeypatch.setattr(lexiserve, "MAX_CONNECTIONS", 2)
    with serve(ServiceConfig(), idioms_store) as handle:
        held = [http.client.HTTPConnection(handle.host, handle.port, timeout=5) for _ in range(2)]
        try:
            for conn in held:  # each kept-alive connection holds its thread
                conn.request("GET", "/stats")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
            threads = threading.active_count()
            with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
                sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                reply = _read_until_closed(sock)
            assert threading.active_count() <= threads
            head, _, payload = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 503 ")
            assert b"\r\nConnection: close" in head
            assert "limit of 2 connections" in json.loads(payload)["error"]
            held[0].request("GET", "/stats")  # the held connections are still served
            assert held[0].getresponse().status == 200
        finally:
            for conn in held:
                conn.close()
        # both threads end and give their slots back, and no more than that
        slots = handle._server.connection_slots
        assert slots.acquire(timeout=5) and slots.acquire(timeout=5)
        assert not slots.acquire(blocking=False)
        slots.release()
        slots.release()


def test_declared_body_over_the_cap_is_413_before_it_is_read(idioms_store, caplog, capsys):
    with serve(ServiceConfig(request_timeout_ms=200), idioms_store) as handle:
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            start = time.monotonic()
            sock.sendall(
                b"POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Length: 100000000\r\n\r\nSELECT"
            )
            reply = b""
            while chunk := sock.recv(4096):  # the server closes the connection
                reply += chunk
            elapsed = time.monotonic() - start
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close" in head
        assert str(lexiserve.MAX_BODY_BYTES) in json.loads(body)["error"]
        assert elapsed < 1.0
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert "Traceback" not in capsys.readouterr().err


def test_query_at_the_pattern_cap_is_answered(idioms_service, idioms_store):
    text = "SELECT ?c WHERE { " + "?l wikpa:lang_code ?c . " * lexiserve.DEFAULT_MAX_PATTERNS + "}"
    codes = sorted(idioms_store.columns["language", "lang_code"])
    assert sorted(client_sparql(idioms_service.endpoint, text)[1]) == [[code] for code in codes]


@pytest.mark.parametrize(
    "length, body, status",
    [
        pytest.param("abc", b"", 400, id="bad-length"),
        pytest.param("1000", b"SELECT", 408, id="short-body"),
    ],
)
def test_responses_that_close_say_so(idioms_store, length, body, status):
    with serve(ServiceConfig(request_timeout_ms=200), idioms_store) as handle:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=5)
        try:
            conn.putrequest("POST", "/sparql")
            conn.putheader("Content-Length", length)
            conn.endheaders(body)
            resp = conn.getresponse()
            resp.read()
            assert resp.status == status
            assert resp.will_close
        finally:
            conn.close()


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        pytest.param(b"PUT /x HTTP/1.1\r\nHost: x\r\n\r\n", 501, id="unknown-method"),
        pytest.param(b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, id="long-path"),
        pytest.param(
            b"GET /stats HTTP/1.1\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(200)) + b"\r\n",
            431,
            id="200-headers",
        ),
        pytest.param(
            b"GET /stats HTTP/1.1\r\nX-A: " + b"b" * 65536 + b"\r\n\r\n", 431, id="long-header"
        ),
        pytest.param(b"GARBAGE\r\n\r\n", 400, id="one-word-line"),
        pytest.param(b"GET http://[x/stats HTTP/1.1\r\n\r\n", 400, id="unclosed-ipv6-target"),
        pytest.param(b"GET /nope\r\n\r\n", 400, id="http-0.9-unknown-path"),
        pytest.param(b"GET /stats\r\n\r\n", 400, id="http-0.9-stats"),
        pytest.param(b"GET /stats HTTP/0.9\r\n\r\n", 400, id="http-0.9-named"),
        pytest.param(b"GET /stats HTTP/2.0\r\n\r\n", 505, id="http-2"),
        pytest.param(_sparql_post(b" Content-Length: %d"), 400, id="obs-folded-length"),
        pytest.param(_sparql_post(b"Content-Length : %d"), 400, id="space-before-colon"),
        pytest.param(_sparql_post(b"Content-Length: %d\r\nHost x"), 400, id="no-colon"),
        pytest.param(_sparql_post(b"Content-Length: %d\r\n: v"), 400, id="empty-name"),
    ],
)
def test_http_server_errors_are_json_with_a_status_line(idioms_service, request_bytes, status):
    with socket.create_connection((idioms_service.host, idioms_service.port), timeout=5) as sock:
        sock.sendall(request_bytes)
        reply = _read_until_closed(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nContent-Type: application/json" in head
    assert b"\r\nConnection: close" in head
    assert json.loads(body)["error"]


_EMBEDDED_GET = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize(
    "head, status",
    [
        pytest.param(
            b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n" % len(_EMBEDDED_GET),
            404,
            id="post-elsewhere",
        ),
        pytest.param(
            b"GET /stats HTTP/1.1\r\nContent-Length: %d\r\n" % len(_EMBEDDED_GET),
            200,
            id="get-with-body",
        ),
        pytest.param(
            b"POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", 400, id="chunked-sparql"
        ),
        pytest.param(
            b"GET /stats HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: %d\r\n" % len(_EMBEDDED_GET),
            400,
            id="repeated-length",
        ),
    ],
)
def test_an_unread_body_is_not_taken_for_a_request(idioms_service, head, status):
    with socket.create_connection((idioms_service.host, idioms_service.port), timeout=5) as sock:
        sock.sendall(head + b"Host: x\r\n\r\n" + _EMBEDDED_GET)
        reply = _read_until_closed(sock)  # EOF after the one answer
    assert reply.count(b"HTTP/1.1 ") == 1
    response_head, _, body = reply.partition(b"\r\n\r\n")
    assert response_head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in response_head
    json.loads(body)  # the whole of the rest is this answer's body


def test_expect_100_continue_is_answered_before_the_body(idioms_service, idioms_store):
    with socket.create_connection((idioms_service.host, idioms_service.port), timeout=5) as sock:
        sock.sendall(
            b"POST /sparql HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(_LANG_QUERY)
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):  # no body byte is sent before it
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(_LANG_QUERY + b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        reply = _read_until_closed(sock)
    answer, stats = reply.split(b"HTTP/1.1 200 OK\r\n")[1:]
    rows = json.loads(answer.partition(b"\r\n\r\n")[2])["rows"]
    assert sorted(rows) == [[code] for code in sorted(idioms_store.columns["language", "lang_code"])]
    assert json.loads(stats.partition(b"\r\n\r\n")[2])["entry_count"] == idioms_store.stats().entry_count


_IMF_FIXDATE = re.compile(rb"\r\nDate: ([A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT)(?:\r\n|$)")


@pytest.mark.parametrize(
    "request_bytes",
    [
        pytest.param(b"GET /stats HTTP/1.0\r\n\r\n", id="http-1.0"),
        pytest.param(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", id="connection-close"),
    ],
)
def test_a_request_that_will_not_be_followed_is_answered_and_closed(idioms_service, request_bytes):
    with socket.create_connection((idioms_service.host, idioms_service.port), timeout=2) as sock:
        sock.sendall(request_bytes)
        reply = _read_until_closed(sock)  # a connection kept open times out here
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert b"\r\nConnection: close" in head
    date = _IMF_FIXDATE.search(head)
    assert date is not None
    sent = email.utils.parsedate_to_datetime(date[1].decode("ascii"))
    assert abs(sent.timestamp() - time.time()) < 5
    assert json.loads(body)["entry_count"]


@pytest.fixture()
def accepts(monkeypatch):
    """The number of connections every lexiserve service accepts."""
    count = [0]
    process_request = lexiserve._Server.process_request

    def counting(self, request, client_address):
        count[0] += 1
        return process_request(self, request, client_address)

    monkeypatch.setattr(lexiserve._Server, "process_request", counting)
    return count


@pytest.fixture()
def attempts(monkeypatch):
    """The number of requests the client sends, retries included."""
    count = [0]
    exchange = lexiserve._exchange

    def counting(*args):
        count[0] += 1
        return exchange(*args)

    monkeypatch.setattr(lexiserve, "_exchange", counting)
    return count


def test_client_lookups_share_one_connection(biblio_store, accepts, attempts):
    with serve(ServiceConfig(), biblio_store) as handle:
        for title in sorted(biblio_store.columns["page", "page_title"]):
            assert client_translate(handle.endpoint, title, "fr", "en") == biblio_store.translations(
                title, "fr", "en"
            )
            assert client_reverse_translate(
                handle.endpoint, title, "en", "fr"
            ) == biblio_store.reverse_translations(title, "en", "fr")
    assert attempts[0] == 2 * len(biblio_store.ids["page"]) > 2
    assert accepts[0] == 1


def test_client_replays_once_on_a_connection_the_server_closed(idioms_store, accepts, attempts):
    expected = idioms_store.translations("rain cats and dogs", "en", "fr")
    with serve(ServiceConfig(request_timeout_ms=200), idioms_store) as handle:
        assert client_translate(handle.endpoint, "rain cats and dogs", "en", "fr") == expected
        time.sleep(0.5)  # the server drops the idle connection after 200 ms
        assert client_translate(handle.endpoint, "rain cats and dogs", "en", "fr") == expected
    assert (attempts[0], accepts[0]) == (3, 2)


def test_client_after_a_closing_response_needs_no_replay(
    monkeypatch, idioms_store, accepts, attempts
):
    monkeypatch.setattr(lexiserve, "MAX_BODY_BYTES", 16)
    expected = idioms_store.translations("rain cats and dogs", "en", "fr")
    with serve(ServiceConfig(), idioms_store) as handle:
        assert client_translate(handle.endpoint, "rain cats and dogs", "en", "fr") == expected
        with pytest.raises(ClientStatusError) as err:
            client_sparql(handle.endpoint, "SELECT ?c WHERE { ?l wikpa:lang_code ?c . }")
        assert err.value.status == 413
        assert client_translate(handle.endpoint, "rain cats and dogs", "en", "fr") == expected
    assert (attempts[0], accepts[0]) == (3, 2)


class _SlowServer(ThreadingHTTPServer):
    """Keep-alive server that answers /slow a second late; counts accepts."""

    accepted = 0

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        if self.path.startswith("/slow/"):
            time.sleep(1.0)
        body = b'{"translations": []}'
        try:
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:  # the client gave up
            pass

    def log_message(self, *args):
        pass


def test_timeout_on_a_reused_connection_is_not_replayed(attempts):
    server = _SlowServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}"
        assert client_translate(endpoint, "w", "en", "fr") == []
        start = time.monotonic()
        with pytest.raises(ClientTransportError):
            client_translate(endpoint + "/slow", "w", "en", "fr", timeout_ms=200)
        elapsed = time.monotonic() - start
    finally:
        server.shutdown()
        server.server_close()
    assert 0.2 <= elapsed < 0.2 + TIMEOUT_SLACK_S
    assert (attempts[0], server.accepted) == (2, 1)


def test_two_threads_look_up_concurrently(biblio_service, biblio_store):
    titles = sorted(biblio_store.columns["page", "page_title"])
    local = DictionaryTranslator(biblio_store)

    def lookups(words):
        remote = EndpointTranslator(biblio_service.endpoint)
        return [remote.translate(w, src, tgt) for w in words for src, tgt in (("fr", "en"), ("en", "fr"))]

    halves = (titles[0::2], titles[1::2])
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lookups, halves))
    assert got == [
        [local.translate(w, src, tgt) for w in words for src, tgt in (("fr", "en"), ("en", "fr"))]
        for words in halves
    ]


def test_switching_endpoints_closes_the_old_connection(idioms_service, biblio_service):
    client_translate(idioms_service.endpoint, "rain cats and dogs", "en", "fr")
    old = lexiserve._local.keep_alive.sock
    assert old.fileno() != -1
    assert client_reverse_translate(biblio_service.endpoint, "université", "fr", "en") == [
        "school",
        "university",
    ]
    assert old.fileno() == -1
    assert lexiserve._local.keep_alive.sock is not old


def test_a_thread_that_ends_closes_its_connection(idioms_service):
    conns = []

    def lookup():
        client_translate(idioms_service.endpoint, "rain cats and dogs", "en", "fr")
        conns.append(lexiserve._local.keep_alive.sock)
        assert conns[0].fileno() != -1

    thread = threading.Thread(target=lookup)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(conns) == 1 and conns[0].fileno() == -1


def test_a_closed_service_answers_no_kept_connection(biblio_store):
    handle = serve(ServiceConfig(), biblio_store)
    try:
        assert client_reverse_translate(handle.endpoint, "université", "fr", "en") == [
            "school",
            "university",
        ]
    finally:
        handle.close()
    with pytest.raises(ClientTransportError):
        client_reverse_translate(handle.endpoint, "université", "fr", "en", timeout_ms=1000)


def test_close_returns_within_the_poll_interval(biblio_store):
    handle = serve(ServiceConfig(port=0), biblio_store)
    assert client_translate(handle.endpoint, "isbn", "en", "fr") == []
    start = time.monotonic()
    handle.close()
    assert time.monotonic() - start < 0.2


def test_unreachable_endpoint_is_transport_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    with pytest.raises(ClientTransportError):
        client_translate(f"http://127.0.0.1:{port}", "w", "en", "fr", timeout_ms=500)


# JSON bodies, by path prefix, that a client must refuse
_GARBAGE = {
    "/wrong-shape/": b'{"rows": []}',
    "/int-cell/": b'{"head": {"vars": ["a"]}, "rows": [[1]]}',
    "/short-row/": b'{"head": {"vars": ["a", "b"]}, "rows": [["x"]]}',
    "/int-var/": b'{"head": {"vars": [1]}, "rows": []}',
}


class _GarbageHandler(BaseHTTPRequestHandler):
    """Answers 200 to GET and POST with a body that is not JSON or, under
    a prefix of _GARBAGE, with JSON of the wrong shape."""

    def do_GET(self):
        prefix = "/" + self.path.split("/")[1] + "/"
        body = _GARBAGE.get(prefix, b"this is not json")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_POST = do_GET

    def log_message(self, *args):
        pass


def test_malformed_json_is_payload_error():
    server = HTTPServer(("127.0.0.1", 0), _GarbageHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}"
        with pytest.raises(ClientPayloadError):
            client_translate(endpoint, "w", "en", "fr")
        with pytest.raises(ClientPayloadError):
            client_sparql(endpoint, "SELECT ?a WHERE { ?a ?b ?c . }")
        with pytest.raises(ClientPayloadError):
            client_translate(endpoint + "/wrong-shape", "w", "en", "fr")
        for prefix in _GARBAGE:
            with pytest.raises(ClientPayloadError):
                client_sparql(endpoint + prefix.rstrip("/"), "SELECT ?a WHERE { ?a ?b ?c . }")
    finally:
        server.shutdown()
        server.server_close()


_HUGE_LIMIT = _LANG_QUERY + b" LIMIT " + b"9" * 5000


@pytest.mark.parametrize(
    "length, body, message",
    [
        pytest.param("abc", b"", "Content-Length", id="abc"),
        pytest.param("-1", b"", "Content-Length", id="-1"),
        pytest.param("9", b"\xff\xfe SELECT", "UTF-8", id="not-utf8"),
        pytest.param(
            str(len(_HUGE_LIMIT)), _HUGE_LIMIT, "1:51: LIMIT has too many digits", id="huge-limit"
        ),
    ],
)
def test_malformed_sparql_request_is_400(idioms_service, length, body, message):
    conn = http.client.HTTPConnection(idioms_service.host, idioms_service.port, timeout=5)
    try:
        conn.putrequest("POST", "/sparql")
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        resp = conn.getresponse()
        assert resp.status == 400
        assert message in json.loads(resp.read())["error"]
    finally:
        conn.close()


def test_keep_alive_requests_are_not_delayed(idioms_service, idioms_store):
    # ten GETs on one connection: a delayed-ACK stall would add ~40 ms each
    expected = idioms_store.translations("rain cats and dogs", "en", "fr")
    conn = http.client.HTTPConnection(idioms_service.host, idioms_service.port, timeout=5)
    try:
        start = time.perf_counter()
        for _ in range(10):
            conn.request("GET", "/translate?word=rain+cats+and+dogs&from=en&to=fr")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["translations"] == expected
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < 0.2


def test_concurrent_identical_requests_identical_bodies(idioms_service):
    url = idioms_service.endpoint + "/translate?word=rain+cats+and+dogs&from=en&to=fr"

    def fetch(_):
        with urlopen(url) as resp:
            return resp.read()

    with ThreadPoolExecutor(max_workers=8) as pool:
        bodies = list(pool.map(fetch, range(16)))
    assert len(set(bodies)) == 1


def test_bind_failure_is_service_error(idioms_store):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        with pytest.raises(ServiceError, match="cannot bind"):
            serve(ServiceConfig(port=port), idioms_store)
    finally:
        blocker.close()


def test_service_config_validation():
    with pytest.raises(ServiceError):
        ServiceConfig(port=70000)
    with pytest.raises(ServiceError):
        ServiceConfig(max_query_patterns=0)
    with pytest.raises(ServiceError):
        ServiceConfig(request_timeout_ms=0)
    with pytest.raises(ServiceError, match="at most 86400000"):
        ServiceConfig(request_timeout_ms=86_400_001)
    assert ServiceConfig(request_timeout_ms=86_400_000).request_timeout_ms == 86_400_000


def test_request_log_line_is_built_only_at_debug(monkeypatch, idioms_service, caplog):
    built = []
    debug = lexiserve.logger.debug

    def counting(*args):
        built.append(1)
        return debug(*args)

    monkeypatch.setattr(lexiserve.logger, "debug", counting)
    with caplog.at_level(logging.INFO, logger="lexalign.lexiserve"):
        client_translate(idioms_service.endpoint, "rain cats and dogs", "en", "fr")
    assert built == []
    with caplog.at_level(logging.DEBUG, logger="lexalign.lexiserve"):
        client_translate(idioms_service.endpoint, "rain cats and dogs", "en", "fr")
    lines = [r.getMessage() for r in caplog.records if r.name == "lexalign.lexiserve"]
    assert built == [1]
    assert any('"GET /translate?word=rain+cats+and+dogs&from=en&to=fr HTTP/1.1" 200' in m for m in lines)


def test_each_answer_is_one_write(monkeypatch, idioms_service):
    writes = []
    sendall = socket.socket.sendall

    def recording(self, data, *args):
        if self.getsockname()[1] == idioms_service.port:  # the service's end of a connection
            writes.append(bytes(data))
        return sendall(self, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    conn = http.client.HTTPConnection(idioms_service.host, idioms_service.port, timeout=5)
    try:
        conn.request("GET", "/translate?word=rain+cats+and+dogs&from=en&to=fr")
        first = conn.getresponse().read()
        conn.request("POST", "/sparql", _LANG_QUERY)
        second = conn.getresponse().read()
    finally:
        conn.close()
    assert [w.partition(b"\r\n\r\n")[2] for w in writes] == [first, second]
    assert [w.split(b" ", 2)[1] for w in writes] == [b"200", b"200"]


class _RawServer:
    """A server of raw bytes for the client to meet. A request under /bad/
    is answered with `reply`, after which the connection is closed if
    `close` is set; any other request with a 200 that suits every client
    function. It counts the connections it accepts and keeps each request
    as it arrived."""

    BODY = b'{"translations": [], "head": {"vars": []}, "rows": []}'
    GOOD = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY)

    def __init__(self, reply=b"", close=False, host="127.0.0.1"):
        self.reply, self.close = reply, close
        self.accepted = 0
        self.requests = []
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, 0), family=family)
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self.endpoint = f"http://[{host}]:{self.port}" if ":" in host else f"http://{host}:{self.port}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            sock.settimeout(5)
            threading.Thread(target=self._answer, args=(sock,), daemon=True).start()

    def _answer(self, sock):
        with sock, sock.makefile("rb") as reader:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = reader.readline()
                    if not line:
                        return
                    head += line
                length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
                self.requests.append(head + (reader.read(int(length[1])) if length else b""))
                bad = head.split(b" ", 2)[1].startswith(b"/bad/")
                sock.sendall(self.reply if bad else self.GOOD)
                if bad and self.close:
                    return

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()


_OK = b"HTTP/1.1 200 OK\r\n"


@pytest.mark.parametrize(
    "reply, close, error",
    [
        pytest.param(b"", True, ClientTransportError, id="no-status-line"),
        pytest.param(b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", False, ClientTransportError, id="garbled-status"),
        pytest.param(b"SSH-2.0-OpenSSH_9.6\r\n", False, ClientTransportError, id="not-http"),
        pytest.param(_OK + b"X-A: b\r\n" * 100 + b"Content-Length: 2\r\n\r\n{}", False, ClientTransportError, id="101-headers"),
        pytest.param(_OK + b"X-A: " + b"b" * 65536 + b"\r\nContent-Length: 2\r\n\r\n{}", False, ClientTransportError, id="long-header"),
        pytest.param(_OK + b"\r\n{}", False, ClientTransportError, id="no-content-length"),
        pytest.param(_OK + b"Content-Length: 2x\r\n\r\n{}", False, ClientTransportError, id="non-numeric-length"),
        pytest.param(_OK + b"Content-Length: -2\r\n\r\n{}", False, ClientTransportError, id="negative-length"),
        pytest.param(_OK + b"Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}", False, ClientTransportError, id="repeated-length"),
        pytest.param(_OK + b" Content-Length: 2\r\n\r\n{}", False, ClientTransportError, id="obs-folded-length"),
        pytest.param(_OK + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", False, ClientTransportError, id="chunked"),
        pytest.param(_OK + b"Content-Length: 100\r\n\r\n{}", True, ClientTransportError, id="short-body"),
        pytest.param(_OK + b"Content-Length: 99999999999999\r\n\r\n{}", True, ClientTransportError, id="huge-length"),
        pytest.param(_OK + b"Content-Length: 8\r\n\r\nnot json", False, ClientPayloadError, id="not-json"),
    ],
)
def test_client_meets_a_hostile_server_with_an_error_and_recovers(reply, close, error, caplog, capsys):
    with _RawServer(reply, close) as server:
        assert client_translate(server.endpoint, "w", "en", "fr") == []
        start = time.monotonic()
        with pytest.raises(error):
            client_translate(server.endpoint + "/bad", "w", "en", "fr", timeout_ms=2000)
        assert time.monotonic() - start < 1.0  # no wait for the timeout
        accepted = server.accepted
        assert client_translate(server.endpoint, "w", "en", "fr") == []
        # a framing fault leaves the connection closed, so the next request reconnects
        assert server.accepted == accepted + (error is ClientTransportError)
    assert not caplog.records
    assert "Traceback" not in capsys.readouterr().err


def test_client_takes_100_header_lines_and_a_64_kib_line():
    most = _OK + b"X-A: " + b"b" * (65536 - 7) + b"\r\n" + b"X-B: c\r\n" * 98 + b"Content-Length: 2\r\n\r\n{}"
    with _RawServer(most) as server:
        with pytest.raises(ClientPayloadError, match="field 'translations'"):
            client_translate(server.endpoint + "/bad", "w", "en", "fr")
        assert client_translate(server.endpoint, "w", "en", "fr") == []
        assert server.accepted == 1


def test_client_sends_each_request_in_one_write(monkeypatch):
    sent = []
    sendall = socket.socket.sendall
    me = threading.get_ident()

    def recording(self, data, *args):
        if threading.get_ident() == me:
            sent.append(bytes(data))
        return sendall(self, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    with _RawServer() as server:
        assert client_translate(server.endpoint, "w", "en", "fr") == []
        assert client_sparql(server.endpoint, "SELECT ?a WHERE { ?a ?b ?c . }") == ([], [])
    assert sent == server.requests
    assert sent[0].startswith(b"GET /translate?word=w&from=en&to=fr HTTP/1.1\r\n")
    assert sent[1].startswith(b"POST /sparql HTTP/1.1\r\n")
    assert sent[1].endswith(b"\r\n\r\nSELECT ?a WHERE { ?a ?b ?c . }")


def test_https_to_a_plain_http_service_is_transport_error(idioms_store):
    with serve(ServiceConfig(request_timeout_ms=300), idioms_store) as handle:
        with pytest.raises(ClientTransportError):
            client_translate(f"https://{handle.host}:{handle.port}", "w", "en", "fr", timeout_ms=2000)


def _ipv6_loopback() -> bool:
    try:
        with socket.create_server(("::1", 0), family=socket.AF_INET6):
            return True
    except OSError:
        return False


def test_an_ipv6_literal_is_bracketed_in_host():
    if not _ipv6_loopback():  # no ::1 to serve on: check the header the request would carry
        assert b"\r\nHost: [::1]:8080\r\n" in lexiserve._request(("http", "::1", 8080), "/stats", None)
        return
    with _RawServer(host="::1") as server:
        assert client_translate(server.endpoint, "w", "en", "fr") == []
    assert b"\r\nHost: [::1]:%d\r\n" % server.port in server.requests[0]


@pytest.mark.parametrize(
    "endpoint",
    ["ftp://127.0.0.1:1", "http://127.0.0.1:1/a b", "http://127.0.0.1:1/é", "http://" + "a" * 64 + ".example:1"],
)
def test_an_endpoint_the_client_cannot_use_is_transport_error(endpoint):
    with pytest.raises(ClientTransportError):
        client_translate(endpoint, "w", "en", "fr", timeout_ms=500)
