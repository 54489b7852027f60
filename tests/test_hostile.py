"""Hostile bytes for the in-process parsers of outside input.

Each input is derived from a valid one: the paper's translation query, a
request head and a response head. A derivation truncates it, flips the
bits of a byte, splices in the tail of another input, inserts a BOM, CR,
CRLF, NUL or b"\\xff\\xfe", or grows one of its numbers by 6,000 digits,
up to three times over. Each parser must return or raise its own error,
never anything else.
"""

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from lexalign import lexiserve
from lexalign.sparqlet import QueryParseError, parse_query

QUERY = (FIXTURES / "translations_query.rq").read_bytes()
REQUEST_HEAD = (
    b"POST /sparql HTTP/1.1\r\nHost: localhost:8080\r\nContent-Type: text/plain\r\n"
    b"Content-Length: 1024\r\n\r\n"
)
RESPONSE_HEAD = (
    b"HTTP/1.1 200 OK\r\nDate: Wed, 21 Oct 2026 00:00:00 GMT\r\n"
    b"Content-Type: application/json; charset=utf-8\r\nContent-Length: 17\r\n\r\n"
    b'{"translations":[]}'
)
INPUTS = (QUERY, REQUEST_HEAD, RESPONSE_HEAD)
INSERTS = (b"\xef\xbb\xbf", b"\r", b"\r\n", b"\x00", b"\xff\xfe")


@st.composite
def derived(draw, original: bytes) -> bytes:
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("truncate", "flip", "splice", "insert", "digits")))
        if edit == "truncate":
            del data[pos:]
        elif edit == "flip" and pos < len(data):
            data[pos] ^= draw(st.integers(1, 255))
        elif edit == "splice":
            other = draw(st.sampled_from(INPUTS))
            data[pos:] = other[draw(st.integers(0, len(other))) :]
        elif edit == "insert":
            data[pos:pos] = draw(st.sampled_from(INSERTS))
        elif edit == "digits":  # into a number, where the input has one
            at = draw(st.sampled_from([i for i, byte in enumerate(data) if byte in b"0123456789"] or [pos]))
            data[at:at] = draw(st.sampled_from((b"0", b"9"))) * 6000
    return bytes(data)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(derived(QUERY))
@example(QUERY)
@example(b"\xef\xbb\xbf" + QUERY)
@example(QUERY.replace(b"LIMIT 7", b"LIMIT " + b"9" * 6000))
def test_parse_query_returns_or_raises_query_parse_error(data):
    try:
        parse_query(data.decode("utf-8", errors="replace"))  # the service refuses non-UTF-8 first
    except QueryParseError:
        pass


_PATTERNS = st.sampled_from((lexiserve._REQUEST_LINE, lexiserve._STATUS_LINE))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(derived(REQUEST_HEAD), derived(RESPONSE_HEAD)), _PATTERNS)
@example(REQUEST_HEAD, lexiserve._REQUEST_LINE)
@example(RESPONSE_HEAD, lexiserve._STATUS_LINE)
@example(b"", lexiserve._STATUS_LINE)
@example(REQUEST_HEAD.replace(b"1024", b"9" * 6000), lexiserve._REQUEST_LINE)
def test_read_head_returns_or_raises_bad_message(data, first_line):
    try:
        lexiserve._read_head(io.BufferedReader(io.BytesIO(data)), first_line)
    except (lexiserve._BadMessage, ConnectionError):
        pass
