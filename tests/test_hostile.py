"""Hostile bytes for the parsers of outside input.

Each input is derived from a valid one: the paper's translation query, a
request head and a response head for the in-process parsers, and a
fixture file for each line reader that `lexalign` runs on a path. A
derivation truncates it, flips the bits of a byte, splices in the tail
of another input, inserts a BOM, CR, CRLF, NUL or b"\\xff\\xfe" (and, for
the line readers, a tab, "|", "#", '"' or " _:"), or grows one of its
numbers by 6,000 digits, up to three times over. Each parser must return
or raise its own error, never anything else; the command line must exit
0 or 2 and print no traceback.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from lexalign import lexiserve
from lexalign.cli import main
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
def derived(draw, original: bytes, splices=INPUTS, inserts=INSERTS) -> bytes:
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("truncate", "flip", "splice", "insert", "digits")))
        if edit == "truncate":
            del data[pos:]
        elif edit == "flip" and pos < len(data):
            data[pos] ^= draw(st.integers(1, 255))
        elif edit == "splice":
            other = draw(st.sampled_from(splices))
            data[pos:] = other[draw(st.integers(0, len(other))) :]
        elif edit == "insert":
            data[pos:pos] = draw(st.sampled_from(inserts))
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


# each line reader and the fixtures its input derives from; while
# another reader's input is derived, it reads the first of them
READERS = {
    "ontology": ("biblio_fr.nt", "biblio_en.nt"),
    "thesaurus": ("mini_thesaurus_ic.tsv", "mini_thesaurus_freq.tsv"),
    "table": ("static_table.tsv",),
    "alignment": ("reference_alignment.tsv", "expected_alignment.tsv"),
}
MATCH = [
    "match", "{ontology}", "{en}", "--table", "{table}", "--thesaurus", "{thesaurus}",
    "--from", "fr", "--to", "en", "-o", "{out}",
]
EVAL = ["eval", "{alignment}", "{reference}"]
FILES = tuple((FIXTURES / name).read_bytes() for originals in READERS.values() for name in originals)
LINE_INSERTS = INSERTS + (b"\t", b"|", b"#", b'"', b" _:")


@st.composite
def reader_input(draw) -> tuple[str, bytes]:
    reader = draw(st.sampled_from(sorted(READERS)))
    original = (FIXTURES / draw(st.sampled_from(READERS[reader]))).read_bytes()
    return reader, draw(derived(original, FILES, LINE_INSERTS))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(reader_input())
@example(("ontology", (FIXTURES / "biblio_fr.nt").read_bytes().replace(b"<http", b" _:<http", 3)))
@example(("thesaurus", (FIXTURES / "mini_thesaurus_freq.tsv").read_bytes().replace(b"\t5\t", b"\t" + b"9" * 6000 + b"\t")))
@example(("thesaurus", (FIXTURES / "mini_thesaurus_ic.tsv").read_bytes().replace(b"\t0.4\t", b'\t0.4"\t')))
@example(("table", b"\xef\xbb\xbffr\ten\tLivre\t" + b"9" * 6000 + b"\n"))
@example(("alignment", (FIXTURES / "reference_alignment.tsv").read_bytes().replace(b"\t1.0000\n", b'\t1.0"000\n', 2)))
def test_line_readers_exit_0_or_2_without_a_traceback(tmp_path_factory, case):
    reader, data = case
    work = tmp_path_factory.getbasetemp() / "line_readers"
    work.mkdir(exist_ok=True)
    bad = work / "input"
    bad.write_bytes(data)
    names = {name: FIXTURES / originals[0] for name, originals in READERS.items()}
    names.update(en=FIXTURES / "biblio_en.nt", reference=FIXTURES / "reference_alignment.tsv", out=work / "out.tsv")
    names[reader] = bad
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([arg.format(**names) for arg in (EVAL if reader == "alignment" else MATCH)])
    assert code in (0, 2), (reader, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
