import codecs
import gc
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from urllib.request import urlopen

import pytest

from conftest import FIXTURES
from lexalign.cli import main
from lexalign.dictstore import IngestError, ingest_tables, load_snapshot, save_snapshot


RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
MATCH_OPTIONS = ("--from", "fr", "--to", "en", "-o")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_writes_snapshot(tmp_path, capsys):
    out_path = tmp_path / "store.json"
    code, out, _ = run(capsys, "ingest", str(FIXTURES / "idioms_dict"), "-o", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert "7 translation entries" in out


def test_query_prints_rows(tmp_path, capsys):
    snapshot = tmp_path / "store.json"
    assert main(["ingest", str(FIXTURES / "idioms_dict"), "-o", str(snapshot)]) == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "query", str(snapshot), str(FIXTURES / "translations_query.rq")
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "?langCode\t?langName\t?translationWord"
    assert len(lines) == 8
    assert "fr\tFrench\tpleuvoir des cordes" in lines


def test_query_accepts_tsv_directory(capsys):
    code, out, _ = run(
        capsys,
        "query",
        str(FIXTURES / "idioms_dict"),
        str(FIXTURES / "translations_query.rq"),
    )
    assert code == 0
    assert "sv\tSwedish\tösregna" in out


def test_query_with_a_limit_beyond_int_conversion_is_a_data_error(tmp_path, capsys):
    rq = tmp_path / "huge_limit.rq"
    rq.write_text("SELECT ?c WHERE { ?l wikpa:lang_code ?c . } LIMIT " + "9" * 5000, "utf-8")
    code, out, err = run(capsys, "query", str(FIXTURES / "idioms_dict"), str(rq))
    assert (code, out) == (2, "")
    assert "LIMIT has too many digits" in err
    assert "Traceback" not in err


def test_translate_from_store(capsys):
    code, out, _ = run(
        capsys,
        "translate",
        str(FIXTURES / "biblio_dict"),
        "université",
        "--from",
        "fr",
        "--to",
        "en",
    )
    assert code == 0
    assert out.splitlines() == ["school", "university"]


def test_match_and_eval(tmp_path, capsys):
    out_path = tmp_path / "alignment.tsv"
    code, out, _ = run(
        capsys,
        "match",
        str(FIXTURES / "biblio_fr.nt"),
        str(FIXTURES / "biblio_en.nt"),
        "--store",
        str(FIXTURES / "biblio_dict"),
        "--thesaurus",
        str(FIXTURES / "mini_thesaurus_ic.tsv"),
        "--from",
        "fr",
        "--to",
        "en",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert "wrote 8 correspondences" in out

    code, out, _ = run(
        capsys, "eval", str(out_path), str(FIXTURES / "reference_alignment.tsv")
    )
    assert code == 0
    assert out.strip() == "precision=1.00 recall=0.89 |A|=8 |R|=9 |R∩A|=8"


def test_match_no_structure_drops_revue(tmp_path, capsys):
    out_path = tmp_path / "alignment.tsv"
    code, _, _ = run(
        capsys,
        "match",
        str(FIXTURES / "biblio_fr.nt"),
        str(FIXTURES / "biblio_en.nt"),
        "--store",
        str(FIXTURES / "biblio_dict"),
        "--no-structure",
        "--from",
        "fr",
        "--to",
        "en",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert "Revue" not in out_path.read_text("utf-8")


def test_match_with_static_table(tmp_path, capsys):
    out_path = tmp_path / "alignment.tsv"
    code, _, _ = run(
        capsys,
        "match",
        str(FIXTURES / "biblio_fr.nt"),
        str(FIXTURES / "biblio_en.nt"),
        "--table",
        str(FIXTURES / "static_table.tsv"),
        "--from",
        "fr",
        "--to",
        "en",
        "-o",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text("utf-8")
    # the table translates isbn to itself, so that pair must appear; its
    # "Film" -> "Film" answer has no counterpart class on the English side
    assert "#isbn\thttp://example.org/biblio-en#isbn" in text
    assert "#Film\t" not in text


@pytest.mark.parametrize(
    "row", ["fr\ten\tlivre\t", "\ten\tLivre\tBook", "fr\ten\t\tBook"], ids=["last", "first", "word"]
)
def test_match_refuses_an_empty_translation_table_cell(tmp_path, capsys, row):
    table = tmp_path / "table.tsv"
    table.write_text(f"fr\ten\tisbn\tisbn\n{row}\n", "utf-8")
    code, out, err = run(
        capsys,
        "match",
        str(FIXTURES / "biblio_fr.nt"),
        str(FIXTURES / "biblio_en.nt"),
        "--table",
        str(table),
        *MATCH_OPTIONS,
        str(tmp_path / "alignment.tsv"),
    )
    assert (code, out, err) == (2, "", "error: table.tsv:2: empty cell\n")


def test_match_reports_ontology_warnings_on_stderr(tmp_path, capsys):
    def match(onto1, out_path):
        return run(
            capsys,
            "match",
            str(onto1),
            str(FIXTURES / "biblio_en.nt"),
            "--store",
            str(FIXTURES / "biblio_dict"),
            *MATCH_OPTIONS,
            str(out_path),
        )

    clean = match(FIXTURES / "biblio_fr.nt", tmp_path / "clean.tsv")
    onto1 = tmp_path / "biblio_fr.nt"
    lines = (FIXTURES / "biblio_fr.nt").read_text("utf-8").splitlines()
    lines.append('<http://example.org/x> <http://example.org/unknownPred> "v" .')
    onto1.write_text("\n".join(lines) + "\n", "utf-8")
    code, out, err = match(onto1, tmp_path / "warned.tsv")
    assert clean[2] == ""
    assert err == (
        f"warning: {onto1}: line {len(lines)}: "
        "unknown predicate http://example.org/unknownPred ignored\n"
    )
    assert (code, out.replace("warned", "clean")) == clean[:2]
    assert (tmp_path / "warned.tsv").read_bytes() == (tmp_path / "clean.tsv").read_bytes()


def test_usage_error_exit_code_1(capsys):
    assert main(["match", "only-one-arg"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_unknown_command_exit_code_1(capsys):
    assert main(["frobnicate"]) == 1


def test_data_error_exit_code_2(tmp_path, capsys):
    assert main(["ingest", str(tmp_path), "-o", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert "missing table file" in err


def _doctored_snapshot(tmp_path, capsys, table, edit):
    path = tmp_path / "store.json"
    assert main(["ingest", str(FIXTURES / "idioms_dict"), "-o", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text("utf-8"))
    edit(payload[table])
    path.write_text(json.dumps(payload), "utf-8")
    return path


def _translate_exit_code(capsys, path, message):
    with pytest.raises(IngestError, match=message):
        load_snapshot(path)
    code, out, err = run(capsys, "translate", str(path), "rain cats and dogs", "--from", "en", "--to", "fr")
    assert (code, out) == (2, "")
    assert message in err


def test_snapshot_duplicate_id_exit_code_2(tmp_path, capsys):
    # a second page 1 used to replace the first, and the headword vanished
    path = _doctored_snapshot(tmp_path, capsys, "page", lambda rows: rows.append([1, "other"]))
    _translate_exit_code(capsys, path, "page row 2: duplicate page_id 1")


def test_snapshot_wrongly_typed_cell_exit_code_2(tmp_path, capsys):
    # an int among the French texts used to end in a TypeError while sorting
    def edit(rows):
        rows[2][1] = 5

    path = _doctored_snapshot(tmp_path, capsys, "wiki_text", edit)
    _translate_exit_code(capsys, path, "wiki_text row 3: text is not a string: 5")


def test_match_on_cyclic_ontology_exit_code_2(tmp_path, capsys):
    # a 3000-long subclass cycle: a data error, not a recursion overflow
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    owl_class = "http://www.w3.org/2002/07/owl#Class"
    sub_class_of = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
    ex = "http://example.org/c#"
    depth = 3000
    triples = [f"<{ex}C{i}> <{rdf_type}> <{owl_class}> ." for i in range(depth)]
    triples += [f"<{ex}C{i}> <{sub_class_of}> <{ex}C{(i + 1) % depth}> ." for i in range(depth)]
    cyclic = tmp_path / "cyclic.nt"
    cyclic.write_text("\n".join(triples) + "\n", "utf-8")
    code, _, err = run(
        capsys,
        "match",
        str(cyclic),
        str(FIXTURES / "biblio_en.nt"),
        "--store",
        str(FIXTURES / "biblio_dict"),
        "--from",
        "fr",
        "--to",
        "en",
        "-o",
        str(tmp_path / "alignment.tsv"),
    )
    assert code == 2
    assert "cycle" in err


@pytest.mark.parametrize("option", ["--jw", "--jcn"])
def test_match_with_a_nan_threshold_exit_code_2(tmp_path, capsys, option):
    # and a threshold above the stage's highest score, which would turn it off
    unreachable = {"--jw": "1.5", "--jcn": "inf"}[option]
    for value, message in (("nan", "thresholds must be positive"), (unreachable, "highest score")):
        code, _, err = run(
            capsys,
            "match",
            str(FIXTURES / "biblio_fr.nt"),
            str(FIXTURES / "biblio_en.nt"),
            "--store",
            str(FIXTURES / "biblio_dict"),
            option,
            value,
            *MATCH_OPTIONS,
            str(tmp_path / "alignment.tsv"),
        )
        assert code == 2
        assert message in err
        assert not (tmp_path / "alignment.tsv").exists()


def _refuse_to_read(monkeypatch, *targets):
    """Make each (owner, name) raise AssertionError: an input read too early."""

    def read(*args, **kwargs):
        raise AssertionError("read an input before the options were checked")

    for owner, name in targets:
        monkeypatch.setattr(owner, name, read)


@pytest.mark.parametrize("backend", ["--store", "--table"])
@pytest.mark.parametrize("option, value", [("--jw", "1.5"), ("--jcn", "nan")])
def test_match_refuses_bad_options_before_reading_any_input(
    tmp_path, capsys, monkeypatch, backend, option, value
):
    from lexalign import dictstore, labelkit, ontomodel, taxsim

    _refuse_to_read(
        monkeypatch,
        (ontomodel, "load_ontology_file"),
        (dictstore, "open_store"),
        (labelkit.StaticTableTranslator, "from_file"),
        (taxsim, "load_thesaurus"),
    )
    source = {"--store": FIXTURES / "biblio_dict", "--table": FIXTURES / "static_table.tsv"}[backend]
    code, _, err = run(
        capsys,
        "match",
        str(FIXTURES / "biblio_fr.nt"),
        str(FIXTURES / "biblio_en.nt"),
        backend,
        str(source),
        "--thesaurus",
        str(FIXTURES / "mini_thesaurus_ic.tsv"),
        option,
        value,
        *MATCH_OPTIONS,
        str(tmp_path / "alignment.tsv"),
    )
    assert code == 2
    assert "thresholds must" in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-patterns", "0", "max_query_patterns must be positive"),
        ("--timeout-ms", "0", "request_timeout_ms must be positive"),
        ("--timeout-ms", "100000000000000000000", "request_timeout_ms must be at most 86400000"),
    ],
)
def test_serve_refuses_bad_options_before_opening_the_store(
    capsys, monkeypatch, option, value, message
):
    from lexalign import dictstore, lexiserve

    _refuse_to_read(monkeypatch, (dictstore, "open_store"), (lexiserve, "serve"))
    code, out, err = run(
        capsys, "serve", str(FIXTURES / "idioms_dict"), "--bind", "127.0.0.1:0", option, value
    )
    assert code == 2
    assert message in err
    assert "serving on" not in out


def test_match_on_an_entity_without_a_name_exit_code_2(tmp_path, capsys):
    fr = (FIXTURES / "biblio_fr.nt").read_text("utf-8")
    unnamed = "http://example.org/biblio-fr#"
    onto = tmp_path / "unnamed.nt"
    onto.write_text(
        fr + f'<{unnamed}> <{RDF_TYPE}> <{OWL_CLASS}> .\n<{unnamed}> <{RDFS_LABEL}> "" .\n', "utf-8"
    )
    code, _, err = run(
        capsys,
        "match",
        str(onto),
        str(FIXTURES / "biblio_en.nt"),
        "--store",
        str(FIXTURES / "biblio_dict"),
        *MATCH_OPTIONS,
        str(tmp_path / "alignment.tsv"),
    )
    assert code == 2
    assert f"{unnamed} has an empty name" in err


def test_eval_bad_file_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t1.5\n", "utf-8")
    good = FIXTURES / "reference_alignment.tsv"
    assert main(["eval", str(bad), str(good)]) == 2


MATCH = ["--from", "fr", "--to", "en", "-o", "{out}"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["query", "{dict}", "{bad}"], id="query-file"),
        pytest.param(["query", "{bad}", "{rq}"], id="store-snapshot"),
        pytest.param(["ingest", "{tables}", "-o", "{out}"], id="ingest-table"),
        pytest.param(["match", "{bad}", "{en}", "--store", "{dict}", *MATCH], id="ontology"),
        pytest.param(
            ["match", "{fr}", "{en}", "--store", "{dict}", "--thesaurus", "{bad}", *MATCH], id="thesaurus"
        ),
        pytest.param(["match", "{fr}", "{en}", "--table", "{bad}", *MATCH], id="translation-table"),
        pytest.param(["eval", "{bad}", "{ref}"], id="alignment"),
    ],
)
def test_input_that_is_not_utf8_is_a_data_error(tmp_path, capsys, argv):
    tables = tmp_path / "tables"
    shutil.copytree(FIXTURES / "idioms_dict", tables)
    bad = tables / "page.tsv" if "{tables}" in argv else tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1\tword\n")
    names = {
        "bad": bad,
        "tables": tables,
        "out": tmp_path / "out",
        "dict": FIXTURES / "biblio_dict",
        "rq": FIXTURES / "translations_query.rq",
        "fr": FIXTURES / "biblio_fr.nt",
        "en": FIXTURES / "biblio_en.nt",
        "ref": FIXTURES / "reference_alignment.tsv",
    }
    code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
    assert code == 2
    assert err.startswith("error:")
    assert str(bad) in err
    assert "Traceback" not in err


def _with_bom(source, target):
    """A copy of a file, or of a directory's files, each prefixed with the
    UTF-8 byte-order mark."""
    if source.is_dir():
        target.mkdir()
        for path in source.iterdir():
            _with_bom(path, target / path.name)
    else:
        target.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
    return target


@pytest.mark.parametrize(
    "argv, marked",
    [
        pytest.param(["query", "{dict}", "{rq}"], "rq", id="query-file"),
        pytest.param(["query", "{snapshot}", "{rq}"], "snapshot", id="store-snapshot"),
        pytest.param(["ingest", "{tables}", "-o", "{out}"], "tables", id="ingest-table"),
        pytest.param(["match", "{fr}", "{en}", "--store", "{dict}", *MATCH], "fr", id="ontology"),
        pytest.param(
            ["match", "{fr}", "{en}", "--store", "{dict}", "--thesaurus", "{thesaurus}", *MATCH],
            "thesaurus",
            id="thesaurus",
        ),
        pytest.param(["match", "{fr}", "{en}", "--table", "{table}", *MATCH], "table", id="translation-table"),
        pytest.param(["eval", "{ref}", "{reference}"], "ref", id="alignment"),
    ],
)
def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, argv, marked):
    snapshot = tmp_path / "store.json"
    save_snapshot(ingest_tables(FIXTURES / "biblio_dict"), snapshot)
    table = tmp_path / "table.tsv"  # dropping any one line of static_table.tsv leaves its alignment as it is
    table.write_text("fr\ten\tÉtablissement\tInstitution\n", "utf-8")
    names = {
        "dict": FIXTURES / "biblio_dict",
        "rq": FIXTURES / "translations_query.rq",
        "snapshot": snapshot,
        "tables": FIXTURES / "idioms_dict",
        "fr": FIXTURES / "biblio_fr.nt",
        "en": FIXTURES / "biblio_en.nt",
        "thesaurus": FIXTURES / "mini_thesaurus_ic.tsv",
        "table": table,
        "ref": FIXTURES / "reference_alignment.tsv",
        "reference": FIXTURES / "reference_alignment.tsv",
    }

    def outcome(names, out):
        code, stdout, err = run(capsys, *(arg.format(out=out, **names) for arg in argv))
        written = out.read_bytes() if out.exists() else None
        return code, stdout.replace(str(out), "OUT"), err.replace(str(names[marked]), "IN"), written

    plain = outcome(names, tmp_path / "plain-out")
    assert plain[0] == 0
    marked_path = _with_bom(names[marked], tmp_path / f"bom-{names[marked].name}")
    assert outcome({**names, marked: marked_path}, tmp_path / "bom-out") == plain


_UNKNOWN_TRIPLE = '<http://example.org/x> <http://example.org/unknownPred> "v" .'


# str.splitlines() breaks a line at U+2028, U+0085 and a form feed; no file format does
@pytest.mark.parametrize(
    "argv, doctored, old, new, err",
    [
        pytest.param(
            ["match", "{in}/biblio_fr.nt", "{in}/biblio_en.nt", "--store", "{in}/biblio_dict", *MATCH],
            "biblio_fr.nt",
            '"Film" .\n',
            f'"F\u2028i\x85l\fm" .\n{_UNKNOWN_TRIPLE}\n',
            "warning: {in}/biblio_fr.nt: line 4: unknown predicate http://example.org/unknownPred ignored\n",
            id="ontology-label",
        ),
        pytest.param(
            ["match", "{in}/biblio_fr.nt", "{in}/biblio_en.nt", "--store", "{in}/biblio_dict",
             "--thesaurus", "{in}/mini_thesaurus_ic.tsv", *MATCH],
            "mini_thesaurus_ic.tsv",
            "|grouping\t",
            "|grou\u2028p\x85i\fng\t",
            "",
            id="thesaurus-word",
        ),
        pytest.param(
            ["match", "{in}/biblio_fr.nt", "{in}/biblio_en.nt", "--table", "{in}/static_table.tsv", *MATCH],
            "static_table.tsv",
            "\tShortname\n",
            "\tShort\u2028n\x85am\fe\n",
            "",
            id="translation-table-word",
        ),
        pytest.param(
            ["ingest", "{in}/idioms_dict", "-o", "{out}"],
            "idioms_dict/wiki_text.tsv",
            "des cordes",
            "des\u2028\x85\fcordes",
            "",
            id="dictionary-table-cell",
        ),
    ],
)
def test_line_separators_inside_a_cell_or_literal_stay_there(tmp_path, capsys, argv, doctored, old, new, err):
    names = {"in": tmp_path / "in", "out": tmp_path / "out"}
    shutil.copytree(FIXTURES, names["in"])
    path = names["in"] / doctored
    text = path.read_text("utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), "utf-8")
    code, _, stderr = run(capsys, *(arg.format(**names) for arg in argv))
    assert (code, stderr) == (0, err.format(**names))


def test_query_reads_its_query_file_before_the_store(tmp_path, capsys):
    store, query = tmp_path / "no-store.json", tmp_path / "no-query.rq"
    code, out, err = run(capsys, "query", str(store), str(query))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read query file {query}: ")
    assert str(store) not in err


@pytest.mark.parametrize(
    "body",
    [
        pytest.param('{"page": [[' + "9" * 5000 + ', "x"]]}', id="5000-digit-integer"),
        pytest.param("[" * 200_000 + "]" * 200_000, id="200000-nested-arrays"),
    ],
)
def test_snapshot_json_cannot_decode_is_a_data_error(tmp_path, capsys, body):
    path = tmp_path / "store.json"
    path.write_text(body, "utf-8")
    code, out, err = run(capsys, "translate", str(path), "word", "--from", "en", "--to", "fr")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read store snapshot {path}: ")
    assert "Traceback" not in err


def test_translate_without_store_or_endpoint_is_usage_error(capsys):
    assert main(["translate", "word", "--from", "fr", "--to", "en"]) == 1


def test_translate_with_both_store_and_endpoint_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "translate",
        str(FIXTURES / "biblio_dict"),
        "université",
        "--endpoint",
        "http://127.0.0.1:9",
        "--from",
        "fr",
        "--to",
        "en",
    )
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")


def test_translate_through_endpoint(capsys, biblio_store):
    from lexalign.lexiserve import ServiceConfig, serve

    with serve(ServiceConfig(port=0), biblio_store) as handle:
        code, out, _ = run(
            capsys,
            "translate",
            "--endpoint",
            handle.endpoint,
            "film",
            "--from",
            "fr",
            "--to",
            "en",
        )
    assert code == 0
    assert out.splitlines() == ["cinema", "film", "flick", "motion picture", "movie"]


@pytest.mark.parametrize("options, count", [([], 8), (["--no-structure"], 7)], ids=["structure", "no-structure"])
def test_match_through_an_endpoint_writes_what_match_on_the_store_writes(
    tmp_path, capsys, biblio_store, options, count
):
    from lexalign.lexiserve import ServiceConfig, serve

    inputs = [
        "match", str(FIXTURES / "biblio_fr.nt"), str(FIXTURES / "biblio_en.nt"),
        "--thesaurus", str(FIXTURES / "mini_thesaurus_ic.tsv"), *options, *MATCH_OPTIONS,
    ]
    local, served = tmp_path / "local.tsv", tmp_path / "served.tsv"
    assert run(capsys, *inputs, str(local), "--store", str(FIXTURES / "biblio_dict")) == (
        0, f"wrote {count} correspondences to {local}\n", ""
    )
    with serve(ServiceConfig(port=0), biblio_store) as handle:
        assert run(capsys, *inputs, str(served), "--endpoint", handle.endpoint) == (
            0, f"wrote {count} correspondences to {served}\n", ""
        )
    assert served.read_bytes() == local.read_bytes()


# what serving never needs: the aligner and its stages, and TLS
_NOT_FOR_SERVING = (
    "lexalign.aligner",
    "lexalign.labelkit",
    "lexalign.ontomodel",
    "lexalign.strsim",
    "lexalign.structsim",
    "lexalign.taxsim",
    "ssl",
)


def test_the_cli_and_its_parser_load_nothing_serving_does_not_need():
    src = str(Path(__file__).parent.parent / "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import lexalign.cli; "
        "lexalign.cli._build_parser(); "
        f"print([name for name in {_NOT_FOR_SERVING!r} if name in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_serve_subprocess_graceful_shutdown():
    with subprocess.Popen(  # leaving the block closes the pipes
        [
            sys.executable,
            "-m",
            "lexalign.cli",
            "serve",
            str(FIXTURES / "idioms_dict"),
            "--bind",
            "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            assert "serving on http://" in line
            endpoint = line.split("serving on ", 1)[1].split(" ", 1)[0].strip()
            with urlopen(endpoint + "/stats", timeout=5) as resp:
                payload = json.loads(resp.read())
            assert payload["translation_entry_count"] == 7
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


def test_serve_with_a_timeout_beyond_one_day_is_a_data_error():
    done = subprocess.run(
        [
            sys.executable,
            "-m",
            "lexalign.cli",
            "serve",
            str(FIXTURES / "idioms_dict"),
            "--bind",
            "127.0.0.1:0",
            "--timeout-ms",
            "100000000000000000000",
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 2
    assert "request_timeout_ms must be at most 86400000" in done.stderr
    assert "Traceback" not in done.stderr
    assert "serving on" not in done.stdout


@pytest.mark.parametrize(
    "port",
    [
        pytest.param("\u00b2", id="superscript-two"),
        pytest.param("\u0663\u0663", id="arabic-indic-33"),
        pytest.param("+80", id="plus-sign"),
        pytest.param(" 80", id="leading-space"),
        pytest.param("65536", id="past-65535"),
        pytest.param("9" * 5000, id="5000-digits"),
    ],
)
def test_serve_takes_a_port_of_ascii_digits_only(monkeypatch, capsys, port):
    from lexalign import dictstore

    def refuse(path):
        raise AssertionError(f"--bind 127.0.0.1:{port!r} was accepted")

    monkeypatch.setattr(dictstore, "open_store", refuse)  # an accepted port would load and serve
    assert main(["serve", str(FIXTURES / "idioms_dict"), "--bind", f"127.0.0.1:{port}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --bind must be host:port")
    assert "Traceback" not in err


def test_serve_freezes_the_store_it_loads_with_the_collector_paused(monkeypatch):
    from types import SimpleNamespace

    from lexalign import cli, dictstore, lexiserve

    seen = {}
    open_store, serve = dictstore.open_store, lexiserve.serve

    def opening(path):
        seen["load"] = gc.isenabled()
        seen["store"] = open_store(path)
        return seen["store"]

    def serving(config, store):
        seen["serve"] = gc.isenabled()
        seen["handle"] = serve(config, store)
        return seen["handle"]

    class Stopped:
        """What serve waits on: a stop already asked for."""

        def set(self):
            pass

        def wait(self):
            seen["serving"] = gc.isenabled()
            built = (seen["store"].position, seen["handle"]._server.triples)
            held = {id(o) for o in gc.get_objects()}  # frozen objects are not listed
            seen["walked"] = [(gc.is_tracked(o), id(o) in held) for o in built]

    monkeypatch.setattr(dictstore, "open_store", opening)
    monkeypatch.setattr(lexiserve, "serve", serving)
    monkeypatch.setattr(cli, "threading", SimpleNamespace(Event=Stopped))
    monkeypatch.setattr(cli, "signal", SimpleNamespace(signal=lambda *_: None, SIGINT=0, SIGTERM=0))
    assert gc.isenabled()
    try:
        assert main(["serve", str(FIXTURES / "idioms_dict"), "--bind", "127.0.0.1:0"]) == 0
    finally:
        gc.unfreeze()
    assert (seen["load"], seen["serve"], seen["serving"]) == (False, False, True)
    assert seen["walked"] == [(True, False), (True, False)]
    assert gc.isenabled()
