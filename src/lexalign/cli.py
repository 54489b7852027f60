"""Command line interface.

    lexalign ingest <dir> -o <store>
    lexalign serve <store> --bind <host:port>
    lexalign query <store> <query-file>
    lexalign translate <store> <word> --from L1 --to L2
    lexalign translate --endpoint URL <word> --from L1 --to L2
    lexalign match <onto1.nt> <onto2.nt> --store S|--endpoint URL|--table T
                   --from L1 --to L2 [--thesaurus T] [--jw 0.9] [--jcn 1.0]
                   [--sw] [--no-structure] -o <align.tsv>
    lexalign eval <align.tsv> <reference.tsv>

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
import threading
from pathlib import Path

# serving needs only these two; each other command imports what it uses
from . import dictstore, lexiserve
from .errors import LexalignError, read_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we reserve 2 for data errors
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lexalign", description="dictionary-backed ontology alignment")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load TSV tables and write a store snapshot")
    p_ingest.add_argument("directory", type=Path)
    p_ingest.add_argument("-o", "--output", type=Path, required=True)

    p_serve = sub.add_parser("serve", help="serve a store over HTTP")
    p_serve.add_argument("store", type=Path)
    p_serve.add_argument("--bind", default="127.0.0.1:8080", help="host:port")
    p_serve.add_argument("--max-patterns", type=int, default=lexiserve.DEFAULT_MAX_PATTERNS)
    p_serve.add_argument("--timeout-ms", type=int, default=lexiserve.DEFAULT_TIMEOUT_MS)

    p_query = sub.add_parser("query", help="run a query file against a store")
    p_query.add_argument("store", type=Path)
    p_query.add_argument("query_file", type=Path)

    p_translate = sub.add_parser("translate", help="look a word up in the dictionary")
    p_translate.add_argument("store", nargs="?", type=Path)
    p_translate.add_argument("word")
    p_translate.add_argument("--endpoint", help="query a running service instead of a store")
    p_translate.add_argument("--from", dest="from_lang", required=True)
    p_translate.add_argument("--to", dest="to_lang", required=True)

    p_match = sub.add_parser("match", help="align two ontologies")
    p_match.add_argument("onto1", type=Path)
    p_match.add_argument("onto2", type=Path)
    backend = p_match.add_mutually_exclusive_group(required=True)
    backend.add_argument("--store", type=Path)
    backend.add_argument("--endpoint")
    backend.add_argument("--table", type=Path)
    p_match.add_argument("--thesaurus", type=Path)
    p_match.add_argument("--jw", type=float, default=0.9)
    p_match.add_argument("--jcn", type=float, default=1.0)
    p_match.add_argument("--sw", action="store_true", help="also accept Smith-Waterman matches")
    p_match.add_argument("--no-structure", action="store_true", help="skip the structural stage")
    p_match.add_argument("--from", dest="from_lang", required=True)
    p_match.add_argument("--to", dest="to_lang", required=True)
    p_match.add_argument("-o", "--output", type=Path, required=True)

    p_eval = sub.add_parser("eval", help="score an alignment against a reference")
    p_eval.add_argument("alignment", type=Path)
    p_eval.add_argument("reference", type=Path)

    return parser


def _cmd_ingest(args) -> int:
    store = dictstore.ingest_tables(args.directory)
    dictstore.save_snapshot(store, args.output)
    stats = store.stats()
    print(
        f"ingested {stats.entry_count} entries, "
        f"{stats.translation_entry_count} translation entries -> {args.output}"
    )
    return EXIT_OK


def _cmd_serve(args) -> int:
    host, _, port_text = args.bind.rpartition(":")
    # ASCII digits only: str.isdigit also takes "²", which int() refuses, and "٣٣", which it reads as 33
    digits = port_text.isascii() and port_text.isdigit() and len(port_text) <= 5
    if not host or not digits or int(port_text) > 65535:
        raise _UsageError(f"--bind must be host:port with a port of 0 to 65535, got {args.bind!r}")
    config = lexiserve.ServiceConfig(  # refuses bad options before the store is read
        host=host,
        port=int(port_text),
        max_query_patterns=args.max_patterns,
        request_timeout_ms=args.timeout_ms,
    )
    # the store and its RDF view live as long as the process; frozen, they
    # are never walked by the collector, which sees only what serving makes
    with dictstore.collector_paused():
        store = dictstore.open_store(args.store)
        handle = lexiserve.serve(config, store)
        gc.freeze()
    print(f"serving on {handle.endpoint} (Ctrl-C to stop)", flush=True)
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    stop.wait()
    handle.close()
    print("stopped")
    return EXIT_OK


def _cmd_query(args) -> int:
    from . import sparqlet, triplemap

    query = sparqlet.parse_query(read_text(args.query_file, "query file", LexalignError))
    store = dictstore.open_store(args.store)
    table = sparqlet.evaluate(query, triplemap.to_triples(store))
    print("\t".join(f"?{name}" for name in table.header))
    for row in table.rows:
        print("\t".join(row))
    return EXIT_OK


def _cmd_translate(args) -> int:
    from . import labelkit

    if args.endpoint and args.store is not None:
        raise _UsageError("translate takes a store path or --endpoint, not both")
    if args.endpoint:
        translator = labelkit.EndpointTranslator(args.endpoint)
    elif args.store is not None:
        translator = labelkit.DictionaryTranslator(dictstore.open_store(args.store))
    else:
        raise _UsageError("translate needs a store path or --endpoint")
    for term in translator.translate(args.word, args.from_lang, args.to_lang):
        print(term)
    return EXIT_OK


def _cmd_match(args) -> int:
    from . import aligner, labelkit, ontomodel, taxsim

    cfg = aligner.MatchConfig(  # refuses bad options before any input is read
        source_lang=args.from_lang,
        target_lang=args.to_lang,
        jw_threshold=args.jw,
        jcn_threshold=args.jcn,
        sw_enabled=args.sw,
        structure_enabled=not args.no_structure,
    )
    o1 = ontomodel.load_ontology_file(args.onto1)
    o2 = ontomodel.load_ontology_file(args.onto2)
    for path, onto in ((args.onto1, o1), (args.onto2, o2)):
        for warning in onto.warnings:
            print(f"warning: {path}: {warning}", file=sys.stderr)
    if args.store is not None:
        translator = labelkit.DictionaryTranslator(dictstore.open_store(args.store))
    elif args.endpoint is not None:
        translator = labelkit.EndpointTranslator(args.endpoint)
    else:
        translator = labelkit.StaticTableTranslator.from_file(args.table)
    thesaurus = taxsim.load_thesaurus(args.thesaurus) if args.thesaurus else None
    result = aligner.align(o1, o2, translator, cfg, thesaurus)
    aligner.write_alignment(result, args.output)
    print(f"wrote {len(result)} correspondences to {args.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import aligner

    alignment = aligner.read_alignment(args.alignment)
    reference = aligner.read_alignment(args.reference)
    print(aligner.evaluate(alignment, reference).summary())
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "translate": _cmd_translate,
    "match": _cmd_match,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LexalignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
