"""lexalign benchmark: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload match-local --seed 1 --seconds 30 --trace 0

Run it from the root of a lexalign checkout; it imports the package from
./src and serves it with `python3 -m lexalign.cli serve`. Workloads:

  match-local     align() with DictionaryTranslator, thesaurus and structure
                  stage, in a worker process, over 32 pairs of 20 classes
  match-endpoint  align() with EndpointTranslator and no structure stage
                  against `lexalign serve` on an 8k-page dictionary, over
                  32 pairs of 14 classes
  sparql-paper    the paper's translation query, POST /sparql, against
                  `lexalign serve` on a 500-page dictionary

All traffic is a closed loop with one client. With --trace 0 the last
line of output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run.
Earlier lines carry digests of the outputs (see digests.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlencode
from urllib.request import urlopen

from ops import CpuRotation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
QUERY_FILE = FIXTURES / "translations_query.rq"
QUERY_HEADWORD = '"rain cats and dogs"'

# set-ups per run, alternating over the CPUs; setup_s is their median
SERVED_SETUPS = 3
LOCAL_SETUPS = 15  # a load takes 50-100 ms and varies with the core speed

# 32 pairs per run, so that a run's latencies sample many pair shapes
LOCAL_PAGES, LOCAL_PAIRS, LOCAL_CLASSES = 1200, 32, 20
ENDPOINT_PAGES, ENDPOINT_PAIRS, ENDPOINT_CLASSES = 8000, 32, 14
SPARQL_PAGES = 500
SPARQL_ENTRIES = (1, 3)  # one meaning per page: every query costs about the same
SPARQL_PAGE_LANGS = ("en", "fr", "en", "de", "en", "es", "en", "it", "en", "ru")
SPARQL_DIGEST_QUERIES = 20  # every run makes at least these queries; the digest covers them
SPARQL_REPLAYS = 30  # queries replayed in-process by the traced run

# floors for match-local against the planted reference; README.md argues them
PRECISION_FLOOR = 0.60
RECALL_FLOOR = 0.60

PER_LAYER = (
    ("aligner.translate_s", "s"),
    ("aligner.string_s", "s"),
    ("aligner.lexical_s", "s"),
    ("aligner.structure_s", "s"),
    ("aligner.select_s", "s"),
    ("labelkit.translator_calls", "count"),
    ("labelkit.tokenize_calls", "count"),
    ("labelkit.token_sequence_match_calls", "count"),
    ("strsim.jaro_winkler_calls", "count"),
    ("strsim.distinct_pair_ratio", "ratio"),
    ("taxsim.lexical_match_calls", "count"),
    ("structsim.rules_s", "s"),
    ("structsim.expand_tree_s", "s"),
    ("structsim.tree_similarity_calls", "count"),
    ("structsim.tree_similarity_s", "s"),
    ("lexiserve.requests", "count"),
    ("lexiserve.request_ms", "ms"),
    ("lexiserve.sparql_overhead_ms", "ms"),
    ("dictstore.lookup_calls", "count"),
    ("dictstore.lookup_us", "us"),
    ("dictstore.load_s", "s"),
    ("triplemap.to_triples_s", "s"),
    ("triplemap.triples", "count"),
    ("triplemap.lookup_calls", "count"),
    ("triplemap.triples_examined", "count"),
    ("triplemap.examined_per_result", "ratio"),
    ("sparqlet.parse_ms", "ms"),
    ("sparqlet.plan_ms", "ms"),
    ("sparqlet.evaluate_ms", "ms"),
    ("ontomodel.load_s", "s"),
    ("cli.startup_s", "s"),
    ("aligner.self_s", "s"),
    ("labelkit.self_s", "s"),
    ("dictstore.self_s", "s"),
    ("lexiserve.self_s", "s"),
    ("structsim.self_s", "s"),
    ("sparqlet.self_ms", "ms"),
    ("triplemap.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def ms(seconds: float) -> float:
    return seconds * 1000.0


# -- the served program ---------------------------------------------------


class Server:
    """`lexalign serve <snapshot> --bind 127.0.0.1:0` as a child process.
    With `timings`, it runs under timed_serve.py, which writes the time of
    each /sparql evaluation to that file when the server stops."""

    def __init__(self, snapshot: Path, timings: Path | None = None):
        serve = [sys.executable, "-m", "lexalign.cli"]
        if timings:
            serve = [sys.executable, str(HERE / "timed_serve.py"), str(timings)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            serve + ["serve", str(snapshot), "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not line.startswith("serving on "):
            self.close()
            raise BenchError(f"lexalign serve did not start: {line!r}")
        self.url = line.split()[2]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_servers(snapshot: Path, count: int, timings: Path | None = None) -> list[Server]:
    """Start the server `count` times, one at a time, each on the next CPU
    (it inherits this process's affinity); close all but the last, which
    gets `timings`."""
    rotation = CpuRotation([0])
    servers = []
    try:
        for _ in range(count):
            rotation.next()
            if servers:
                servers[-1].close()
            servers.append(Server(snapshot, timings if len(servers) == count - 1 else None))
    finally:
        rotation.release()
    return servers


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child process that has ended so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def get_bodies(url: str, paths: list[str]) -> list[str]:
    """Raw response bodies of GET requests, one connection each as the
    package's client makes them."""
    bodies = []
    for path in paths:
        with urlopen(url + path, timeout=30) as resp:
            bodies.append(resp.read().decode("utf-8"))
    return bodies


# -- checks made apart from the program -------------------------------------

_SCORE = re.compile(r"^(0\.\d{4}|1\.0000)$")


def check_alignment_tsv(text: str, left_ns: str, right_ns: str) -> list[str]:
    """Format, order, one-to-one and same-kind checks on one TSV."""
    problems = []
    rows = [line.split("\t") for line in text.splitlines()]
    if any(len(row) != 3 for row in rows):
        return ["a row does not have 3 columns"]
    lefts = [row[0] for row in rows]
    rights = [row[1] for row in rows]
    if lefts != sorted(lefts):
        problems.append("rows are not sorted by left IRI")
    if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
        problems.append("alignment is not one-to-one")
    for left, right, score in rows:
        if not _SCORE.match(score):
            problems.append(f"score {score!r} is not a 4-decimal number in [0, 1]")
        if not (left.startswith(left_ns) and right.startswith(right_ns)):
            problems.append(f"pair outside the two ontologies: {left} {right}")
        elif left[len(left_ns)] != right[len(right_ns)]:
            problems.append(f"pair of different kinds: {left} {right}")
    return problems


def pair_set(text: str) -> set[tuple[str, str]]:
    return {tuple(line.split("\t")[:2]) for line in text.splitlines() if line}


def precision_recall(found: set, reference: set) -> tuple[float, float]:
    common = len(found & reference)
    return (common / len(found) if found else 0.0, common / len(reference))


def paper_query_rows(tables: dict[str, list[tuple]], headword: str, limit: int = 7) -> list[list[str]]:
    """The paper's translation query as a plain join over the tables:
    (lang code, lang name, translation word) of every translation entry
    under the en lang_pos of `headword`, sorted, LIMIT applied."""
    languages = {row[0]: row for row in tables["language"]}
    en = [lang_id for lang_id, code, _ in tables["language"] if code == "en"]
    pages = {page_id for page_id, title in tables["page"] if title == headword}
    lang_pos = {lp for lp, page, lang in tables["lang_pos"] if page in pages and lang in en}
    meanings = {(m, lp) for m, lp in tables["meaning"] if lp in lang_pos}
    translations = {tr for tr, lp, m in tables["translation"] if (m, lp) in meanings}
    texts = dict(tables["wiki_text"])
    rows = [
        [languages[lang][1], languages[lang][2], texts[wt]]
        for _, tr, lang, wt in tables["translation_entry"]
        if tr in translations
    ]
    return sorted(rows)[:limit]


# -- workloads ---------------------------------------------------------------


def match_local(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import gen

    dictionary = gen.make_dictionary(seed, LOCAL_PAGES)
    dictionary.write_snapshot(work / "store.json")
    (work / "thesaurus.tsv").write_text(gen.make_thesaurus(dictionary, seed), encoding="utf-8")
    references = []
    for index in range(LOCAL_PAIRS):
        left, right, reference = gen.make_pair(dictionary, seed, index, LOCAL_CLASSES)
        (work / f"pair{index}_src.nt").write_text(left, encoding="utf-8")
        (work / f"pair{index}_tgt.nt").write_text(right, encoding="utf-8")
        references.append(pair_set(reference))

    command = [
        sys.executable, str(HERE / "match_worker.py"), "--dir", str(work),
        "--pairs", str(LOCAL_PAIRS), "--seconds", str(seconds),
        "--setups", str(LOCAL_SETUPS), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 120
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"match worker did not end within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"match worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = []
    if result["changed"]:
        problems.append(f"{result['changed']} repeated alignments differ from the first")
    outputs = []
    for index in range(LOCAL_PAIRS):
        path = work / f"pair{index}_out.tsv"
        if not path.is_file():
            problems.append(f"pair {index}: no alignment")
            continue
        text = path.read_text(encoding="utf-8")
        outputs.append(text)
        ns = f"{gen.ONTO_NS}{seed}/{index}/"
        problems += check_alignment_tsv(text, ns + "src#", ns + "tgt#")
        precision, recall = precision_recall(pair_set(text), references[index])
        if precision < PRECISION_FLOOR or recall < RECALL_FLOOR:
            problems.append(f"pair {index}: precision {precision:.3f} recall {recall:.3f} under the floors")
    biblio = (work / "biblio_out.tsv").read_text(encoding="utf-8")
    precision, recall = precision_recall(
        pair_set(biblio), pair_set((FIXTURES / "reference_alignment.tsv").read_text(encoding="utf-8"))
    )
    if precision != 1.0 or recall < 8 / 9:
        problems.append(f"biblio fixture: precision {precision:.3f} recall {recall:.3f}")
    print(f"digest match-local alignments {digest(outputs)}")
    print(f"digest match-local biblio {digest([biblio])}")

    metrics = end_to_end(result["setup_s"], result["match_s"], result["rss_mb"])
    if trace:
        layers = result["trace"]
        TRACES.mkdir(exist_ok=True)
        shutil.copy(work / "spans.jsonl", TRACES / f"spans-match-local-{seed}.jsonl")
        metrics = per_layer(layers)
    return outcome(problems, result["attempted"], result["failed"], metrics)


def match_endpoint(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import gen
    import tracing
    from ops import run_ops
    from lexalign import aligner, dictstore, labelkit, ontomodel

    dictionary = gen.make_dictionary(seed, ENDPOINT_PAGES)
    snapshot = work / "store.json"
    dictionary.write_snapshot(snapshot)
    pairs = [gen.make_pair(dictionary, seed, i, ENDPOINT_CLASSES) for i in range(ENDPOINT_PAIRS)]
    ontologies = [(ontomodel.load_ontology(l), ontomodel.load_ontology(r)) for l, r, _ in pairs]
    cfg = aligner.MatchConfig("fr", "en", structure_enabled=False)  # as `lexalign match --no-structure`
    tracer = tracing.Tracer() if trace else None

    servers = start_servers(snapshot, SERVED_SETUPS)
    server, setup_times = servers[-1], [s.setup_s for s in servers]
    try:
        translator = labelkit.EndpointTranslator(server.url)

        def op(index: int) -> tuple[float, str]:
            o1, o2 = ontologies[index]
            out = work / f"pair{index}_out.tsv"
            start = time.perf_counter()
            aligner.write_alignment(aligner.align(o1, o2, translator, cfg), out)
            elapsed = time.perf_counter() - start
            return elapsed, out.read_text(encoding="utf-8")

        def instrument() -> None:
            tracing.instrument_aligner(tracer)
            tracing.instrument_translator(tracer, translator)
            tracing.instrument_lookups(
                tracer,
                labelkit,
                {"client_translate": "translations", "client_reverse_translate": "reverse_translations"},
                "lexiserve.request",
                "lexiserve.requests",
                first=1,
            )

        done = run_ops(
            op, ENDPOINT_PAIRS, seconds, ENDPOINT_PAIRS, tracer, instrument, (0, server.proc.pid)
        )
        bodies = get_bodies(server.url, ["/stats"] + lookup_requests(ontologies[0][0]))
    finally:
        server.close()
    rss_mb = children_peak_rss_mb()  # the servers are this process's only children so far
    print(f"digest match-endpoint alignments {digest(done.outputs[i] for i in sorted(done.outputs))}")
    print(f"digest match-endpoint json-bodies {digest(bodies)}")

    start = time.perf_counter()
    store = dictstore.open_store(snapshot)
    load_s = time.perf_counter() - start
    problems = [f"{done.changed} repeated alignments differ from the first"] if done.changed else []
    local = labelkit.DictionaryTranslator(store)
    for index, text in sorted(done.outputs.items()):
        o1, o2 = ontologies[index]
        expected = work / f"pair{index}_expected.tsv"
        aligner.write_alignment(aligner.align(o1, o2, local, cfg), expected)
        if expected.read_text(encoding="utf-8") != text:
            problems.append(f"pair {index}: endpoint alignment differs from the DictionaryTranslator one")

    metrics = end_to_end(setup_times, done.times, rss_mb)
    if trace:
        layers = tracing.align_layers(tracer, len(done.traced))
        # each request makes one store lookup in the server
        layers["dictstore.lookup_calls"] = layers["lexiserve.requests"] = (
            tracer.counts["lexiserve.requests"] / max(len(done.traced), 1)
        )
        layers["lexiserve.request_ms"] = ms(statistics.median(tracer.durations("lexiserve.request")))
        layers["dictstore.lookup_us"] = tracing.replay_lookups(store, tracer.lookups)
        layers.update(served_setup_layers(store, load_s)[0])
        layers["trace.overhead_ms"] = ms(done.trace_overhead_s())
        tracer.dump(TRACES / f"spans-match-endpoint-{seed}.jsonl")
        metrics = per_layer(layers)
    return outcome(problems, done.attempted, done.failed, metrics)


def lookup_requests(onto) -> list[str]:
    """/translate and /reverse paths for every word EndpointTranslator
    looks up for the labels of one ontology."""
    words = set()
    for entity in onto.entities.values():
        label = onto.display_name(entity)
        words.update((label, label.lower()))
        words.update(label.lower().split())
    paths = []
    for word in sorted(words):
        paths.append("/translate?" + urlencode({"word": word, "from": "fr", "to": "en"}))
        paths.append("/reverse?" + urlencode({"term": word, "term_lang": "fr", "entry_lang": "en"}))
    return paths


def served_setup_layers(store, store_load_s: float):
    """The served program's set-up, layer by layer: the store load and
    to_triples replayed in-process, and the CLI's own start-up, which is
    the set-up time of `lexalign serve` on the one-page fixture store.
    Returns the metrics and the triples."""
    from lexalign import triplemap

    start = time.perf_counter()
    triples = triplemap.to_triples(store)
    to_triples_s = time.perf_counter() - start
    servers = start_servers(FIXTURES / "idioms_dict", SERVED_SETUPS)
    servers[-1].close()
    layers = {
        "dictstore.load_s": store_load_s,
        "triplemap.to_triples_s": to_triples_s,
        "triplemap.triples": float(len(triples)),
        "cli.startup_s": statistics.median(s.setup_s for s in servers),
    }
    return layers, triples


def sparql_paper(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import gen
    import tracing
    from ops import run_ops
    from lexalign import lexiserve

    dictionary = gen.make_dictionary(
        seed, SPARQL_PAGES, SPARQL_ENTRIES, page_langs=SPARQL_PAGE_LANGS
    )
    snapshot = work / "store.json"
    dictionary.write_snapshot(snapshot)
    headwords = list(dictionary.en_heads)
    random.Random(f"queries:{seed}").shuffle(headwords)
    template = QUERY_FILE.read_text(encoding="utf-8")
    if QUERY_HEADWORD not in template:
        raise BenchError(f"{QUERY_FILE} no longer names {QUERY_HEADWORD}")
    queries = [template.replace(QUERY_HEADWORD, f'"{h}"') for h in headwords]
    tracer = tracing.Tracer() if trace else None
    timings = work / "evaluate_s.json" if trace else None

    servers = start_servers(snapshot, SERVED_SETUPS, timings)
    server, setup_times = servers[-1], [s.setup_s for s in servers]
    try:

        def op(index: int) -> tuple[float, str]:
            start = time.perf_counter()
            head, rows = lexiserve.client_sparql(server.url, queries[index])
            elapsed = time.perf_counter() - start
            return elapsed, json.dumps({"head": head, "rows": rows}, ensure_ascii=False)

        def instrument() -> None:
            tracer.wrap_span(lexiserve, "client_sparql", "lexiserve.request", count="lexiserve.requests")

        done = run_ops(
            op, len(queries), seconds, SPARQL_DIGEST_QUERIES, tracer, instrument, (0, server.proc.pid)
        )
    finally:
        server.close()
    rss_mb = children_peak_rss_mb()  # the servers are this process's only children so far
    print(f"digest sparql-paper rows {digest(done.outputs.get(i, '') for i in range(SPARQL_DIGEST_QUERIES))}")

    problems = [f"{done.changed} repeated queries answered differently"] if done.changed else []
    for index, text in sorted(done.outputs.items()):
        answer = json.loads(text)
        expected = paper_query_rows(dictionary.tables, headwords[index])
        if answer["head"] != ["langCode", "langName", "translationWord"] or answer["rows"] != expected:
            problems.append(f"query for {headwords[index]!r}: rows differ from the plain join")

    metrics = end_to_end(setup_times, done.times, rss_mb)
    if trace:
        server_evaluate_s = json.loads(timings.read_text(encoding="utf-8"))
        layers = sparql_layers(snapshot, queries, done, tracer, server_evaluate_s)
        tracer.dump(TRACES / f"spans-sparql-paper-{seed}.jsonl")
        metrics = per_layer(layers)
    return outcome(problems, done.attempted, done.failed, metrics)


def sparql_layers(
    snapshot: Path, queries: list[str], done, tracer, server_evaluate_s: list[float]
) -> dict[str, float]:
    """Replay the first queries in-process on the same store: parse, plan
    and evaluate times, index lookups and triples examined, per query.
    Each query is evaluated twice, plainly for the times and with the
    store's lookup wrapped for the counts and the self times.
    The HTTP overhead is each untraced round trip minus the server's own
    evaluate time for that request; a traced run makes its operations in
    pairs, untraced first in even pairs, so untraced operation i is
    request 2i + i % 2."""
    from lexalign import dictstore, sparqlet

    start = time.perf_counter()
    store = dictstore.open_store(snapshot)
    load_s = time.perf_counter() - start
    layers, triples = served_setup_layers(store, load_s)
    lookup = triples.lookup
    stats = {"calls": 0, "examined": 0, "seconds": 0.0}

    def counted_lookup(*args, **kwargs):
        start = time.perf_counter()
        found = lookup(*args, **kwargs)
        stats["seconds"] += time.perf_counter() - start
        stats["calls"] += 1
        stats["examined"] += len(found)
        return found

    replayed = sorted(done.outputs)[:SPARQL_REPLAYS]
    parse_s, plan_s, evaluate_s, counted_s, rows = [], [], [], 0.0, 0
    for index in replayed:
        t0 = time.perf_counter()
        query = sparqlet.parse_query(queries[index])
        t1 = time.perf_counter()
        sparqlet.plan_order(query, triples)
        t2 = time.perf_counter()
        sparqlet.evaluate(query, triples)
        t3 = time.perf_counter()
        triples.lookup = counted_lookup
        try:
            result = sparqlet.evaluate(query, triples)
        finally:
            del triples.lookup
        counted_s += time.perf_counter() - t3
        parse_s.append(t1 - t0)
        plan_s.append(t2 - t1)
        evaluate_s.append(t3 - t2)
        rows += len(result.rows)
    n = len(replayed)
    if done.failed or len(server_evaluate_s) != done.attempted:
        raise BenchError(f"server evaluated {len(server_evaluate_s)} queries for {done.attempted} operations")
    overhead = [elapsed - server_evaluate_s[2 * i + i % 2] for i, elapsed in enumerate(done.times)]
    layers.update(
        {
            "sparqlet.parse_ms": ms(statistics.median(parse_s)),
            "sparqlet.plan_ms": ms(statistics.median(plan_s)),
            "sparqlet.evaluate_ms": ms(statistics.median(evaluate_s)),
            "triplemap.lookup_calls": stats["calls"] / n,
            "triplemap.triples_examined": stats["examined"] / n,
            "triplemap.examined_per_result": stats["examined"] / max(rows, 1),
            "triplemap.self_ms": ms(stats["seconds"] / n),
            "sparqlet.self_ms": ms((counted_s - stats["seconds"]) / n),
            "lexiserve.requests": tracer.counts["lexiserve.requests"] / max(len(done.traced), 1),
            "lexiserve.request_ms": ms(statistics.median(tracer.durations("lexiserve.request"))),
            "lexiserve.sparql_overhead_ms": ms(statistics.median(overhead)),
            "trace.overhead_ms": ms(done.trace_overhead_s()),
        }
    )
    return layers


# -- result ----------------------------------------------------------------


def end_to_end(setup_times: list[float], op_times: list[float], rss_mb: float) -> dict:
    """Median set-up, median operation latency, peak RSS. No tail: on
    cores shared with other tenants the slowest tenth of a run's
    operations follows the neighbours' bursts (README.md)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (ms(statistics.median(op_times)), "ms"),
        "rss_mb": (rss_mb, "MB"),
    }


def per_layer(layers: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; 0 where the workload does not reach the layer."""
    return {name: (float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER}


def outcome(problems: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for problem in problems:
        print(f"check failed: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


WORKLOADS = {
    "match-local": match_local,
    "match-endpoint": match_endpoint,
    "sparql-paper": sparql_paper,
}


def main() -> int:
    parser = argparse.ArgumentParser(description="lexalign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "lexalign" / "cli.py", QUERY_FILE) if not p.is_file()]
    if missing:
        print(f"perfbench: not a lexalign checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
