"""The process that runs align() for the match-local workload.

It loads the store, the thesaurus and every ontology pair of DIR, then
aligns the pairs in turn, writing each alignment TSV, until SECONDS have
passed and every pair has run at least once; then it aligns the biblio
fixture once. It prints one JSON object
as its last line. Inputs are made beforehand by run.py, so this
process's peak memory is the program's own.

    python3 perfbench/match_worker.py --dir DIR --pairs 32 --seconds 30 --setups 15 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
from pathlib import Path

from lexalign import aligner, dictstore, labelkit, ontomodel, taxsim

import tracing
from ops import CpuRotation, run_ops

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def load(directory: Path, pairs: int):
    store = dictstore.open_store(directory / "store.json")
    thesaurus = taxsim.load_thesaurus(directory / "thesaurus.tsv")
    ontologies = [
        (
            ontomodel.load_ontology_file(directory / f"pair{i}_src.nt"),
            ontomodel.load_ontology_file(directory / f"pair{i}_tgt.nt"),
        )
        for i in range(pairs)
    ]
    return store, thesaurus, ontologies


def align_biblio(out: Path) -> None:
    """The fixture run of `lexalign match` with a store and a thesaurus."""
    store = dictstore.open_store(FIXTURES / "biblio_dict")
    result = aligner.align(
        ontomodel.load_ontology_file(FIXTURES / "biblio_fr.nt"),
        ontomodel.load_ontology_file(FIXTURES / "biblio_en.nt"),
        labelkit.DictionaryTranslator(store),
        aligner.MatchConfig("fr", "en"),
        taxsim.load_thesaurus(FIXTURES / "mini_thesaurus_ic.tsv"),
    )
    aligner.write_alignment(result, out)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    setup_s = []
    rotation = CpuRotation([0])
    for _ in range(args.setups):
        store = thesaurus = ontologies = None  # so that peak memory holds one set of inputs
        gc.collect()
        rotation.next()
        start = time.perf_counter()
        store, thesaurus, ontologies = load(args.dir, args.pairs)
        setup_s.append(time.perf_counter() - start)
    rotation.release()
    translator = labelkit.DictionaryTranslator(store)
    cfg = aligner.MatchConfig("fr", "en")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        # one traced set-up, for the per-layer load times
        tracer.call("dictstore.load", dictstore.open_store, args.dir / "store.json")
        for i in range(args.pairs):
            for side in ("src", "tgt"):
                tracer.call("ontomodel.load", ontomodel.load_ontology_file, args.dir / f"pair{i}_{side}.nt")

    def op(index: int) -> tuple[float, str]:
        o1, o2 = ontologies[index]
        out = args.dir / f"pair{index}_out.tsv"
        start = time.perf_counter()
        result = aligner.align(o1, o2, translator, cfg, thesaurus)
        aligner.write_alignment(result, out)
        elapsed = time.perf_counter() - start
        return elapsed, out.read_text(encoding="utf-8")

    def instrument() -> None:
        tracing.instrument_aligner(tracer)
        tracing.instrument_translator(tracer, translator)
        tracing.instrument_store(tracer, store)

    done = run_ops(op, args.pairs, args.seconds, args.pairs, tracer, instrument)
    for index, text in done.outputs.items():
        (args.dir / f"pair{index}_out.tsv").write_text(text, encoding="utf-8")
    align_biblio(args.dir / "biblio_out.tsv")
    result = {
        "setup_s": setup_s,
        "match_s": done.times,
        "attempted": done.attempted,
        "failed": done.failed,
        "changed": done.changed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = layer_metrics(tracer, store, len(done.traced))
        result["trace"]["trace.overhead_ms"] = done.trace_overhead_s() * 1000.0
        tracer.dump(args.dir / "spans.jsonl")
    print(json.dumps(result))


def layer_metrics(tracer: tracing.Tracer, store, traced_ops: int) -> dict[str, float]:
    """Per-layer metrics of the traced operations and the traced set-up."""
    out = tracing.align_layers(tracer, traced_ops)
    out["dictstore.lookup_us"] = tracing.replay_lookups(store, tracer.lookups)
    out["dictstore.load_s"] = tracer.total("dictstore.load")
    out["ontomodel.load_s"] = tracer.total("ontomodel.load")
    return out


if __name__ == "__main__":
    main()
