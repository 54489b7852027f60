"""The seed-1 output digests of the three benchmark workloads, recomputed
on the current code: equal digests mean the alignment TSVs, the SPARQL
rows and the JSON bodies are byte-identical to those recorded."""

import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).parent.parent / "perfbench" / "digests.py"

SEED_1 = [
    "seed 1 digest match-local alignments 0e1692b9d0abfb3a",
    "seed 1 digest match-local biblio a9dc8d45e0dc4511",
    "seed 1 digest match-endpoint alignments e8cf351102f031c2",
    "seed 1 digest match-endpoint json-bodies 17cbcabe7424b34c",
    "seed 1 digest sparql-paper rows 68ce125f5f5b12fc",
]


def test_seed_1_digests_are_unchanged():
    done = subprocess.run(
        [sys.executable, str(DIGESTS), "--seed", "1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == SEED_1
