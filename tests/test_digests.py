"""The seed-1 and seed-7 output digests of the three benchmark workloads,
recomputed on the current code: equal digests mean the alignment TSVs,
the SPARQL rows and the JSON bodies are byte-identical to those
recorded. Seed 7 is a second sample of the structure stage's output."""

import subprocess
import sys
from pathlib import Path

import pytest

DIGESTS = Path(__file__).parent.parent / "perfbench" / "digests.py"

EXPECTED = {
    1: [
        "seed 1 digest match-local alignments 0e1692b9d0abfb3a",
        "seed 1 digest match-local biblio a9dc8d45e0dc4511",
        "seed 1 digest match-endpoint alignments e8cf351102f031c2",
        "seed 1 digest match-endpoint json-bodies 17cbcabe7424b34c",
        "seed 1 digest sparql-paper rows 68ce125f5f5b12fc",
    ],
    7: [
        "seed 7 digest match-local alignments 0a6f4615faf02940",
        "seed 7 digest match-local biblio a9dc8d45e0dc4511",
        "seed 7 digest match-endpoint alignments 6b652191d5204645",
        "seed 7 digest match-endpoint json-bodies edc2033a7c01f66f",
        "seed 7 digest sparql-paper rows 3d368fa9c8b3c8e6",
    ],
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_digests_are_unchanged(seed):
    done = subprocess.run(
        [sys.executable, str(DIGESTS), "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == EXPECTED[seed]
