"""Recompute the output digests of every workload on the current code.

    python3 perfbench/digests.py [--seed 1] [--workload NAME ...]

Runs each workload once with a zero-second measurement, which still makes
the operations the digests cover (every pair once, the first 20 queries),
and prints the digest lines. Equal digests on two commits mean the
alignment TSVs, the SPARQL rows and the JSON bodies are byte-identical.
The digests are informational; run.py does not compare them to anything.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("match-local", "match-endpoint", "sparql-paper")


def main() -> int:
    parser = argparse.ArgumentParser(description="recompute output digests")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    status = 0
    for workload in args.workload or WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines:
            if line.startswith("digest "):
                print(f"seed {args.seed} {line}")
        if proc.returncode != 0 or not lines or '"correct": true' not in lines[-1]:
            print(f"seed {args.seed} {workload}: run failed or its checks did not pass", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
