"""`lexalign serve` that also times each /sparql evaluation.

    python3 perfbench/timed_serve.py TIMES.json serve STORE --bind 127.0.0.1:0

Runs the CLI's serve command unchanged, except that the `evaluate` the
/sparql handler looks up in lexiserve's namespace is wrapped to record
its wall time. When the server stops on SIGTERM, the times, in request
order, go to TIMES.json. The traced sparql-paper run uses them to split
each round trip into evaluation and the rest.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from lexalign import cli, lexiserve


def main() -> int:
    out = Path(sys.argv[1])
    times: list[float] = []
    evaluate = lexiserve.evaluate

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return evaluate(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    lexiserve.evaluate = timed
    status = cli.main(sys.argv[2:])
    out.write_text(json.dumps(times), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
