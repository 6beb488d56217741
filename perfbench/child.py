"""Child-process entry for the traced and exact-count passes.

Each pass runs in a fresh interpreter, as the CLI does, so imports, the
OCL caches and the metamodel registries start cold every time::

    python perfbench/child.py pipeline CORPUS OUT [--obs TRACE]
    python perfbench/child.py counts CORPUS OUT [--obs]
    python perfbench/child.py obs-ratio CORPUS OUT
    python perfbench/child.py server-counts CORPUS SEED WAL_DIR OUT

OUT receives one JSON document.
"""

from __future__ import annotations

import json
import os
import sys
import time

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv) -> int:
    mode, corpus = argv[0], argv[1]
    if mode == "pipeline":
        import batch
        out = argv[2]
        obs_path = argv[4] if argv[3:4] == ["--obs"] else ""
        document = batch.pipeline(corpus, STARTED, obs_path,
                                  out + ".spans.jsonl", out + ".doc.json")
    elif mode == "counts":
        import batch
        out = argv[2]
        document = batch.count_pass(corpus, "--obs" in argv[3:])
    elif mode == "obs-ratio":
        import batch
        out = argv[2]
        document = {"ratio": batch.enabled_ratio(corpus)}
    elif mode == "server-counts":
        import serverload
        seed, wal_dir, out = int(argv[2]), argv[3], argv[4]
        document = serverload.count_pass(corpus, seed, wal_dir)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
