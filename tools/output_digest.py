#!/usr/bin/env python3
"""One sha256 over the outputs of the benchmark's seeded operations.

Run from anywhere:

    python3 tools/output_digest.py

It builds rounds 0-1 of seeds 1-2 of every workload of BENCHMARK.json, in
that order, with `bench/workloads.py`, runs each operation through the
horofan of this checkout's `src/`, and prints the number of records and the
sha256 over them, one record per operation: the repr of the result, which
for cli-docs is the pair (exit code, stdout).  A change that keeps every
output bit for bit keeps the digest.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
ROUNDS = (0, 1)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads

    hf = importlib.import_module("horofan")
    importlib.import_module("horofan.cli")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            workload = workloads.WORKLOADS[name]
            for seed in SEEDS:
                runner = workload.runner(hf)
                for round_index in ROUNDS:
                    for op in workload.build_round(seed, round_index, workdir):
                        digest.update(repr(runner.run(op)).encode())
                        count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
