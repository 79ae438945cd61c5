"""Regenerate bench/reference.json, the key results `failed_frac` is held to.

    python3 bench/make_reference.py

Runs one pass of every workload for each of SEEDS and records each
scenario's key results (see workloads.key_results).  Non-finite values are stored as null.
Refuses to write if any scenario raises or fails a check.
"""
from __future__ import annotations

import json
import shutil
import sys

from worker import OUT, REFERENCE, Loop
from workloads import WORKLOADS

SEEDS = range(32)


def main() -> int:
    out = {"workloads": {}}
    for workload in WORKLOADS:
        per_seed = out["workloads"][workload] = {}
        for seed in SEEDS:
            loop = Loop(workload, seed, OUT / f"reference-{workload}-{seed}")
            loop.reference = None
            try:
                loop.run_pass()
            finally:
                shutil.rmtree(loop.out_dir, ignore_errors=True)
            if loop.failed:
                print(f"{workload} seed {seed}: {loop.failures}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = {name: res for name, res in loop.fingerprint.items()
                                   if res}
            print(f"{workload} seed {seed}: ok", flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
