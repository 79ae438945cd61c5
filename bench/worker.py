"""One benchmark process: a single caller that runs a workload's scenarios
back to back through `dfspulse.cli.parse_config` and `run_scenario`.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup    import dfspulse, parse the config, print the monotonic clock
           reading taken just before the first scenario call, and exit;
  measure  one untimed warm-up pass, then timed passes for SECONDS;
  trace    one untraced warm-up pass, then traced passes for SECONDS.

Every pass writes its artifacts to a scratch out-dir under `.bench_out/`.
A scenario execution fails when it raises, when a check fails, when its
artifact bytes differ from this process's first pass, or when a key result
lies outside the committed reference for this seed.  The last line of
standard output is a JSON summary.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # bench/ itself is sys.path[0]

if __name__ == "__main__" and sys.argv[1] == "setup":
    # nothing but the interpreter, the package and the config parser
    from dfspulse.cli import parse_config
    from workloads import config_text
    parse_config(config_text(sys.argv[2], int(sys.argv[3])))
    print(time.monotonic())
    sys.exit(0)

import gc
import json
import os
import resource
import shutil
import statistics

# called through the module, so that traced passes see the wrapped names
from dfspulse import cli  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, artifact_files, config_text, key_results, reference_mismatches,
    strict,
)

REFERENCE = ROOT / "bench" / "reference.json"
OUT = ROOT / ".bench_out"


class Loop:
    """The closed loop over one workload, with its correctness bookkeeping."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.scenarios = cli.parse_config(config_text(workload, seed))
        self.jobs = WORKLOADS[workload]["jobs"]
        self.out_dir = out_dir
        refs = json.loads(REFERENCE.read_text())["workloads"].get(workload, {})
        self.reference = refs.get(str(seed))
        self.first: dict[str, dict[str, bytes]] = {}
        self.attempted = 0
        self.failures = {"raised": 0, "check": 0, "bytes": 0, "reference": 0}
        self.fingerprint: dict[str, dict] = {}

    def run_pass(self, tracer=None) -> tuple[float, int, dict[int, str]]:
        """Run every scenario once; return (seconds, artifact bytes, exec kinds)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()  # so that no pass pays for the garbage of the one before
        outcomes = []
        exec_kinds = {}
        start = time.perf_counter()
        for sc in self.scenarios:
            if tracer is not None:
                tracer.exec_id += 1
                exec_kinds[tracer.exec_id] = sc.kind
            try:
                checks = cli.run_scenario(sc, self.out_dir, jobs=self.jobs)
                outcomes.append(("ok" if all(c.passed for c in checks) else "check"))
            except Exception as exc:  # a failed execution is counted, not fatal
                print(f"ERROR {sc.name}: {exc!r}", file=sys.stderr)
                outcomes.append("raised")
        elapsed = time.perf_counter() - start
        nbytes = 0
        for sc, outcome in zip(self.scenarios, outcomes):
            self.attempted += 1
            files = artifact_files(self.out_dir, sc.output_path)
            nbytes += sum(len(b) for b in files.values())
            if outcome == "ok":
                outcome = self._judge(sc, files)
            if outcome != "ok":
                self.failures[outcome] += 1
        return elapsed, nbytes, exec_kinds

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def _judge(self, sc, files: dict[str, bytes]) -> str:
        first = self.first.setdefault(sc.name, files)
        if files != first:
            return "bytes"
        results = key_results(sc.kind, files, sc.output_path)
        self.fingerprint.setdefault(sc.name, {k: strict(v) for k, v in results.items()})
        if self.reference is not None and reference_mismatches(
                results, self.reference.get(sc.name, {})):
            return "reference"
        return "ok"

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures,
                "reference_checked": self.reference is not None,
                "fingerprint": self.fingerprint,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}


def measure(loop: Loop, seconds: float) -> dict:
    warmup_s, _, _ = loop.run_pass()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(loop.run_pass()[0])
    return {**loop.summary(), "warmup_s": warmup_s, "pass_s": passes}


def trace(loop: Loop, workload: str, seed: int, seconds: float) -> dict:
    loop.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        parse_start = len(tracer.spans)
        loop.scenarios = cli.parse_config(config_text(workload, seed))
        parse_s = sum(s[5] - s[4] for s in tracer.spans[parse_start:]
                      if s[3] == "cli.parse_config")
        per_pass = []
        start = time.perf_counter()
        while not per_pass or time.perf_counter() - start < seconds:
            first_span = len(tracer.spans)
            wall, nbytes, exec_kinds = loop.run_pass(tracer)
            m = tracing.layer_metrics(tracer.spans[first_span:], exec_kinds)
            m["cli.artifact_bytes"] = nbytes
            m["trace.wall_s"] = wall
            per_pass.append(m)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    metrics = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["cli.parse_config.s"] = parse_s
    return {**loop.summary(), "traced_passes": len(per_pass), "metrics": metrics}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    out_dir = OUT / f"artifacts-{workload}-seed{seed}-{os.getpid()}"
    try:
        loop = Loop(workload, seed, out_dir)
        if mode == "measure":
            result = measure(loop, seconds)
        else:
            result = trace(loop, workload, seed, seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
