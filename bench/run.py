"""dfspulse benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload scan-1f --seed 0 --seconds 20 --trace 0

With `--trace 0` it reports the end-to-end metrics, tracing off:
  setup_s      median over fresh processes of the time from process start to
               the first scenario call (interpreter, `import dfspulse` and
               `parse_config`), after one unmeasured process;
  wall_s       median wall time of one full pass over the workload's
               scenarios, after one untimed warm-up pass;
  peak_rss_mb  peak resident memory of the process that ran the passes.
With `--trace 1` it reports the per-layer metrics of bench/tracer.py from a
traced process, and `trace.overhead_frac` against an untraced process; each
of the two processes measures for half of `--seconds`.

Every process is a closed loop: one caller, scenarios back to back.  Lines
before the last describe the run for a reader; the last line is the JSON
result.  The full result, with the environment and the result fingerprint,
is written to `.bench_out/result-<workload>-seed<seed>-trace<t>.json`.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_PROCESSES = 5
DEADLINE_S = 170.0  # the run must end within 180 s

from workloads import WORKLOADS  # noqa: E402  (bench/ is sys.path[0])


def _child(args: list[str], deadline: float) -> str:
    """Run a worker to completion and return its standard output."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {args[0]} ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return out


def setup_seconds(workload: str, seed: int, deadline: float) -> list[float]:
    """One unmeasured process (it may compile bytecode), then the measured ones."""
    samples = []
    for _ in range(1 + SETUP_PROCESSES):
        spawned = time.monotonic()
        reached = float(_child(["setup", workload, str(seed), "0"],
                               deadline).split()[-1])
        samples.append(reached - spawned)
    return samples[1:]


def worker(mode: str, workload: str, seed: int, seconds: float,
           deadline: float) -> dict:
    out = _child([mode, workload, str(seed), str(seconds)], deadline)
    return json.loads(out.strip().splitlines()[-1])


def _blas_threads():
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(loadavg) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(loadavg),
    }


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _metrics(values: dict, section: str) -> dict:
    units = declared_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are "
                           f"not both measured and declared in {section}")
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}


def run(workload: str, seed: int, seconds: float, traced: bool,
        started: float) -> dict:
    deadline = started + DEADLINE_S
    if not traced:
        setup = setup_seconds(workload, seed, deadline)
        res = worker("measure", workload, seed, seconds, deadline)
        wall = statistics.median(res["pass_s"])
        metrics = _metrics({"wall_s": wall, "setup_s": statistics.median(setup),
                            "peak_rss_mb": res["peak_rss_mb"]}, "end_to_end")
        lines = [
            f"wall_s       {wall:.4f} s   median of {len(res['pass_s'])} passes, "
            f"after a {res['warmup_s']:.3f} s warm-up pass",
            f"setup_s      {metrics['setup_s']['value']:.4f} s   median of "
            f"{len(setup)} processes",
            f"peak_rss_mb  {res['peak_rss_mb']:.1f} MB",
        ]
        runs = [res]
        detail = {"setup_s_samples": setup, "pass_s": res["pass_s"],
                  "warmup_s": res["warmup_s"]}
    else:
        # untraced and traced halves, each in its own process
        plain = worker("measure", workload, seed, seconds / 2, deadline)
        res = worker("trace", workload, seed, seconds / 2, deadline)
        base = statistics.median(plain["pass_s"])
        layer = res["metrics"]
        layer["trace.overhead_frac"] = (layer["trace.wall_s"] - base) / base
        metrics = _metrics(layer, "per_layer")
        lines = [f"{k:44s} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        runs = [plain, res]
        detail = {"untraced_pass_s": plain["pass_s"],
                  "traced_passes": res["traced_passes"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines.append(f"failed_frac  {failed / attempted:.4g}   {failed} of {attempted} "
                 f"scenario executions; reference "
                 f"{'checked' if res['reference_checked'] else 'absent for this seed'}")
    return {"lines": lines, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail,
            "failures": [r["failures"] for r in runs],
            "fingerprint": res["fingerprint"]}


def main(argv=None) -> int:
    started = time.monotonic()
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "dfspulse" / "__init__.py").is_file():
        print(f"no dfspulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     started)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = environment(loadavg)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({WORKLOADS[args.workload]['why']})")
    for line in result["lines"]:
        print("  " + line)
    print(f"  env python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']['name']} {env['blas']['version']} with "
          f"{env['blas']['threads']} threads, {env['nproc']} cpus, "
          f"load {env['loadavg_at_start'][0]:.2f}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              **{k: result[k] for k in ("attempted", "failed", "failures",
                                        "metrics", "detail", "fingerprint")}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
