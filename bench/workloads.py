"""Workload definitions, key-result extraction and the reference check.

Each workload is a list of scenario objects in the `dfspulse run` config
format.  The workload seed picks every scenario seed, so the same seed
gives the same inputs and byte-identical artifacts.  Beside each workload
is the reason it was chosen and which layers should move on it.

The Tier-1 test suite is not a workload: its main cost, acceptance
criterion 11, runs the same suppression scan as `scan-1f`.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

# The key results compared against the committed reference: a value passes
# when |value - ref| <= RTOL * |ref| + atol.  RTOL admits floating-point
# rounding (the scan gains move by ~1e-12 relative when summation order
# changes) and fails any wrong answer, which moves them by percent.  The
# block-of-4 residual is itself rounding noise (~1e-13, checked <= 1e-10
# by the scenario), so it is compared with an absolute floor instead.
RTOL = 1e-6
ATOL = {"residual": 1e-11}

WORKLOADS: dict[str, dict] = {
    "scan-1f": {
        "why": ("dt-scan at the README defaults (200 trajectories, dt 8/4/2/1 ms, "
                "t_max 3, 64 harmonics, jobs=1): classical 1/f dephasing only"),
        # baths.dephasing_run self time is ~98% of the pass and the dense
        # backend is idle.  A toggling-frame dephasing engine should move
        # wall_s and peak_rss_mb here; a faster dense backend should not.
        # The scan is sized in trajectory-segments because the filter-function
        # view of a pulse sequence (Cywinski et al., PRB 77, 174509) makes
        # the cost per segment the figure of merit.
        "jobs": 1,
        "scenarios": [
            {"name": "scan", "kind": "dt-scan",
             "parameters": {"mode": "differential", "n_traj": 200,
                            "dt_grid": [8e-3, 4e-3, 2e-3, 1e-3], "t_max": 3.0,
                            "n_harmonics": 64}},
        ],
    },
    "block4-d3": {
        "why": ("block4-sim at bath_factor_dim=3 (dimension 1296): dense eigh, "
                "schur, svd and propagator matmuls; the mirror image of scan-1f"),
        # pauli (expm_i, generator_of, spectral_norm) takes ~77% and
        # sequences (propagator matmuls) ~22%; baths do nothing.  A
        # structure-aware dense backend should move wall_s and peak_rss_mb
        # here; a dephasing engine should not.
        "jobs": 1,
        "scenarios": [
            {"name": "block4", "kind": "block4-sim",
             "parameters": {"bath_factor_dim": 3}},
        ],
    },
    "small-batch": {
        "why": ("six small scenarios at jobs=2: thousands of small dense calls "
                "where Python overhead dominates, plus the threaded baths path"),
        # The same layers used differently: ~2k kron_all and ~260 expm_i
        # calls on tiny matrices, and the baths path with per-cycle
        # recording, two noise streams and the thread pool.  A change that
        # wins at dimension 1296 or on the scan but costs per call shows up
        # here (one BLAS thread halves the d=2 block4 time but makes d=3 60%
        # slower).  pauli.{to_dense,kron_all,OperatorSum}, dfs.classify,
        # gates, verification and cli self time should move wall_s here.
        "jobs": 2,
        "scenarios": [
            {"name": "algebra", "kind": "verify-algebra"},
            {"name": "hardware", "kind": "formulas"},
            {"name": "gate", "kind": "gate-sim", "parameters": {"bath_dim": 4}},
            {"name": "block4", "kind": "block4-sim",
             "parameters": {"bath_factor_dim": 2}},
            {"name": "storage-independent", "kind": "storage-sim",
             "parameters": {"mode": "independent", "n_traj": 100}},
            {"name": "storage-collective", "kind": "storage-sim",
             "parameters": {"mode": "collective", "n_traj": 100}},
        ],
    },
}


def config_text(workload: str, seed: int) -> str:
    """The workload as `dfspulse run` config text; scenario i gets seed 100*seed + i."""
    scenarios = [{**sc, "seed": 100 * seed + i}
                 for i, sc in enumerate(WORKLOADS[workload]["scenarios"])]
    return json.dumps(scenarios, indent=2) + "\n"


def artifact_files(out_dir: Path, output_path: str) -> dict[str, bytes]:
    """Every artifact one scenario wrote, by file name."""
    return {p.name: p.read_bytes()
            for p in sorted(out_dir.glob(f"{output_path}.*"))}


def _csv_column(data: bytes, column: str) -> list[float]:
    return [float(row[column]) for row in csv.DictReader(io.StringIO(data.decode()))]


def key_results(kind: str, files: dict[str, bytes], output_path: str) -> dict:
    """The results a scenario is judged on, read back from its artifacts."""
    report = json.loads(files[f"{output_path}.json"])
    if kind == "dt-scan":
        table = files[f"{output_path}.csv"]
        return {col: _csv_column(table, col)
                for col in ("gain", "t2_base", "t2_pulsed")}
    if kind == "block4-sim":
        return {"residual": report["residual"]}
    if kind == "storage-sim":
        summary = report["summary"]
        return {k: summary[k] for k in ("gain", "t2_base", "t2_pulsed")}
    if kind == "gate-sim":
        return {"infidelity": _csv_column(files[f"{output_path}.csv"], "infidelity")}
    return {}


def strict(v):
    """`v` with non-finite floats replaced by None, for strict JSON."""
    if isinstance(v, list):
        return [strict(x) for x in v]
    return v if not isinstance(v, float) or math.isfinite(v) else None


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _close(value, ref, atol: float) -> bool:
    # A non-finite reference (an unbounded T2 or gain) is matched by any
    # non-finite value, whether it is written as Infinity or as null.
    if not _finite(ref):
        return not _finite(value)
    return _finite(value) and abs(value - ref) <= RTOL * abs(ref) + atol


def reference_mismatches(results: dict, ref: dict) -> list[str]:
    """Keys of `results` that lie outside the committed reference `ref`."""
    bad = []
    for key, want in ref.items():
        got = results.get(key)
        atol = ATOL.get(key, 0.0)
        if isinstance(want, list):
            ok = (isinstance(got, list) and len(got) == len(want)
                  and all(_close(g, w, atol) for g, w in zip(got, want)))
        else:
            ok = _close(got, want, atol)
        if not ok:
            bad.append(key)
    return bad
