"""Batch experiment runner: scenario configs in, CSV/JSON artifacts out.

A config file is a JSON array of scenario objects:

    [{"name": "quick", "kind": "formulas", "seed": 1, "parameters": {...}}]

Every scenario is fully reproducible from its normalized form; repeated runs
with the same seed produce byte-identical artifacts regardless of --jobs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baths, dfs, gates, pauli, sequences, verification
from .baths import (
    SpectralNoise, suppression_scan, thermal_numbers, timescale_check, VibBath,
)
from .pauli import OperatorSum, _finite, _integer, expm_i, to_dense
from .sequences import EvolutionModel, Free, PulseSequence, propagator, symmetrize_pair
from .verification import CheckResult, _rand_herm

# the bounds of the scenario checks, listed in the README's Conventions
_GAIN_FLOOR = 1.0          # least T2 gain of a storage-sim outside collective mode
_GATE_INFIDELITY_FACTOR = 10  # gate-sim infidelity bound, in units of (gamma t)^2

# parameter schema per kind: name -> (type, default, validator or None)
_POS = ("must be positive", lambda v: v > 0)
_NONNEG = ("must be nonnegative", lambda v: v >= 0)

# the classical 1/f noise shared by storage-sim and dt-scan; all but "mode"
# are SpectralNoise fields
_NOISE_SCHEMA = {
    "alpha": (float, 2.0, _NONNEG),
    "omega_min": (float, 2 * np.pi * 0.05, _POS),
    "omega_max": (float, 2 * np.pi * 50.0, _POS),
    "amplitude": (float, 2 * np.pi * 200.0, _POS),
    "n_harmonics": (int, 64, ("must be >= 8", lambda v: v >= 8)),
    "mode": (str, "differential", ("must be " + "/".join(baths._NOISE_MODES),
                                   lambda v: v in baths._NOISE_MODES)),
}

SCHEMAS: dict[str, dict] = {
    "verify-algebra": {},
    "formulas": {
        "eta": (float, 0.1, _POS),
        "omega_rabi": (float, 2 * np.pi * 5e6, _POS),
        "detuning": (float, 2 * np.pi * 50e6, _POS),
        "n_mean": (float, 0.0, _NONNEG),
        "k_int": (int, 1, ("must be >= 1", lambda v: v >= 1)),
        "k_prime": (int, 1, ("must be >= 1", lambda v: v >= 1)),
        "m": (int, 1, ("must be >= 1", lambda v: v >= 1)),
        "n_ions": (int, 2, ("must be >= 2", lambda v: v >= 2)),
        "omega0": (float, 2 * np.pi * 5e6, _POS),
        "gamma_damp": (float, 1e3, _NONNEG),
        "temperature": (float, 0.01, _POS),
        "dt": (float, 1e-9, _POS),
        "cutoff": (float, 1e8, _NONNEG),
    },
    "storage-sim": {
        **_NOISE_SCHEMA,
        "dt": (float, 4e-3, _POS),
        "n_cycles": (int, 400, _POS),
        "n_traj": (int, 100, _POS),
    },
    "gate-sim": {
        "axis": (str, "X", ("must be X or Y", lambda v: v in ("X", "Y"))),
        "theta": (float, float(np.pi / 3), _POS),
        "omega_drive": (float, 1.0, _POS),
        "gamma_grid": (list, [0.01, 0.005, 0.0025], ("must be positive numbers",
                       lambda v: len(v) > 0 and all(x > 0 for x in v))),
        "bath_dim": (int, 2, ("must be >= 2", lambda v: v >= 2)),
    },
    "block4-sim": {
        "tau": (float, 0.05, _POS),
        "bath_factor_dim": (int, 2, ("must be in [2,4]", lambda v: 2 <= v <= 4)),
    },
    "dt-scan": {
        **_NOISE_SCHEMA,
        "dt_grid": (list, [8e-3, 4e-3, 2e-3, 1e-3], ("need >= 4 positive points",
                    lambda v: len(v) >= 4 and all(x > 0 for x in v))),
        "n_traj": (int, 200, _POS),
        "t_max": (float, 3.0, _POS),
    },
}
KINDS = tuple(SCHEMAS)


class ConfigError(ValueError):
    """Invalid scenario config; `errors` lists (where, key, reason) entries."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{w}: {k}: {r}" for w, k, r in self.errors)
        super().__init__(f"invalid config: {lines}")


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    seed: int
    output_path: str
    parameters: dict

    def normalized(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "output_path": self.output_path,
            "parameters": dict(sorted(self.parameters.items())),
            "seed": self.seed,
        }


def _coerce(typ, value):
    """A parameter value as `typ`; floats and list entries are finite numbers."""
    if typ is float:
        return _finite(value, "value")
    if typ is int:
        return _integer(value, "value")
    if typ is list:
        if not isinstance(value, list):
            raise ValueError("expected list")
        return [_finite(x, "list entries") for x in value]
    if not isinstance(value, typ):
        raise ValueError(f"expected {typ.__name__}")
    return value


def _validate_scenario(obj: dict, where: str, errors: list) -> Scenario | None:
    if not isinstance(obj, dict):
        errors.append((where, "-", "scenario must be a JSON object"))
        return None
    allowed = {"name", "kind", "seed", "output_path", "parameters"}
    for key in obj:
        if key not in allowed:
            errors.append((where, key, "unknown key"))
    name = obj.get("name")
    kind = obj.get("kind")
    if not isinstance(name, str) or not name:
        errors.append((where, "name", "required non-empty string"))
        return None
    if kind not in KINDS:
        errors.append((where, "kind", f"unknown kind {kind!r}"))
        return None
    try:
        seed = _integer(obj.get("seed", 0), "seed", 0)
    except ValueError:
        errors.append((where, "seed", "must be a nonnegative integer"))
        return None
    out = obj.get("output_path", name)
    if not isinstance(out, str) or not out:
        errors.append((where, "output_path", "must be a non-empty string"))
        return None
    # artifacts are written as <out-dir>/<output_path>.json; keep them there
    if out in (".", "..") or any(c in out for c in "/\\\0"):
        errors.append((where, "output_path", "must be a file name, not a path"))
        return None
    schema = SCHEMAS[kind]
    params_in = obj.get("parameters", {})
    if not isinstance(params_in, dict):
        errors.append((where, "parameters", "must be an object"))
        return None
    params: dict = {}
    ok = True
    for key, value in params_in.items():
        if key not in schema:
            errors.append((where, key, "unknown parameter"))
            ok = False
    for key, (typ, default, validator) in schema.items():
        if key in params_in:
            try:
                value = _coerce(typ, params_in[key])
            except ValueError as exc:
                errors.append((where, key, str(exc)))
                ok = False
                continue
            if validator is not None and not validator[1](value):
                errors.append((where, key, validator[0]))
                ok = False
                continue
        else:
            value = default
        params[key] = value
    if ok and "omega_min" in params and not params["omega_min"] < params["omega_max"]:
        errors.append((where, "omega_max", "must exceed omega_min"))
        ok = False
    if not ok:
        return None
    return Scenario(name=name, kind=kind, seed=seed, output_path=out,
                    parameters=params)


def parse_config(text: str) -> list[Scenario]:
    """Parse and validate a config; raises ConfigError listing every problem."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([(f"line {exc.lineno}", "-", exc.msg)]) from exc
    except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
        raise ConfigError([("top level", "-", str(exc))]) from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ConfigError([("top level", "-", "expected an array of scenarios")])
    errors: list = []
    out: list[Scenario] = []
    for idx, obj in enumerate(data):
        sc = _validate_scenario(obj, f"scenario {idx}", errors)
        if sc is not None:
            out.append(sc)
    seen: dict[str, int] = {}
    for idx, sc in enumerate(out):
        if sc.output_path in seen:
            errors.append((f"scenario {idx}", "output_path",
                           f"duplicates scenario {seen[sc.output_path]}"))
        seen.setdefault(sc.output_path, idx)
    if errors:
        raise ConfigError(errors)
    return out


# ---------------------------------------------------------------------------
# scenario execution


def _fmt(x) -> str:
    return f"{x:.17g}"


def _strict(v):
    """`v` in plain JSON values: numpy scalars through `.item()`, and every
    non-finite float replaced by None (JSON null)."""
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _write_json(path: Path, obj) -> None:
    """Strict RFC 8259 JSON: unbounded values (an infinite T2) become null;
    a value with no JSON form raises."""
    text = json.dumps(_strict(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", newline="\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _noise(sc: Scenario) -> SpectralNoise:
    return SpectralNoise(**{k: sc.parameters[k] for k in _NOISE_SCHEMA if k != "mode"},
                         seed=sc.seed)


def _run_verify(sc: Scenario):
    return verification.run_all(), {}, None


def _run_formulas(sc: Scenario):
    p = sc.parameters
    hp = gates.HardwareParams(eta=p["eta"], omega_rabi=p["omega_rabi"],
                              detuning=p["detuning"], n_mean=p["n_mean"],
                              k_int=p["k_int"], n_ions=p["n_ions"])
    vb = VibBath(gamma=p["gamma_damp"], mode_freqs=(), omega0=p["omega0"],
                 n_trunc=2, temperature=p["temperature"])
    tn = thermal_numbers(vb)
    ts = timescale_check(p["dt"], p["cutoff"], tn.t_dec)
    ld = gates.lamb_dicke_margin(hp)
    con = gates.cancellation_constraints(p["m"], hp, p["k_prime"])
    values = {
        "tau_sm": gates.tau_sm(hp),
        "lamb_dicke_product": ld.product,
        "lamb_dicke_infidelity_scale": ld.infidelity_scale,
        "off_resonant_penalty": gates.off_resonant_penalty(hp),
        "n_mean_thermal": tn.n_mean,
        "t_dec": tn.t_dec,
        "timescale_margin": ts.margin,
        "timescale_satisfied": ts.satisfied,
        "cancellation_delta_required": con.delta_required,
        "cancellation_eta_required": con.eta_required,
        "cancellation_compatible": con.lamb_dicke_compatible,
    }
    checks = [
        CheckResult.flag("tau_sm_positive", values["tau_sm"] > 0),
        CheckResult.flag("cancellation_incompatible_for_m>=1",
                         not con.lamb_dicke_compatible),
    ]
    return checks, {"values": values}, None


def _run_storage(sc: Scenario):
    p = sc.parameters
    noise = _noise(sc)
    # both runs see the same trajectories, so they are drawn once
    drawn = baths._rate_coefficients(noise, p["n_traj"], p["mode"])
    base = baths._toggling_run(PulseSequence((Free(p["dt"]),)), (0, 1),
                               2 * p["n_cycles"], 1, *drawn)
    pulsed = baths._toggling_run(symmetrize_pair(p["dt"]), (0, 1),
                                 p["n_cycles"], 1, *drawn)
    gain = baths._t2_gain(pulsed.t2, base.t2)
    summary = {"t2_base": base.t2, "t2_pulsed": pulsed.t2, "gain": gain,
               "final_coherence_base": float(base.coherence[-1]),
               "final_coherence_pulsed": float(pulsed.coherence[-1])}
    if p["mode"] == "collective":
        checks = [CheckResult.near("dfs_immunity", pulsed.coherence.min(), 1.0,
                                   pauli._CHECK_TOL)]
    else:
        checks = [CheckResult.at_least("t2_gain", gain, _GAIN_FLOOR)]
    # baseline record 2k lies at the time of pulsed record k: 2k dt = k (2 dt), bit for bit
    rows = np.column_stack([pulsed.times, base.coherence[::2], pulsed.coherence]).tolist()
    table = (["t", "coherence_base", "coherence_pulsed"], rows)
    return checks, {"summary": summary}, table


def _run_gate(sc: Scenario):
    p = sc.parameters
    rng = np.random.default_rng(sc.seed)
    bdim = p["bath_dim"]
    bmat = _rand_herm(rng, bdim)
    bmat = bmat / np.linalg.norm(bmat, 2)
    leak_op = to_dense(
        OperatorSum.single(2, 0, "Y", 0.5, "B") + OperatorSum.single(2, 1, "Y", 0.5, "B"),
        bath_dim=bdim, bindings={"B": bmat})
    t = p["theta"] / p["omega_drive"]
    reg = dfs.DfsRegister(((0, 1),), 2)
    v = dfs.code_isometry(reg)
    v_full = np.kron(v, np.eye(bdim))
    xb, yb, _ = (to_dense(op) for op in dfs.logical_operators((0, 1), 2))
    gen = xb if p["axis"] == "X" else yb
    target = expm_i(v.conj().T @ gen @ v, t * p["omega_drive"])
    seq = sequences.combined_gate(p["axis"], t, p["omega_drive"])
    rows = []
    checks = []
    for gamma in p["gamma_grid"]:
        model = EvolutionModel(2, bdim, gamma * leak_op)
        u = propagator(seq, model)
        block = v_full.conj().T @ u @ v_full
        fid = abs(np.trace(np.kron(target.conj().T, np.eye(bdim)) @ block)) / (2 * bdim)
        infid = 1 - fid
        bound = _GATE_INFIDELITY_FACTOR * (gamma * t) ** 2
        rows.append([float(gamma), float(infid), float(bound)])
        checks.append(CheckResult.error_below(f"gate_infidelity_gamma={gamma:g}", infid, bound))
    return checks, {}, (["gamma_sb", "infidelity", "bound"], rows)


def _block4_model(sc: Scenario) -> list:
    """The [(idx, stack)] blocks of the block4-sim Hamiltonian sum_q Z_q (x)
    b_q, each ion's own random bath factor b_q embedded as the q-th of four.
    The sum is diagonal in the ions' states: system state s has the one
    block sum_q z_q(s) b_q, with z_q(s) = +-1 its Z_q eigenvalue.  The terms
    are added in the sum's canonical order, q = 3, 2, 1, 0, into a zero
    block, so every entry rounds as in `to_dense`."""
    rng = np.random.default_rng(sc.seed)
    d = sc.parameters["bath_factor_dim"]
    b = [pauli._embed(_rand_herm(rng, d), (q,), (d,) * 4) for q in range(4)]
    stack = np.zeros((16, d ** 4, d ** 4), dtype=complex)
    for s, block in enumerate(stack):
        for q in (3, 2, 1, 0):
            if s >> (3 - q) & 1:  # qubit 0 is the most significant bit
                block -= b[q]
            else:
                block += b[q]
    return [(np.arange(16 * d ** 4).reshape(16, -1), stack)]


def _run_block4(sc: Scenario):
    p = sc.parameters
    bdim = p["bath_factor_dim"] ** 4
    # the private cores hand the blocks on: no dense matrix, no scan.  Each
    # stage's input is released once used: the model's blocks go in unnamed,
    # so the product drops them once every event's action is known, and the
    # log writes the generator over u, which nothing else holds
    u = sequences._propagator_blocks(sequences.symmetrize_block4(p["tau"], 4), 4, bdim,
                                     _block4_model(sc))
    block_sizes = [len(row) for idx, _ in u for row in idx]
    g, margin, selfcheck, unitarity = pauli._log_blocks(u, 4 * p["tau"], overwrite=True)
    resid = dfs._block_residual(g, 4, bdim, ((0, 1, 2, 3),))
    checks = [CheckResult.error_below("block4_residual", resid, pauli._CHECK_TOL)]
    return checks, {"residual": resid, "dim": 16 * bdim,
                    "block_sizes": block_sizes,
                    "branch_margin": margin, "log_selfcheck": selfcheck,
                    "unitarity": unitarity}, None


def _run_dtscan(sc: Scenario):
    p = sc.parameters
    noise = _noise(sc)
    rows_raw = suppression_scan(symmetrize_pair, p["dt_grid"], noise,
                                p["n_traj"], p["t_max"], mode=p["mode"])
    rows = [[r.dt, r.t2_base, r.t2_pulsed, r.gain, r.n_traj, r.seed]
            for r in rows_raw]
    if p["mode"] == "collective":
        # the code space does not see collective dephasing: no run decays
        immune = all(math.isinf(t2) for r in rows_raw for t2 in (r.t2_base, r.t2_pulsed))
        checks = [CheckResult.flag("dfs_immunity", immune)]
    else:
        # a baseline that never decays measured nothing; a pulsed T2 past
        # t_max, and with it the gain, reads unbounded, so two unbounded
        # gains in a row count as rising
        gains = [r.gain for r in sorted(rows_raw, key=lambda r: r.dt, reverse=True)]
        rising = all(b > a or math.isinf(a) and math.isinf(b)
                     for a, b in zip(gains, gains[1:]))
        checks = [CheckResult.flag("gain_monotone_in_inverse_dt",
                                   math.isfinite(rows_raw[0].t2_base) and rising)]
    return checks, {}, (["dt", "t2_base", "t2_pulsed", "gain", "n_traj", "seed"], rows)


_RUNNERS = {
    "verify-algebra": _run_verify,
    "formulas": _run_formulas,
    "storage-sim": _run_storage,
    "gate-sim": _run_gate,
    "block4-sim": _run_block4,
    "dt-scan": _run_dtscan,
}


def run_scenario(sc: Scenario, out_dir: Path, jobs: int = 1) -> list[CheckResult]:
    """Execute one scenario, write its artifacts, return its checks.

    On an internal failure a partial artifact with ``"partial": true`` is
    flushed and the exception propagates.  `jobs` is accepted for
    compatibility; no runner is parallel, so artifacts never depend on it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{sc.output_path}.json"
    try:
        checks, payload, table = _RUNNERS[sc.kind](sc)
    except Exception as exc:
        partial = {"scenario": sc.normalized(), "partial": True, "error": str(exc)}
        _write_json(json_path, partial)
        raise
    report = {"scenario": sc.normalized(), "partial": False, **payload,
              "checks": [c.__dict__ for c in checks], "passed": all(c.passed for c in checks)}
    _write_json(json_path, report)
    if table is not None:
        _write_csv(out_dir / f"{sc.output_path}.csv", table[0], table[1])
    return checks


def report(results: list[tuple[str, list[CheckResult]]], stream=None) -> int:
    """One line per check, deterministic order; returns the exit status."""
    stream = stream or sys.stdout
    total = 0
    failed = 0
    for scenario_name, checks in results:
        for c in checks:
            total += 1
            status = "PASS" if c.passed else "FAIL"
            if not c.passed:
                failed += 1
            print(f"{status} {scenario_name}/{c.name} measured={c.measured:.6g} "
                  f"expected={c.expected:.6g} tol={c.tol:.6g}", file=stream)
    if total == 0:
        print("no scenarios", file=stream)
        return 0
    if failed == 0:
        print(f"OK ({total} checks)", file=stream)
        return 0
    print(f"FAILED ({failed} of {total} checks)", file=stream)
    return 1


VERIFY_CONFIG = """[
  {"name": "verify", "kind": "verify-algebra", "seed": 0}
]
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dfspulse",
        description="scenario runner for the encoded-decoupling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run scenarios from a JSON config")
    p_run.add_argument("config", type=Path)
    p_ver = sub.add_parser("verify", help="run the built-in algebra suite")
    for p in (p_run, p_ver):
        p.add_argument("--seed", type=int, default=None,
                       help="override every scenario's seed")
        p.add_argument("--out-dir", type=Path, default=Path("."))
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; results do not depend on it")
    args = parser.parse_args(argv)

    if args.seed is not None and args.seed < 0:
        print("CONFIG ERROR --seed: seed: must be a nonnegative integer",
              file=sys.stderr)
        return 2
    text = VERIFY_CONFIG
    if args.command == "run":
        try:
            text = args.config.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"CONFIG ERROR {args.config}: cannot read: {exc}", file=sys.stderr)
            return 2
    try:
        scenarios = parse_config(text)
    except ConfigError as exc:
        for where, key, reason in exc.errors:
            print(f"CONFIG ERROR {where}: {key}: {reason}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenarios = [Scenario(s.name, s.kind, args.seed, s.output_path,
                              s.parameters) for s in scenarios]
    results = []
    status = 0
    for sc in scenarios:
        try:
            checks = run_scenario(sc, args.out_dir, jobs=args.jobs)
        except Exception as exc:  # partial artifact already flushed
            print(f"ERROR {sc.name}: {exc}", file=sys.stderr)
            status = 1
            continue
        results.append((sc.name, checks))
    rc = report(results)
    return status or rc


if __name__ == "__main__":
    sys.exit(main())
