"""Self-test of the benchmark's span wrappers on tiny known cases.

    python3 -m pytest -q bench/test_tracer.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfspulse
from dfspulse import baths, cli, dfs, pauli, sequences, verification
from tracer import Tracer, layer_metrics, summarize

BENCH = Path(__file__).resolve().parent


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_namespace_is_rebound_and_restored():
    originals = (pauli.expm_i, baths.SpectralNoise.draw,
                 vars(pauli.OperatorSum)["__init__"], verification.SUITES["u4"])
    t = Tracer()
    t.install()
    try:
        wrapped = pauli.expm_i
        assert wrapped is not originals[0] and wrapped.__wrapped__ is originals[0]
        for ns in (sequences, cli, verification, dfspulse):
            assert ns.expm_i is wrapped
        assert baths.SpectralNoise.draw.__wrapped__ is originals[1]
        assert vars(pauli.OperatorSum)["__init__"].__wrapped__ is originals[2]
        assert verification.SUITES["u4"] is verification.check_u4
        assert verification.check_u4.__wrapped__ is originals[3]
        assert cli.dfs is dfs and dfs.classify.__wrapped__
        # private helpers and dataclass-generated constructors stay bare
        assert not hasattr(baths._segment_integrals, "__wrapped__")
        assert not hasattr(pauli.PauliTerm.__init__, "__wrapped__")
    finally:
        t.uninstall()
    assert (pauli.expm_i, baths.SpectralNoise.draw,
            vars(pauli.OperatorSum)["__init__"], verification.SUITES["u4"]) == originals
    assert dfspulse.expm_i is originals[0] and sequences.expm_i is originals[0]


def test_pair_propagator_exponentiates_once(tracer):
    model = sequences.EvolutionModel(width=2, bath_dim=3)
    dfspulse.propagator(dfspulse.symmetrize_pair(0.1), model)
    rows = summarize(tracer.spans)
    by_id = {s[0]: s for s in tracer.spans}
    parent = {s[0]: by_id[s[1]][3] for s in tracer.spans if s[1]}
    expms = [s for s in tracer.spans if s[3] == "pauli.expm_i"]
    # [tau, P, tau, PDAG]: the event cache keys free segments by tau, so the
    # joint generator is exponentiated once; P and PDAG exponentiate a 4x4
    free = [s for s in expms if parent[s[0]] == "sequences.event_unitary"]
    assert len(free) == 1 and free[0][7] == 12 ** 3
    assert sorted(parent[s[0]] for s in expms if s not in free) == [
        "sequences.named_pulse"] * 2
    assert rows["pauli.expm_i"]["work"] == 12 ** 3 + 2 * 4 ** 3
    assert rows["sequences.event_unitary"]["calls"] == 4
    assert rows["sequences.propagator"]["calls"] == 1
    assert rows["sequences.propagator"]["work"] == 4 * 12 ** 3
    assert parent[by_id[free[0][1]][0]] == "sequences.propagator"


def test_self_time_subtracts_same_thread_children_only():
    spans = [(1, 0, 0, "a.f", 0.0, 10.0, 1, 0),
             (2, 1, 0, "a.g", 2.0, 5.0, 1, 0),
             (3, 1, 0, "b.h", 6.0, 7.0, 2, 0)]
    rows = summarize(spans)
    assert rows["a.f"]["self_s"] == 7.0 and rows["a.f"]["s"] == 10.0
    assert rows["a.g"]["self_s"] == 3.0 and rows["b.h"]["self_s"] == 1.0


def test_dephasing_segments_and_thread_parents(tracer):
    noise = baths.SpectralNoise(2.0, 0.3, 300.0, 1000.0, n_harmonics=8, seed=1)
    seq = sequences.symmetrize_pair(4e-3)
    baths.dephasing_run(seq, noise, 30, n_cycles=5, mode="independent", jobs=2)
    m = layer_metrics(tracer.spans, {})
    # 30 trajectories x 5 cycles x 2 free segments x 2 noise streams
    assert m["baths.traj_segments"] == 600
    assert m["baths.dephasing_run.calls"] == 1
    rows = summarize(tracer.spans)
    assert rows["baths.SpectralNoise.draw"]["calls"] == 60
    assert rows["baths.SpectralNoise.trajectory_rng"]["calls"] == 60
    run_id = next(s[0] for s in tracer.spans if s[3] == "baths.dephasing_run")
    draws = [s for s in tracer.spans if s[3] == "baths.SpectralNoise.draw"]
    assert all(s[1] == run_id for s in draws)


def test_exec_ids_group_one_scenario(tracer, tmp_path):
    sc = cli.parse_config(json.dumps(
        [{"name": "g", "kind": "gate-sim", "seed": 1}]))[0]
    tracer.exec_id = 7
    cli.run_scenario(sc, tmp_path)
    tracer.exec_id = 0
    inside = [s for s in tracer.spans if s[2] == 7]
    assert {s[3] for s in inside} >= {"cli.run_scenario", "sequences.propagator",
                                      "pauli.expm_i"}
    m = layer_metrics(inside, {7: "gate-sim"})
    assert m["cli.run_scenario.gate-sim.s"] > 0
    assert m["cli.run_scenario.dt-scan.s"] == 0
    assert np.isclose(sum(m[f"{x}.self_s"] for x in
                          ("cli", "verification", "baths", "sequences", "dfs",
                           "gates", "pauli")),
                      m["cli.run_scenario.gate-sim.s"])


def _traced_metrics() -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "trace", "small-batch", "0", "0"],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])["metrics"]


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".n3")) or k in ("baths.traj_segments",
                                                      "cli.artifact_bytes")}


def test_count_metrics_repeat_exactly_across_runs():
    first, second = _traced_metrics(), _traced_metrics()
    assert _counts(first) == _counts(second)
    assert first["pauli.kron_all.calls"] > 0 and first["baths.traj_segments"] > 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # run.py adds trace.overhead_frac, which needs the untraced process too
    assert {m["name"] for m in declared["per_layer"]} == set(first) | {
        "trace.overhead_frac"}
