import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfspulse.cli import (
    SCHEMAS, ConfigError, Scenario, main, parse_config, report, run_scenario,
)
import dfspulse
import dfspulse.cli as cli_mod
from dfspulse.dfs import _block_residual, block_collective_residual
from dfspulse.pauli import (
    _BRANCH_TOL, _CHECK_TOL, BathSlotError, NonHermitianError, OperatorSum, _blocks, _log_blocks,
    _stacked, generator_of, to_dense,
)
from dfspulse.sequences import (
    EvolutionModel, _propagator_blocks, propagator, symmetrize_block4,
)
from dfspulse.verification import CheckResult


def serialize_config(scenarios: list[Scenario]) -> str:
    """The normalized config text of `scenarios`, which `parse_config` reads back."""
    return json.dumps([sc.normalized() for sc in scenarios],
                      indent=2, sort_keys=True) + "\n"


def test_parse_minimal_scenario_gets_defaults():
    scs = parse_config('[{"name": "v", "kind": "verify-algebra"}]')
    assert len(scs) == 1
    assert scs[0].seed == 0 and scs[0].output_path == "v"
    scs = parse_config('[{"name": "f", "kind": "formulas"}]')
    assert scs[0].parameters["eta"] == 0.1
    assert scs[0].parameters["k_int"] == 1


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError) as err:
        parse_config('[{"name": "b", "kind": "block4-sim", '
                     '"parameters": {"tau": -1.0}}]')
    assert any(k == "tau" for _, k, _ in err.value.errors)

    with pytest.raises(ConfigError) as err:
        parse_config('[{"name": "x", "kind": "no-such-kind"}]')
    assert any(k == "kind" for _, k, _ in err.value.errors)

    with pytest.raises(ConfigError) as err:
        parse_config('[{"name": "f", "kind": "formulas", '
                     '"parameters": {"bogus": 1}}]')
    assert any(k == "bogus" for _, k, _ in err.value.errors)

    with pytest.raises(ConfigError) as err:
        parse_config('[{"name": "f", "kind": "formulas", "extra": 1}]')
    assert any(k == "extra" for _, k, _ in err.value.errors)


def _param_errors(kind, params_json):
    with pytest.raises(ConfigError) as err:
        parse_config(f'[{{"name": "s", "kind": "{kind}", "parameters": {params_json}}}]')
    return {k for _, k, _ in err.value.errors}


@pytest.mark.parametrize("kind, params_json, key", [
    ("formulas", '{"dt": Infinity}', "dt"),
    ("formulas", '{"eta": NaN}', "eta"),
    ("formulas", '{"eta": true}', "eta"),
    ("formulas", '{"cutoff": ' + "9" * 400 + "}", "cutoff"),
    ("block4-sim", '{"tau": Infinity}', "tau"),
    ("dt-scan", '{"dt_grid": [8e-3, 4e-3, 2e-3, Infinity]}', "dt_grid"),
    ("dt-scan", '{"dt_grid": ["a", 1, 2, 3]}', "dt_grid"),
    ("dt-scan", '{"dt_grid": 0.5}', "dt_grid"),
    ("gate-sim", '{"gamma_grid": [true]}', "gamma_grid"),
    ("gate-sim", '{"gamma_grid": [0.01, -Infinity]}', "gamma_grid"),
    ("dt-scan", '{"mode": 5}', "mode"),
    ("dt-scan", '5', "parameters"),
])
def test_parse_rejects_non_finite_and_non_numeric(kind, params_json, key):
    assert _param_errors(kind, params_json) == {key}


# the parameters that once set a check's bound or a unit, by kind, with a
# value each once took
_REMOVED = {"tolerance": ("block4-sim", 1e-10), "min_gain": ("storage-sim", 1.0),
            "expect_monotone": ("dt-scan", False), "slope_window": ("dt-scan", [0.5, 2.0]),
            "cutoff_unit": ("formulas", "Hz")}


@pytest.mark.parametrize("key", list(_REMOVED))
def test_a_config_holds_model_inputs_only(key, tmp_path, capsys):
    # every check's bound is fixed, and cutoff is in rad/s
    kind, value = _REMOVED[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"name": "s", "kind": kind, "parameters": {key: value}}]))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"CONFIG ERROR scenario 0: {key}: unknown parameter\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["storage-sim", "dt-scan"])
def test_parse_rejects_inverted_noise_band(kind, tmp_path, capsys):
    assert _param_errors(kind, '{"omega_min": 5.0, "omega_max": 1.0}') == {"omega_max"}
    assert _param_errors(kind, '{"omega_min": 5.0, "omega_max": 5.0}') == {"omega_max"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"name": "n", "kind": kind, "parameters": {
        "omega_min": 5.0, "omega_max": 1.0}}]))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "omega_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", ["../../etc/x", "/tmp/x", "a/b", "..", "."])
def test_output_path_stays_inside_out_dir(path, tmp_path, capsys):
    cfg = [{"name": "f", "kind": "formulas", "output_path": path}]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(cfg))
    assert [k for _, k, _ in err.value.errors] == ["output_path"]
    out = tmp_path / "deep" / "er" / "out"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "cfg.json"), "--out-dir", str(out)]) == 2
    assert "CONFIG ERROR" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


def test_parse_rejects_negative_seed():
    with pytest.raises(ConfigError) as err:
        parse_config('[{"name": "g", "kind": "gate-sim", "seed": -1}]')
    assert [k for _, k, _ in err.value.errors] == ["seed"]


def test_every_kind_has_one_schema_and_one_runner():
    assert set(SCHEMAS) == set(cli_mod._RUNNERS) == set(cli_mod.KINDS)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)


@st.composite
def _scenarios(draw):
    """Scenario objects whose keys are mostly real and whose values are any JSON."""
    kind = draw(st.sampled_from(sorted(SCHEMAS) + ["no-such-kind"]))
    keys = sorted(SCHEMAS.get(kind, {})) + ["bogus"]
    obj = {"name": draw(st.text(max_size=4) | _json), "kind": kind,
           "parameters": draw(st.dictionaries(st.sampled_from(keys), _json, max_size=5)
                              | _json)}
    for key in ("seed", "output_path"):
        if draw(st.booleans()):
            obj[key] = draw(_json | st.sampled_from(["..", "/tmp/x", "a/b"]))
    return obj


@settings(max_examples=300, deadline=None)
@given(data=st.lists(_scenarios(), max_size=3) | _json)
def test_parse_config_raises_only_config_error(data):
    # json.dumps writes NaN and Infinity, which json.loads accepts
    try:
        scenarios = parse_config(json.dumps(data))
    except ConfigError:
        return
    for sc in scenarios:
        assert serialize_config([sc]) == serialize_config(
            parse_config(serialize_config([sc])))


def test_parse_rejects_duplicate_output_paths():
    with pytest.raises(ConfigError) as err:
        parse_config('[{"name": "a", "kind": "formulas"},'
                     ' {"name": "a", "kind": "verify-algebra"}]')
    assert any(k == "output_path" for _, k, _ in err.value.errors)


def test_parse_reports_syntax_error_line():
    with pytest.raises(ConfigError) as err:
        parse_config('[{"name": "a",\n "kind": }]')
    where, _, _ = err.value.errors[0]
    assert "line 2" in where


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,  # nested past the recursion limit
    '[{"name": "a", "kind": "formulas", "seed": ' + "9" * 5000 + "}]",  # past the digit limit
])
def test_parse_rejects_what_json_cannot_read_at_top_level(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [where for where, _, _ in err.value.errors] == ["top level"]


def test_config_round_trip_fixed_point():
    text = ('[{"name": "scan", "kind": "dt-scan", "seed": 3, '
            '"parameters": {"alpha": 1.0, "n_traj": 10}}]')
    scs = parse_config(text)
    normalized = serialize_config(scs)
    again = serialize_config(parse_config(normalized))
    assert normalized == again


def test_report_formats(capsys):
    ok = CheckResult("a", 1.0, 1.0, 0.1, True)
    bad = CheckResult("b", 2.0, 1.0, 0.1, False)
    rc = report([("s", [ok])])
    out = capsys.readouterr().out
    assert rc == 0 and out.startswith("PASS s/a") and "OK (1 checks)" in out
    rc = report([("s", [ok, bad])])
    out = capsys.readouterr().out
    assert rc == 1 and "FAIL s/b" in out and "FAILED (1 of 2 checks)" in out
    rc = report([])
    assert rc == 0 and "no scenarios" in capsys.readouterr().out


def test_verify_scenario_artifact(tmp_path):
    sc = parse_config('[{"name": "v", "kind": "verify-algebra"}]')[0]
    checks = run_scenario(sc, tmp_path)
    assert all(c.passed for c in checks)
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["passed"] is True and payload["partial"] is False
    assert len(payload["checks"]) == len(checks)


def test_formulas_scenario_values(tmp_path):
    sc = parse_config(
        '[{"name": "hw", "kind": "formulas", '
        '"parameters": {"eta": 0.1, "omega_rabi": 31415926.535897932, '
        '"k_int": 1}}]')[0]
    run_scenario(sc, tmp_path)
    values = json.loads((tmp_path / "hw.json").read_text())["values"]
    assert float(values["tau_sm"]) == pytest.approx(1.0e-6, rel=1e-6)
    assert values["cancellation_compatible"] is False


def test_block4_scenario(tmp_path):
    sc = parse_config('[{"name": "b4", "kind": "block4-sim", "seed": 5}]')[0]
    checks = run_scenario(sc, tmp_path)
    assert all(c.passed for c in checks)


def _block4(seed, d):
    return parse_config(json.dumps([{"name": "b4", "kind": "block4-sim", "seed": seed,
                                     "parameters": {"bath_factor_dim": d}}]))[0]


def _block4_sum(sc):
    # the scenario's Hamiltonian sum_q Z_q (x) b_q as a Pauli sum, with its
    # bath dimension and bindings: b_q is the q-th of four bath factors,
    # drawn as the scenario draws them and placed by the kron formula
    rng = np.random.default_rng(sc.seed)
    d = sc.parameters["bath_factor_dim"]
    bindings = {}
    for q in range(4):
        mats = [np.eye(d, dtype=complex)] * 4
        mats[q] = cli_mod._rand_herm(rng, d)
        bindings[f"b{q}"] = reduce(np.kron, mats)
    h = sum((OperatorSum.single(4, q, "Z", 1.0, f"b{q}") for q in range(4)),
            OperatorSum.zero(4))
    return h, d ** 4, bindings


def _dense_block4(sc):
    # the dense model of the scenario: the oracle of the blocks the CLI builds
    h, bdim, bindings = _block4_sum(sc)
    return (EvolutionModel(4, bdim, to_dense(h, bdim, bindings)),
            symmetrize_block4(sc.parameters["tau"], 4))


def test_block4_report_sizes_and_health(tmp_path):
    sc = _block4(5, 2)
    run_scenario(sc, tmp_path / "a", jobs=1)
    run_scenario(sc, tmp_path / "a2", jobs=1)
    run_scenario(sc, tmp_path / "b", jobs=2)
    text = (tmp_path / "a" / "b4.json").read_bytes()
    assert text == (tmp_path / "a2" / "b4.json").read_bytes()
    assert text == (tmp_path / "b" / "b4.json").read_bytes()
    rep = json.loads(text)
    assert rep["dim"] == 256 and rep["block_sizes"] == [16] * 16
    # the margin is that of the cycle propagator's eigenphases
    model, seq = _dense_block4(sc)
    phases = np.angle(np.linalg.eigvals(propagator(seq, model)))
    assert rep["branch_margin"] == pytest.approx(np.min(np.pi - np.abs(phases)), abs=1e-9)
    assert 0 <= rep["log_selfcheck"] <= 1e-8
    # the log's unitary test of the cycle propagator, as the dense one reads it
    u = propagator(seq, model)
    dense = np.abs(u @ u.conj().T - np.eye(len(u))).max()
    assert rep["unitarity"] == pytest.approx(dense, abs=1e-14)
    assert 0 < rep["unitarity"] <= _CHECK_TOL


@pytest.mark.parametrize("d", [2, 3])
def test_block4_residual_equals_the_dense_chain(d):
    for seed in range(8):
        sc = _block4(seed, d)
        _, payload, _ = cli_mod._run_block4(sc)
        model, seq = _dense_block4(sc)
        g = generator_of(propagator(seq, model), 4 * sc.parameters["tau"])
        assert payload["residual"] == block_collective_residual(
            g, 4, model.bath_dim, ((0, 1, 2, 3),))
        # the symmetrized generator is sum_q (Zsum / 4) (x) b_q, so the
        # cycle's largest |eigenphase| is 4 tau ||B||, B the all-up block
        [(_, stack)] = cli_mod._block4_model(sc)
        norm = np.abs(np.linalg.eigvalsh(stack[0])).max()
        assert payload["branch_margin"] == pytest.approx(
            np.pi - 4 * sc.parameters["tau"] * norm, rel=0, abs=1e-12)


def _block4_at(d, tau):
    return parse_config(json.dumps([{"name": "b4", "kind": "block4-sim", "seed": 4,
                                     "parameters": {"bath_factor_dim": d, "tau": tau}}]))[0]


@pytest.mark.parametrize("d, tau", [(3, 0.1), (3, 0.2), (4, 0.2), (4, 0.1)])
def test_block4_rejects_a_tau_whose_eigenphases_wrap(d, tau):
    # at seed 4 each read a residual of pi / (4 tau) and a false FAIL: the
    # cycle's eigenphases passed pi, and the principal log shifted them
    with pytest.raises(ValueError,
                       match=rf"^tau {tau}: .* tau must stay below \(pi - 1e-06\) / \(4 "):
        cli_mod._run_block4(_block4_at(d, tau))


def _block4_bound(d):
    # the bound (pi - _BRANCH_TOL) / (4 ||B||) that a wrapping tau's error names
    with pytest.raises(ValueError) as info:
        cli_mod._run_block4(_block4_at(d, 1.0))
    return float(str(info.value).rsplit(" = ", 1)[1])


def test_block4_bound_is_the_log_branch_margin():
    bound = _block4_bound(3)
    [(_, stack)] = cli_mod._block4_model(_block4_at(3, 0.05))
    norm = np.abs(np.linalg.eigvalsh(stack[0])).max()
    assert bound == pytest.approx((np.pi - _BRANCH_TOL) / (4 * norm), rel=1e-14)
    assert bound == pytest.approx(0.09970194860513173, rel=1e-12)  # as the README states


@pytest.mark.parametrize("tau", [
    "above",  # bound (1 + 1e-12)
    "below",  # the largest float below the bound: its eigenphase, with the
              # product's rounding, comes within _BRANCH_TOL of pi in the log
    0.09970196,  # below pi / (4 ||B||) = 0.09970198 but within _BRANCH_TOL of it
])
def test_block4_rejects_a_tau_at_the_branch_margin_naming_tau(tau):
    bound = _block4_bound(3)
    tau = {"above": bound * (1 + 1e-12), "below": float(np.nextafter(bound, 0))}.get(tau, tau)
    with pytest.raises(ValueError) as info:
        cli_mod._run_block4(_block4_at(3, tau))
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"tau {tau!r}: ")
    assert "total_time" not in str(info.value)


def test_block4_runs_just_below_the_branch_margin():
    bound = _block4_bound(3)
    _, payload, _ = cli_mod._run_block4(_block4_at(3, bound * (1 - 1e-12)))
    assert payload["branch_margin"] == pytest.approx(_BRANCH_TOL, rel=1e-4)


def test_block4_with_a_wrapping_tau_fails_with_no_pass(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"name": "wrap", "kind": "block4-sim", "seed": 4,
                                "parameters": {"bath_factor_dim": 3, "tau": 0.1}}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert err.count("ERROR") == 1 and "ERROR wrap: tau 0.1" in err
    assert json.loads((tmp_path / "wrap.json").read_text())["partial"] is True


@pytest.mark.parametrize("d", [2, 3])
def test_block4_residual_gets_whole_system_states(d, monkeypatch):
    # `_block_residual` reads each (s, s) block as a diagonal sub-block, so
    # every block it is handed lists whole system states, each state's bath
    # indices s * bath_dim + (0, ..., bath_dim - 1) in a row
    handed = []

    def spy(hblocks, width, bath_dim, blocks):
        handed.append([idx.copy() for idx, _ in hblocks])
        return _block_residual(hblocks, width, bath_dim, blocks)

    monkeypatch.setattr(cli_mod.dfs, "_block_residual", spy)
    cli_mod._run_block4(_block4(4, d))
    [groups] = handed
    bdim = d ** 4
    runs = np.concatenate([idx.reshape(-1, bdim) for idx in groups])
    np.testing.assert_array_equal(runs, runs[:, :1] + np.arange(bdim))
    assert (runs[:, 0] % bdim == 0).all()
    assert sorted(runs[:, 0] // bdim) == list(range(16))


@pytest.mark.parametrize("d", [2, 3])
def test_block4_blocks_equal_the_dense_blocks(d):
    # one block per system state, equal entry for entry to the dense
    # matrix's, whose bindings follow the kron formula
    for seed in range(6):
        sc = _block4(seed, d)
        static = cli_mod._block4_model(sc)
        h, bdim, bindings = _block4_sum(sc)
        dense = to_dense(h, bdim, bindings)
        groups = _blocks(dense)
        assert [idx.shape for idx in groups] == [(16, d ** 4)]
        assert len(static) == len(groups)
        for (idx, stack), want in zip(static, groups):
            np.testing.assert_array_equal(idx, want)
            assert np.array_equal(stack, dense[_stacked(want)])


def test_block4_model_memory_at_d3():
    # the dense 1296^2 h_static alone is 27 MB; its 16 blocks of 81 are 1.7 MB
    sc = _block4(5, 3)
    h, bdim, bindings = _block4_sum(sc)

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: to_dense(h, bdim, bindings)) > 27e6
    assert peak(lambda: cli_mod._block4_model(sc)) < 5e6


def test_block4_pass_working_set_at_d3():
    # each stage holds at most two (16, 81, 81) stacks of 1.7 MB plus one
    # slab of temporaries; a third stack held anywhere would take it past
    # 6 MB, and whole-stack temporaries past 15 MB
    sc = _block4(5, 3)
    tracemalloc.start()
    try:
        checks, _, _ = cli_mod._run_block4(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 5.5e6


def test_block4_propagator_and_residual_stages_at_d3():
    # the product releases the model's blocks once every event's action is
    # known, and then holds the free segments' exponential, D and one slab;
    # the residual holds the h_ss stack and writes over the generator.  Each
    # peak is taken above what the stage holds on entry
    sc = _block4(5, 3)
    seq = symmetrize_block4(sc.parameters["tau"], 4)
    tracemalloc.start()
    try:
        held = [cli_mod._block4_model(sc)]
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        # unnamed, as `_run_block4` passes it: the product holds the only reference
        u = _propagator_blocks(seq, 4, 81, held.pop())
        prop = tracemalloc.get_traced_memory()[1] - entry
        g = _log_blocks(u, 4 * sc.parameters["tau"], overwrite=True)[0]
        del u
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        r = _block_residual(g, 4, 81, ((0, 1, 2, 3),))
        resid = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert r <= _CHECK_TOL
    assert prop < 3.5e6
    assert resid < 3e6


def test_block4_model_rejects_a_non_finite_bath(monkeypatch):
    # the model takes the bath factors as drawn, so a NaN reaches the first
    # exponential, whose Hermitian test rejects it before any arithmetic:
    # NonHermitianError and no RuntimeWarning.  The dense oracle's binding
    # check rejects it in to_dense
    monkeypatch.setattr(cli_mod, "_rand_herm", lambda rng, d: np.full((d, d), np.nan))
    sc = _block4(0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianError):
            cli_mod._run_block4(sc)
    with pytest.raises(BathSlotError, match=r"binding for 'b\d' must be finite"):
        _dense_block4(sc)


@pytest.mark.parametrize("d", [2, 3])
def test_block4_residual_stacks_take_eigvalsh(d, monkeypatch):
    # every residual stack is exactly Hermitian, so no norm needs an svd
    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: calls.append(s.shape) or eigvalsh(s))
    for seed in range(4):
        checks, _, _ = cli_mod._run_block4(_block4(seed, d))
        assert all(c.passed for c in checks)
    assert calls


def test_runtime_needs_no_scipy(tmp_path):
    # a fresh interpreter in which every import of scipy raises ImportError
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from pathlib import Path
        from dfspulse.cli import parse_config, run_scenario
        config = ('[{"name": "b4", "kind": "block4-sim", "seed": 5,'
                  ' "parameters": {"bath_factor_dim": 2}},'
                  ' {"name": "algebra", "kind": "verify-algebra"}]')
        for sc in parse_config(config):
            checks = run_scenario(sc, Path(sys.argv[1]))
            assert checks and all(c.passed for c in checks), sc.name
    """)
    src = str(Path(dfspulse.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for name in ("b4", "algebra"):
        assert json.loads((tmp_path / f"{name}.json").read_text())["passed"] is True


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # importing numpy.random costs setup time, so only the first draw loads it
    script = ("import sys, dfspulse.cli\n"
              "assert 'numpy.random' not in sys.modules\n"
              "dfspulse.baths.SpectralNoise(1.0, 1.0, 100.0, 1.0).trajectory_rng(0)\n"
              "assert 'numpy.random' in sys.modules\n")
    src = str(Path(dfspulse.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_gate_scenario(tmp_path):
    sc = parse_config(
        '[{"name": "g", "kind": "gate-sim", "seed": 2, '
        '"parameters": {"gamma_grid": [0.01, 0.005]}}]')[0]
    checks = run_scenario(sc, tmp_path)
    assert all(c.passed for c in checks)
    lines = (tmp_path / "g.csv").read_text().splitlines()
    assert lines[0] == "gamma_sb,infidelity,bound"
    assert len(lines) == 3


def test_storage_scenario_collective(tmp_path):
    sc = parse_config(
        '[{"name": "st", "kind": "storage-sim", "seed": 7, "parameters": '
        '{"mode": "collective", "n_traj": 10, "n_cycles": 50, '
        '"n_harmonics": 16}}]')[0]
    checks = run_scenario(sc, tmp_path)
    assert all(c.passed for c in checks)
    lines = (tmp_path / "st.csv").read_text().splitlines()
    assert lines[0] == "t,coherence_base,coherence_pulsed"


@pytest.mark.parametrize("mode, streams", [("differential", 1), ("independent", 2),
                                           ("collective", 0)])
def test_storage_scenario_draws_once_and_matches_single_runs(tmp_path, monkeypatch,
                                                             mode, streams):
    from dfspulse.baths import SpectralNoise, dephasing_run
    from dfspulse.sequences import Free, PulseSequence, symmetrize_pair

    params = {"mode": mode, "n_traj": 12, "n_cycles": 60, "n_harmonics": 16}
    sc = parse_config(json.dumps([{"name": "st", "kind": "storage-sim", "seed": 7,
                                   "parameters": params}]))[0]
    draws = []
    draw = SpectralNoise.draw
    monkeypatch.setattr(SpectralNoise, "draw",
                        lambda self, rng, out=None: draws.append(1) or draw(self, rng, out))
    run_scenario(sc, tmp_path)
    assert len(draws) == streams * params["n_traj"]
    monkeypatch.setattr(SpectralNoise, "draw", draw)

    p = sc.parameters
    noise = cli_mod._noise(sc)
    base = dephasing_run(PulseSequence((Free(p["dt"]),)), noise, p["n_traj"],
                         n_cycles=2 * p["n_cycles"], mode=mode)
    pulsed = dephasing_run(symmetrize_pair(p["dt"]), noise, p["n_traj"],
                           n_cycles=p["n_cycles"], mode=mode)
    summary = json.loads((tmp_path / "st.json").read_text())["summary"]
    for key, want in (("t2_base", base.t2), ("t2_pulsed", pulsed.t2),
                      ("final_coherence_base", base.coherence[-1]),
                      ("final_coherence_pulsed", pulsed.coherence[-1])):
        assert summary[key] == (want if np.isfinite(want) else None)
    # the table reads baseline record 2k beside pulsed record k, at one time
    assert base.times[::2].tobytes() == pulsed.times.tobytes()
    # 17 significant digits round-trip every float exactly
    table = np.loadtxt(tmp_path / "st.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], pulsed.times)
    assert np.array_equal(table[:, 1], base.coherence[::2])
    assert np.array_equal(table[:, 2], pulsed.coherence)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_artifacts_are_strict_json(tmp_path, monkeypatch):
    import dfspulse.cli as cli_mod

    # collective storage never decays (T2 and gain unbounded); gamma_damp 0
    # gives t_dec = inf; dt = Infinity is echoed in the scenario block.
    # parse_config rejects non-finite values, so the two scenarios that
    # carry one are built directly.
    st, scan = parse_config(json.dumps([
        {"name": "st", "kind": "storage-sim", "seed": 7, "parameters": {
            "mode": "collective", "n_traj": 10, "n_cycles": 50, "n_harmonics": 16}},
        {"name": "scan", "kind": "dt-scan", "seed": 3, "parameters": {
            "mode": "collective", "n_traj": 8, "n_harmonics": 16, "t_max": 0.5}},
    ]))
    defaults = {kind: {k: d for k, (_, d, _) in cli_mod.SCHEMAS[kind].items()}
                for kind in ("formulas", "block4-sim")}
    hw = Scenario("hw", "formulas", 0, "hw", {
        **defaults["formulas"], "gamma_damp": 0.0, "dt": float("inf")})
    boom_sc = Scenario("boom", "block4-sim", 0, "boom", {
        **defaults["block4-sim"], "tau": float("inf")})

    def boom(sc):
        raise RuntimeError("bath dimension blew up")

    monkeypatch.setitem(cli_mod._RUNNERS, "block4-sim", boom)
    for sc in (st, hw, scan, boom_sc):
        try:
            run_scenario(sc, tmp_path)
        except RuntimeError:
            assert sc.name == "boom"
    paths = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in paths] == ["boom.json", "hw.json", "scan.json", "st.json"]
    reports = {p.stem: json.loads(p.read_text(), parse_constant=_reject_constant)
               for p in paths}
    summary = reports["st"]["summary"]
    assert summary["gain"] is None and summary["t2_base"] is None
    assert reports["hw"]["values"]["t_dec"] is None
    # every T2 of the collective scan is unbounded, and its check says so
    assert [(c["name"], c["passed"]) for c in reports["scan"]["checks"]] == [
        ("dfs_immunity", True)]
    assert reports["boom"]["partial"] is True
    assert reports["boom"]["scenario"]["parameters"]["tau"] is None


def _scan_config(out_name):
    return json.dumps([{
        "name": out_name, "kind": "dt-scan", "seed": 11,
        "parameters": {"dt_grid": [8e-3, 4e-3, 2e-3, 1e-3], "n_traj": 16,
                       "n_harmonics": 16, "t_max": 2.0},
    }])


def test_dtscan_csv_header_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_scan_config("scan"))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", str(cfg), "--out-dir", str(out1), "--jobs", "1"]) == 0
    assert main(["run", str(cfg), "--out-dir", str(out2), "--jobs", "4"]) == 0
    csv1 = (out1 / "scan.csv").read_bytes()
    csv2 = (out2 / "scan.csv").read_bytes()
    assert csv1 == csv2
    assert csv1.decode().splitlines()[0] == "dt,t2_base,t2_pulsed,gain,n_traj,seed"
    assert (out1 / "scan.json").read_bytes() == (out2 / "scan.json").read_bytes()


def test_main_verify_command(tmp_path, capsys):
    assert main(["verify", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("checks)")
    assert (tmp_path / "verify.json").exists()


def test_verify_recomposes_the_classification_exactly(tmp_path):
    # classify is linear, so its check runs over the 16 basis strings and
    # must read exactly 0, not a rounding-level residual of random sums
    main(["verify", "--out-dir", str(tmp_path)])
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    [recompose] = [c for c in checks if c["name"].startswith("classify_recompose")]
    assert recompose["measured"] == 0.0 and recompose["passed"]


VERIFY_CHECKS = [
    "su2_cyclic_commutators", "pauli_mul_dense_oracle_256", "commutes_xor_anticommutes_256",
    "sm_closed_form_vs_expm", "sm_dfs_block_form", "sm_common_phase_invariance",
    "pi_equals_z1z2", "p_squared_is_pi", "q_squared_is_lambda", "p_fourth_is_identity",
    "basis_trace_orthogonality", "basis_spans_16", "pi_anticommutes_with_leak",
    "pi_commutes_with_dfs_and_logi", "classify_recompose_basis",
    "pair_symmetrization_exact_20", "motional_leakage_cancelled",
    "u4_collective_commutes_on_code", "u4_encoded_commutes_with_collective",
    "u4_breaks_differential", "u4_dfs_restriction", "tau_sm_1us", "off_resonant_penalty",
    "cancellation_incompatible", "generator_roundtrip_20", "bch_residual_within_bound",
]


def test_verify_report_runs_every_check_in_order(tmp_path):
    # a rewrite of a check cannot drop or reorder one without failing here
    assert main(["verify", "--out-dir", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert [c["name"] for c in checks] == VERIFY_CHECKS
    assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("params, rc", [
    # two pulsed T2s run past t_max: their gains are unbounded, and still rise
    ({"n_traj": 50, "t_max": 0.3}, 0),
    # a weak bath: the baseline never decays, so nothing was measured
    ({"mode": "differential", "n_traj": 20, "amplitude": 1.0, "t_max": 0.5}, 1),
])
def test_dtscan_gain_rule_with_unbounded_gains(tmp_path, params, rc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"name": "scan", "kind": "dt-scan", "seed": 3,
                                "parameters": params}]))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == rc
    report = json.loads((tmp_path / "scan.json").read_text())
    gains = [float(row.split(",")[3]) for row in
             (tmp_path / "scan.csv").read_text().splitlines()[1:]]
    assert any(np.isinf(gains)) and report["passed"] == (rc == 0)


def test_storage_sim_with_a_steep_spectrum_fails_with_no_pass(tmp_path, capsys):
    # alpha 1000 overflows the spectral weights at the default band: the
    # scenario ends in one ERROR line, never in a T2 of null and a passing gain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"name": "steep", "kind": "storage-sim",
                                "parameters": {"alpha": 1000.0, "n_traj": 4}}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and "ERROR steep: alpha 1000" in err
    assert json.loads((tmp_path / "steep.json").read_text())["partial"] is True


@pytest.mark.parametrize("kind", ["storage-sim", "dt-scan"])
@pytest.mark.parametrize("params, name", [
    ({"alpha": 1.0, "omega_min": 1e-300, "omega_max": 1e300}, "omega_max / omega_min"),
    ({"amplitude": 1e200}, "amplitude"),
])
def test_a_noise_that_overflows_fails_with_no_pass(tmp_path, capsys, kind, params, name):
    # neither an infinite grid (every T2 inf, a passing gain) nor a bare
    # OverflowError from a loud amplitude: one ERROR line naming the input
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"name": "loud", "kind": kind,
                                "parameters": {**params, "n_traj": 4}}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and f"ERROR loud: {name}" in err


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('[{"name": "x", "kind": "wrong"}]')
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "CONFIG ERROR" in capsys.readouterr().err


def test_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_scan_config("s"))
    main(["run", str(cfg), "--out-dir", str(tmp_path / "a"), "--seed", "99"])
    rows = (tmp_path / "a" / "s.csv").read_text().splitlines()[1]
    assert rows.split(",")[-1] == "99"


def test_main_rejects_negative_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('[{"name": "g", "kind": "gate-sim"}]')
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--seed", "-1"]) == 2
    assert main(["verify", "--out-dir", str(out), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.count("CONFIG ERROR --seed: seed:") == 2
    assert not out.exists()


def test_main_missing_config_is_one_line_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"CONFIG ERROR {missing}: cannot read:")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_partial_artifact_on_runtime_failure(tmp_path, capsys, monkeypatch):
    import dfspulse.cli as cli_mod

    def boom(sc):
        raise RuntimeError("bath dimension blew up")

    monkeypatch.setitem(cli_mod._RUNNERS, "block4-sim", boom)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('[{"name": "boom", "kind": "block4-sim"}]')
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 1
    payload = json.loads((tmp_path / "boom.json").read_text())
    assert payload["partial"] is True
    assert "blew up" in payload["error"]
    assert "ERROR boom" in capsys.readouterr().err
