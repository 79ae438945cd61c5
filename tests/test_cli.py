import json

import pytest

from dfspulse.cli import (
    ConfigError, main, parse_config, report, run_scenario, serialize_config,
)
from dfspulse.verification import CheckResult


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


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_artifacts_are_strict_json(tmp_path, monkeypatch):
    import dfspulse.cli as cli_mod

    # collective storage never decays (T2 and gain unbounded); gamma_damp 0
    # gives t_dec = inf; dt = Infinity is echoed in the scenario block
    text = json.dumps([
        {"name": "st", "kind": "storage-sim", "seed": 7, "parameters": {
            "mode": "collective", "n_traj": 10, "n_cycles": 50, "n_harmonics": 16}},
        {"name": "hw", "kind": "formulas", "parameters": {
            "gamma_damp": 0.0, "dt": float("inf")}},
        {"name": "scan", "kind": "dt-scan", "seed": 3, "parameters": {
            "mode": "collective", "n_traj": 8, "n_harmonics": 16, "t_max": 0.5,
            "expect_monotone": False}},
        {"name": "boom", "kind": "block4-sim", "parameters": {"tau": float("inf")}},
    ])

    def boom(sc):
        raise RuntimeError("bath dimension blew up")

    monkeypatch.setitem(cli_mod._RUNNERS, "block4-sim", boom)
    for sc in parse_config(text):
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
