import numpy as np
import pytest

from dfspulse import gates
from dfspulse.dfs import DfsRegister, code_isometry, encode, logical_operators
from dfspulse.gates import (
    HardwareParams, LeakageError, SmGateSpec, cancellation_constraints,
    dfs_restrict, lamb_dicke_margin, logical_gate, off_resonant_penalty,
    program_unitary, sm_decompose, sm_gate_dense, sm_unitary, tau_sm, u4,
    u4_dfs_target, u4_encoded, x_phi, x_phi_dense,
)
from dfspulse.dfs import basis_operator
from dfspulse.pauli import OperatorSum, SIGMA, expm_i, spectral_norm, to_dense
from dfspulse.sequences import seq_from_text

TWO_PI = 2 * np.pi


def concurrence(psi4):
    a, b, c, d = psi4
    return 2 * abs(a * d - b * c)


def code_block(op_sum):
    v = code_isometry(DfsRegister(((0, 1),), 2))
    return v.conj().T @ to_dense(op_sum) @ v


def test_x_phi_limits():
    assert to_dense(x_phi(0.0)) == pytest.approx(SIGMA["X"])
    np.testing.assert_allclose(to_dense(x_phi(np.pi / 2)), SIGMA["Y"], atol=1e-15)
    np.testing.assert_allclose(to_dense(x_phi(np.pi / 4)),
                               (SIGMA["X"] + SIGMA["Y"]) / np.sqrt(2), atol=1e-15)


def test_x_phi_involutory_and_conjugation_identity():
    rng = np.random.default_rng(0)
    for phi in rng.uniform(-np.pi, np.pi, 20):
        m = x_phi_dense(phi)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-14)
        rz = expm_i(SIGMA["Z"] / 2, phi)
        np.testing.assert_allclose(m, rz @ SIGMA["X"] @ rz.conj().T, atol=1e-14)


def test_sm_unitary_limits():
    np.testing.assert_allclose(sm_unitary(SmGateSpec(0.0, (0.3, 0.7))), np.eye(4),
                               atol=1e-15)
    got = sm_unitary(SmGateSpec(np.pi / 2, (0.0, 0.0)))
    np.testing.assert_allclose(got, 1j * np.kron(SIGMA["X"], SIGMA["X"]), atol=1e-14)
    got = sm_unitary(SmGateSpec(np.pi / 4, (0.0, np.pi / 2)))
    np.testing.assert_allclose(
        got, (np.eye(4) + 1j * np.kron(SIGMA["X"], SIGMA["Y"])) / np.sqrt(2),
        atol=1e-14)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_sm_gate_spec_needs_finite_angle_and_phases(bad):
    for theta, phis in ((bad, (0.0, 0.0)), (0.3, (bad, 0.0)), (0.3, (0.1, 0.2, 0.3, bad))):
        with pytest.raises(ValueError, match="finite"):
            SmGateSpec(theta, phis, tuple(range(len(phis))))
    for text in (f"[SM(theta={bad};phis=0,0;ions=0,1)]", f"[SM(theta=0.3;phis=0,{bad};ions=0,1)]"):
        with pytest.raises(ValueError, match="finite"):
            seq_from_text(text)


@pytest.mark.parametrize("ions", [(0.0, 0.0), (0.5, 1.7), (0, 1.0), (1, 1),
                                  (0, 1, 2, 0), (-1, 0), (0, 1, -2, 3)])
def test_sm_gate_spec_needs_distinct_nonnegative_integer_ions(ions):
    with pytest.raises(ValueError, match="ions"):
        SmGateSpec(0.3, (0.0,) * len(ions), ions)
    text = ",".join(map(str, ions))
    with pytest.raises(ValueError):
        seq_from_text(f"[SM(theta=0.3;phis={','.join(['0'] * len(ions))};ions={text})]")


def test_sm_gate_spec_takes_numpy_integer_ions():
    spec = SmGateSpec(0.3, (0.0, 0.0), tuple(np.arange(2, 4)))
    assert spec.ions == (2, 3) and all(type(q) is int for q in spec.ions)


def test_sm_closed_form_vs_exponential():
    rng = np.random.default_rng(1)
    for _ in range(100):
        th, p1, p2 = rng.uniform(-np.pi, np.pi, 3)
        u = sm_unitary(SmGateSpec(th, (p1, p2)))
        gen = np.kron(x_phi_dense(p1), x_phi_dense(p2))
        np.testing.assert_allclose(u, expm_i(gen, -th), atol=1e-12)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_sm_decompose_recomposition():
    rng = np.random.default_rng(2)
    for _ in range(30):
        spec = SmGateSpec(rng.uniform(-np.pi, np.pi),
                          tuple(rng.uniform(-np.pi, np.pi, 2)))
        co = sm_decompose(spec)
        recon = co["I"] * np.eye(4) + sum(
            co[lab] * to_dense(basis_operator(lab))
            for lab in ("Xbar", "Ybar", "Xtilde", "Ytilde"))
        np.testing.assert_allclose(sm_unitary(spec), recon, atol=1e-13)


def test_sm_decompose_example_values():
    co = sm_decompose(SmGateSpec(np.pi / 2, (0.0, 0.0)))
    assert co["I"] == pytest.approx(0.0, abs=1e-15)
    assert co["Xbar"] == pytest.approx(1j, abs=1e-15)
    assert co["Ybar"] == pytest.approx(0.0, abs=1e-15)
    assert co["Xtilde"] == pytest.approx(1j, abs=1e-15)
    co = sm_decompose(SmGateSpec(0.9, (np.pi / 2, 0.0)))
    assert co["Xbar"] == pytest.approx(0.0, abs=1e-15)


def test_dfs_restrict_form_and_phase_independence():
    rng = np.random.default_rng(3)
    xb, yb, _ = logical_operators((0, 1), 2)
    for _ in range(50):
        th, p1, p2, c = rng.uniform(-np.pi, np.pi, 4)
        spec = SmGateSpec(th, (p1, p2))
        blk = dfs_restrict(sm_unitary(spec), (0, 1))
        d = p1 - p2
        xbar_d = np.cos(d) * code_block(xb) + np.sin(d) * code_block(yb)
        np.testing.assert_allclose(
            blk, np.cos(th) * np.eye(2) + 1j * np.sin(th) * xbar_d, atol=1e-12)
        shifted = dfs_restrict(sm_unitary(SmGateSpec(th, (p1 + c, p2 + c))), (0, 1))
        np.testing.assert_allclose(blk, shifted, atol=1e-12)


def test_dfs_restrict_one_parameter_group():
    rng = np.random.default_rng(4)
    for _ in range(20):
        t1, t2 = rng.uniform(-1.2, 1.2, 2)
        u1 = dfs_restrict(sm_unitary(SmGateSpec(t1, (0.0, 0.0))), (0, 1))
        u2 = dfs_restrict(sm_unitary(SmGateSpec(t2, (0.0, 0.0))), (0, 1))
        u12 = dfs_restrict(sm_unitary(SmGateSpec(t1 + t2, (0.0, 0.0))), (0, 1))
        np.testing.assert_allclose(u1 @ u2, u12, atol=1e-12)


def test_dfs_restrict_rejects_leaky_unitary():
    leaky = expm_i(to_dense(OperatorSum.single(2, 0, "X")), 0.3)
    with pytest.raises(LeakageError) as err:
        dfs_restrict(leaky, (0, 1))
    assert err.value.off_block_norm > 0.1


def test_sm_unitary_is_its_row_of_the_stacked_core():
    rng = np.random.default_rng(41)
    th, p1, p2 = rng.uniform(-2 * np.pi, 2 * np.pi, size=(3, 50))
    stack = gates._sm_stack(th, p1, p2)
    assert stack.shape == (50, 4, 4)
    for k in range(50):
        assert np.array_equal(sm_unitary(SmGateSpec(th[k], (p1[k], p2[k]))), stack[k])


def test_restrict_stack_raises_with_its_leaky_members_norm():
    rng = np.random.default_rng(43)
    v = code_isometry(DfsRegister(((0, 1),), 2))
    leaky = expm_i(to_dense(OperatorSum.single(2, 0, "X")), 0.3)
    stack = gates._sm_stack(*rng.uniform(-np.pi, np.pi, size=(3, 6)))
    np.testing.assert_array_equal(gates._restrict_stack(stack, v),
                                  v.conj().T @ stack @ v)
    stack[4] = leaky
    with pytest.raises(LeakageError) as err:
        gates._restrict_stack(stack, v)
    off = leaky @ v - v @ (v.conj().T @ leaky @ v)
    assert err.value.off_block_norm == np.linalg.norm(off, 2) > 0.1


def test_dfs_restrict_of_one_matrix_is_its_code_block():
    rng = np.random.default_rng(47)
    v = code_isometry(DfsRegister(((0, 1),), 2))
    for th, p1, p2 in rng.uniform(-np.pi, np.pi, size=(20, 3)):
        u = sm_unitary(SmGateSpec(th, (p1, p2)))
        assert np.array_equal(dfs_restrict(u, (0, 1)), v.conj().T @ u @ v)
    spec = SmGateSpec(np.pi / 4, tuple(rng.uniform(-np.pi, np.pi, 4)), (0, 1, 2, 3))
    reg = DfsRegister(((0, 1), (2, 3)), 4)
    v = code_isometry(reg)
    assert np.array_equal(dfs_restrict(u4(spec), reg), v.conj().T @ u4(spec) @ v)


def test_encoded_axis_broadcasts_over_phase_differences():
    xb, yb, _ = (to_dense(op) for op in logical_operators((0, 1), 2))
    dphi = np.random.default_rng(53).uniform(-np.pi, np.pi, 7)
    stack = gates._encoded_axis(dphi, xb, yb)
    assert stack.shape == (7, 4, 4)
    for d, axis in zip(dphi, stack):
        assert np.array_equal(gates._encoded_axis(d, xb, yb), axis)


def test_logical_gate_programs():
    assert len(logical_gate("X", 0.5)) == 1
    assert len(logical_gate("Z", 0.5)) == 3
    xb, yb, zb = logical_operators((0, 1), 2)
    gens = {"X": xb, "Y": yb, "Z": zb}
    for axis in "XYZ":
        for theta in (0.0, np.pi / 3, -1.1):
            u = program_unitary(logical_gate(axis, theta), 2)
            blk = dfs_restrict(u, (0, 1))
            target = expm_i(code_block(gens[axis]), -theta)
            np.testing.assert_allclose(blk, target, atol=1e-10)


def test_u4_closed_form_and_restriction():
    rng = np.random.default_rng(5)
    phis = tuple(rng.uniform(-np.pi, np.pi, 4))
    spec = SmGateSpec(np.pi / 4, phis, (0, 1, 2, 3))
    u = u4(spec)
    m = np.array([[1]], dtype=complex)
    for p in phis:
        m = np.kron(m, x_phi_dense(p))
    np.testing.assert_allclose(u, (np.eye(16) - 1j * m) / np.sqrt(2), atol=1e-13)
    reg = DfsRegister(((0, 1), (2, 3)), 4)
    np.testing.assert_allclose(dfs_restrict(u, reg), u4_dfs_target(spec), atol=1e-12)


def test_u4_entangles_logical_pair():
    spec = SmGateSpec(np.pi / 4, (0.0,) * 4, (0, 1, 2, 3))
    reg = DfsRegister(((0, 1), (2, 3)), 4)
    psi = u4(spec) @ encode([1, 0, 0, 0], reg)
    v = code_isometry(reg)
    logical = v.conj().T @ psi
    assert np.linalg.norm(logical) == pytest.approx(1.0, abs=1e-12)  # no leakage
    assert concurrence(logical) == pytest.approx(1.0, abs=1e-12)


def test_u4_commutation_dichotomy():
    rng = np.random.default_rng(6)
    spec = SmGateSpec(np.pi / 4, (0.2,) * 4, (0, 1, 2, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = (b + b.conj().T) / 2
    b /= spectral_norm(b)
    zsum = to_dense(sum((OperatorSum.single(4, q, "Z") for q in range(4)),
                        OperatorSum.zero(4)))
    zdif = to_dense(OperatorSum.single(4, 0, "Z") - OperatorSum.single(4, 2, "Z"))
    v = np.kron(code_isometry(DfsRegister(((0, 1), (2, 3)), 4)), np.eye(3))

    def comm(g, h):
        gf = np.kron(g, np.eye(3))
        return gf @ h - h @ gf

    # bare product gate: commutator with collective dephasing vanishes on the
    # code space; encoded-generator gate commutes on the whole space
    assert spectral_norm(comm(u4(spec), np.kron(zsum, b)) @ v) < 1e-12
    assert spectral_norm(comm(u4_encoded(spec), np.kron(zsum, b))) < 1e-12
    assert spectral_norm(comm(u4(spec), np.kron(zdif, b)) @ v) > 0.1
    assert spectral_norm(comm(u4_encoded(spec), np.kron(zdif, b))) > 0.1


def test_u4_encoded_matches_bare_on_code_space():
    spec = SmGateSpec(np.pi / 4, (0.1, 0.5, -0.2, 0.9), (0, 1, 2, 3))
    reg = DfsRegister(((0, 1), (2, 3)), 4)
    np.testing.assert_allclose(dfs_restrict(u4(spec), reg),
                               dfs_restrict(u4_encoded(spec), reg), atol=1e-12)


def test_sm_gate_dense_embedding():
    spec = SmGateSpec(0.4, (0.1, 0.2), (1, 2))
    full = sm_gate_dense(spec, 4)
    assert full.shape == (16, 16)
    np.testing.assert_allclose(full @ full.conj().T, np.eye(16), atol=1e-12)


# --- scalar hardware formulas


def test_tau_sm_value_and_scalings():
    p = HardwareParams(eta=0.1, omega_rabi=TWO_PI * 5e6, k_int=1)
    assert tau_sm(p) == pytest.approx(1.0e-6, rel=1e-12)
    p4 = HardwareParams(eta=0.1, omega_rabi=TWO_PI * 5e6, k_int=4)
    assert tau_sm(p4) == pytest.approx(2 * tau_sm(p), rel=1e-12)
    p2 = HardwareParams(eta=0.2, omega_rabi=TWO_PI * 5e6, k_int=1)
    assert tau_sm(p2) == pytest.approx(tau_sm(p) / 2, rel=1e-12)


def test_lamb_dicke_margin():
    ld = lamb_dicke_margin(HardwareParams(eta=0.1, n_mean=0.0))
    assert ld.product == pytest.approx(0.01)
    assert ld.infidelity_scale == pytest.approx(1e-4)
    ld = lamb_dicke_margin(HardwareParams(eta=0.3, n_mean=9.0))
    assert ld.product == pytest.approx(0.9)


def test_off_resonant_penalty():
    p = HardwareParams(omega_rabi=1.0, detuning=10.0, n_ions=2)
    assert off_resonant_penalty(p) == pytest.approx(0.01)
    p = HardwareParams(omega_rabi=1.0, detuning=10.0, n_ions=4)
    assert off_resonant_penalty(p) == pytest.approx(0.02)
    with pytest.warns(UserWarning):
        off_resonant_penalty(HardwareParams(omega_rabi=1.0, detuning=1.0))
    with pytest.raises(ValueError):
        off_resonant_penalty(HardwareParams(detuning=0.0))


def test_cancellation_constraints_always_incompatible():
    p = HardwareParams(eta=0.1, omega_rabi=1e6, k_int=1)
    for m in (1, 2, 5):
        con = cancellation_constraints(m, p)
        assert con.eta_required == pytest.approx(m)
        assert con.delta_required == pytest.approx(m * 1e6)
        assert not con.lamb_dicke_compatible
    con = cancellation_constraints(2, HardwareParams(k_int=1), k_prime=3)
    assert con.delta_required == pytest.approx(6 * HardwareParams().omega_rabi)
    with pytest.raises(ValueError):
        cancellation_constraints(0, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_dfs_restrict_rejects_a_non_finite_unitary(bad):
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        dfs_restrict(u, (0, 1))


@pytest.mark.parametrize("field, value", [
    ("eta", "0.1"), ("omega_rabi", None), ("detuning", [1.0]), ("n_mean", True),
    ("eta", 1j), ("k_int", 2.5), ("k_int", "1"), ("k_int", True), ("n_ions", 2.0),
    ("n_ions", None),
])
def test_hardware_params_take_numbers_of_their_type(field, value):
    with pytest.raises(ValueError, match=field):
        HardwareParams(**{field: value})


def test_hardware_params_store_floats_and_integers():
    p = HardwareParams(eta=np.float32(0.5), omega_rabi=3, k_int=np.int64(2), n_ions=4)
    assert (type(p.eta), type(p.omega_rabi), type(p.k_int), type(p.n_ions)) == (
        float, float, int, int)
    assert tau_sm(p) == np.pi * np.sqrt(2) / (0.5 * 3)


@pytest.mark.parametrize("theta, phis", [
    ("0.5", (0.0, 1.0)), (0.5, ("0", "1")), (True, (0.0, 1.0)), (0.5, (0.0, False)),
    (np.bool_(True), (0.0, 1.0)), (0.5j, (0.0, 1.0)), (None, (0.0, 1.0)),
    pytest.param(10 ** 400, (0.0, 1.0), id="int-beyond-float"),
])
def test_sm_gate_spec_takes_only_real_angles(theta, phis):
    with pytest.raises(ValueError, match="gate angle and phases"):
        SmGateSpec(theta, phis)


def test_sm_gate_spec_rejects_bool_ions():
    with pytest.raises(ValueError, match="gate ions"):
        SmGateSpec(0.5, (0.0, 1.0), (True, 2))
    spec = SmGateSpec(1, (np.float64(0.25), np.int64(1)), (np.int64(2), 3))
    assert spec.theta == 1.0 and spec.phis == (0.25, 1.0) and spec.ions == (2, 3)
