"""The stacked sampled checks against the per-sample loops they replace."""
import numpy as np
import pytest

from dfspulse import dfs, gates, pauli, sequences, verification
from dfspulse.baths import DephasingBath, bch_bound
from dfspulse.pauli import OperatorSum, expm_i, generator_of, to_dense


def test_sm_closed_form_check_matches_its_loop_reference():
    rng = np.random.default_rng(11)
    worst_exp = worst_blk = worst_shift = 0.0
    xb, yb, _ = (to_dense(op) for op in dfs.logical_operators((0, 1), 2))
    v = dfs.code_isometry(dfs.DfsRegister(((0, 1),), 2))
    for _ in range(100):
        th, p1, p2, c = rng.uniform(-np.pi, np.pi, size=4)
        u = gates.sm_unitary(gates.SmGateSpec(th, (p1, p2)))
        gen = np.kron(gates.x_phi_dense(p1), gates.x_phi_dense(p2))
        worst_exp = max(worst_exp, np.abs(u - expm_i(gen, -th)).max())
        blk = gates.dfs_restrict(u, (0, 1))
        xbar_d = v.conj().T @ gates._encoded_axis(p1 - p2, xb, yb) @ v
        target = np.cos(th) * np.eye(2) + 1j * np.sin(th) * xbar_d
        worst_blk = max(worst_blk, np.abs(blk - target).max())
        shifted = gates.dfs_restrict(gates.sm_unitary(
            gates.SmGateSpec(th, (p1 + c, p2 + c))), (0, 1))
        worst_shift = max(worst_shift, np.abs(blk - shifted).max())
    measured = {c.name: c.measured for c in verification.check_sm_closed_form()}
    # the gates and their blocks are the same arithmetic, entry for entry
    assert measured["sm_dfs_block_form"] == worst_blk
    assert measured["sm_common_phase_invariance"] == worst_shift
    # the stacked exponential scales each generator by its angle before the
    # eigendecomposition, so its error moves by rounding only
    eps = np.finfo(float).eps
    assert abs(measured["sm_closed_form_vs_expm"] - worst_exp) <= 8 * eps


def test_pauli_products_check_matches_its_loop_reference():
    terms = [pauli.PauliTerm.from_label(a + b) for a in "IXYZ" for b in "IXYZ"]
    mats = [to_dense(OperatorSum(2, (t,))) for t in terms]
    worst, xor_ok = 0.0, True
    for ta, ma in zip(terms, mats):
        for tb, mb in zip(terms, mats):
            ab, ba = ma @ mb, mb @ ma
            prod = to_dense(OperatorSum(2, (pauli.pauli_mul(ta, tb),)))
            worst = max(worst, np.abs(prod - ab).max())
            resid = ab - ba if pauli.commutes(ta, tb) else ab + ba
            xor_ok = xor_ok and np.abs(resid).max() <= verification._PAULI_TOL
    oracle, xor = verification.check_pauli_products()
    assert oracle.measured == worst == 0.0
    assert xor.passed and xor_ok


def test_symmetrization_check_matches_its_loop_reference():
    rng = np.random.default_rng(13)
    zsum = to_dense(OperatorSum.single(2, 0, "Z") + OperatorSum.single(2, 1, "Z"))
    worst = 0.0
    for _ in range(20):
        b1, b2 = verification._rand_herm(rng, 4), verification._rand_herm(rng, 4)
        tau = rng.uniform(0.05, 0.4)
        bath = DephasingBath(b1 * tau, b2 * tau)
        u = sequences.propagator(sequences.symmetrize_pair(1.0),
                                 sequences.EvolutionModel(2, 4, bath.hamiltonian()))
        worst = max(worst, np.abs(u - expm_i(np.kron(zsum, bath.b_col), 2.0)).max())
    [check] = verification.check_symmetrization()
    # every block of the one pass is the loop's block, entry for entry
    assert check.measured == worst
    assert check.passed


def test_bch_check_matches_its_loop_reference(monkeypatch):
    rng = np.random.default_rng(29)
    xb, _, _ = (to_dense(op) for op in dfs.logical_operators((0, 1), 2))
    h_s = np.kron(xb + to_dense(dfs.basis_operator("Xtilde")), np.eye(2))
    h_sb = np.kron(to_dense(dfs.basis_operator("ZY")), verification._rand_herm(rng, 2)) * 0.2
    h_b = np.kron(np.eye(4), verification._rand_herm(rng, 2)) * 0.3
    h = h_s + h_sb + h_b
    pi = np.kron(sequences.named_pulse("PI"), np.eye(2))
    norms, ok = [], True
    for t in (0.2, 0.1, 0.05):
        u = expm_i(h, t) @ pi @ expm_i(h, t) @ pi
        norms.append(pauli.spectral_norm(u - expm_i(h_s + h_b, 2 * t)))
        ok = ok and norms[-1] <= verification._BCH_FACTOR * bch_bound(h_s, h_sb, h_b, t)["bound"]
    # the check takes the three residual norms in one stacked svd
    svd, stacked = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if np.shape(a) == (3, 8, 8):
            stacked.append(out[:, 0])
        return out

    monkeypatch.setattr(np.linalg, "svd", spy)
    [check] = verification.check_bch()
    [measured] = stacked
    # the stacked exponentials scale each generator by its time before the
    # eigendecomposition, so the norms move by rounding only, absolute since
    # each residual is a difference of unitaries: 3 eps when measured
    np.testing.assert_allclose(measured, norms, rtol=0, atol=8 * np.finfo(float).eps)
    assert check.passed == ok and check.measured == float(ok)


def test_generator_roundtrip_check_matches_its_loop_reference():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        h = verification._rand_herm(rng, 6)
        t = rng.uniform(0.05, 2.5) / max(1.0, pauli.spectral_norm(h))
        worst = max(worst, np.abs(generator_of(expm_i(h, t), t) - h).max())
    [check] = verification.check_generator_roundtrip()
    assert max(check.measured, worst) < verification._ROUNDTRIP_TOL
    # scaling each generator by its t before the exponential and the log
    # moves the worst error by rounding only: 4 eps when measured
    # (5.551e-15 against 4.663e-15), held to twice that
    assert abs(check.measured - worst) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("suite, counts", [
    ("generator", (1, 1, 0)),
    ("bch", (1, 0, 0)),
    ("symmetrization", (1, 0, 1)),
])
def test_stacked_checks_make_a_fixed_number_of_kernel_calls(suite, counts, monkeypatch):
    calls = {}

    def counted(module, name):
        kernel = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def banned(*args, **kwargs):
        raise AssertionError("a per-sample kernel was called")

    for module, name in ((pauli, "_expm_blocks"), (pauli, "_log_blocks"),
                         (sequences, "_propagator_blocks")):
        counted(module, name)
    # the wrappers that each sample took one at a time; `baths.bch_bound`
    # keeps its own norms, of the three fixed Hamiltonians, as the bound under test
    for module, name in ((pauli, "expm_i"), (pauli, "generator_of"),
                         (pauli, "spectral_norm"), (sequences, "propagator")):
        monkeypatch.setattr(module, name, banned)
        monkeypatch.setattr(verification, name, banned, raising=False)
    checks = verification.SUITES[suite]()
    assert all(c.passed for c in checks)
    assert tuple(calls.get(name, 0) for name in
                 ("_expm_blocks", "_log_blocks", "_propagator_blocks")) == counts
