"""The stacked sampled checks against the per-sample loops they replace."""
import numpy as np

from dfspulse import dfs, gates, pauli, verification
from dfspulse.pauli import OperatorSum, expm_i, to_dense


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
