import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dfspulse.pauli as pauli_mod
from dfspulse.baths import DephasingBath
from dfspulse.dfs import (
    DfsRegister, _block_residual, basis_operator, block_collective_residual, bucket_norms,
    code_isometry, logical_operators,
)
from dfspulse.gates import SmGateSpec, dfs_restrict
from dfspulse.pauli import (
    NonUnitaryError, OperatorSum, SIGMA, _blocks, _dense, _expm_blocks, _gather, _log_blocks,
    _norm_blocks, expm_i, generator_of, spectral_norm, to_dense,
)
from dfspulse.sequences import (
    PULSE_LABELS, Drive, EvolutionModel, Free, NamedPulse, PulseSequence,
    RawPulse, SerializationError, SmPulse, combined_gate, euler_angles_xyx,
    euler_rotation, four_pulse_cycle, leak_elim_cycle,
    _drive_hamiltonian, _event_action, _propagator_blocks, _pulse_unitary, named_pulse,
    parity_kick, propagator, seq_from_text, seq_to_text, symmetrize_block4, symmetrize_pair,
    ten_pulse_cycle,
)


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def _lift(model, sys_mat):
    """A system operator extended by the bath identity, the last factor."""
    return np.kron(np.asarray(sys_mat, dtype=complex), np.eye(model.bath_dim, dtype=complex))


def event_unitary(event, model):
    """Dense propagator of a single event under the model, from its dense
    Hamiltonian or pulse matrix: the reference `propagator` is held against."""
    if isinstance(event, (Free, Drive)):
        h = model.h_static
        if isinstance(event, Drive):
            h = h + event.amplitude * to_dense(event.h_sys, model.bath_dim)
        return expm_i(h, event.tau)
    return _lift(model, _pulse_unitary(event, model.width))


def code_block(mat2q):
    v = code_isometry(DfsRegister(((0, 1),), 2))
    return v.conj().T @ mat2q @ v


# --- named pulses


def test_named_pulse_identities():
    p = named_pulse("P")
    q = named_pulse("Q")
    pi = named_pulse("PI")
    lam = named_pulse("LAM")
    np.testing.assert_allclose(pi, to_dense(OperatorSum.from_label("ZZ")), atol=1e-12)
    np.testing.assert_allclose(p @ p, pi, atol=1e-12)
    np.testing.assert_allclose(q @ q, lam, atol=1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(p, 4), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(named_pulse("PDAG"), p.conj().T, atol=1e-14)


# label -> (generator, t) with named_pulse(label) = exp(-i t G)
_EXPONENTS = {"P": ("Xbar", np.pi / 2), "PDAG": ("Xbar", -np.pi / 2),
              "PI": ("Xbar", np.pi), "Q": ("Ybar", np.pi / 2),
              "QDAG": ("Ybar", -np.pi / 2), "LAM": ("Ybar", np.pi)}


@pytest.mark.parametrize("width", [2, 4])
def test_named_pulses_are_exact_monomials(width):
    assert set(_EXPONENTS) == set(PULSE_LABELS)
    for label, (which, t) in _EXPONENTS.items():
        for pair in itertools.permutations(range(width), 2):
            m = named_pulse(label, pair, width)
            assert (np.count_nonzero(m, axis=0) == 1).all()
            assert (np.count_nonzero(m, axis=1) == 1).all()
            assert (np.abs(m[m != 0]) == 1).all()
            xb, yb, _ = logical_operators(pair, width)
            g = to_dense(xb if which == "Xbar" else yb)
            np.testing.assert_allclose(m, expm_i(g, t), rtol=0, atol=1e-15)


def _block4_cycle_blocks(d):
    # the block4-sim Hamiltonian: sum_q Z_q (x) B_q is 16 bath blocks of
    # d^4, and exact monomial pulses only permute them
    model, _ = _block4_model(np.random.default_rng(5), d)
    u = propagator(symmetrize_block4(0.3, 4), model)
    return [idx.shape for idx in _blocks(u)]


def test_block4_cycle_propagator_is_sixteen_blocks():
    assert _block4_cycle_blocks(2) == [(16, 16)]


def test_block4_cycle_propagator_is_sixteen_blocks_at_d3():
    assert _block4_cycle_blocks(3) == [(16, 81)]


def test_pdag_q_is_encoded_z_but_not_an_sm_gate():
    pdq = named_pulse("PDAG") @ named_pulse("Q")
    _, _, zb = logical_operators((0, 1), 2)
    np.testing.assert_allclose(code_block(pdq), 1j * code_block(to_dense(zb)),
                               atol=1e-12)
    # a single gate cos(t) I + i sin(t) Xbar_d has equal diagonal entries on
    # the code space; PDAG Q does not
    blk = code_block(pdq)
    assert abs(blk[0, 0] - blk[1, 1]) > 0.5


# --- parity kick


def test_parity_kick_identity_pulse():
    rng = np.random.default_rng(0)
    b = rand_herm(rng, 3)
    h = np.kron(SIGMA["Z"], b)
    model = EvolutionModel(1, 3, h)
    seq = parity_kick(np.eye(2), 0.4)
    np.testing.assert_allclose(propagator(seq, model), expm_i(h, 0.8), atol=1e-12)


def test_parity_kick_cancels_anticommuting_term():
    rng = np.random.default_rng(1)
    b = rand_herm(rng, 3)
    h = np.kron(SIGMA["Z"], b)
    model = EvolutionModel(1, 3, h)
    seq = parity_kick(SIGMA["X"], 0.4)
    np.testing.assert_allclose(propagator(seq, model), np.eye(6), atol=1e-12)


def test_parity_kick_keeps_commuting_term():
    rng = np.random.default_rng(2)
    b = rand_herm(rng, 3)
    h = np.kron(SIGMA["X"], b)
    model = EvolutionModel(1, 3, h)
    seq = parity_kick(SIGMA["X"], 0.4)
    np.testing.assert_allclose(propagator(seq, model), expm_i(h, 0.8), atol=1e-12)


def test_parity_kick_rejects_nonunitary():
    with pytest.raises(Exception):
        parity_kick(np.array([[1, 0], [0, 2]], dtype=complex), 0.1)


# --- pair symmetrization


def test_symmetrize_pair_exact_closed_form():
    rng = np.random.default_rng(3)
    zsum = to_dense(OperatorSum.single(2, 0, "Z") + OperatorSum.single(2, 1, "Z"))
    for _ in range(100):
        bath = DephasingBath(rand_herm(rng, 4), rand_herm(rng, 4))
        tau = rng.uniform(0.02, 0.5)
        model = EvolutionModel(2, 4, bath.hamiltonian())
        u = propagator(symmetrize_pair(tau), model)
        closed = expm_i(np.kron(zsum, bath.b_col), 2 * tau)
        assert np.abs(u - closed).max() < 1e-10


def test_symmetrize_pair_collective_only_is_free_evolution():
    rng = np.random.default_rng(4)
    b = rand_herm(rng, 3)
    bath = DephasingBath(b, b)  # b1 = b2: no differential coupling
    model = EvolutionModel(2, 3, bath.hamiltonian())
    zsum = to_dense(OperatorSum.single(2, 0, "Z") + OperatorSum.single(2, 1, "Z"))
    u = propagator(symmetrize_pair(0.3), model)
    np.testing.assert_allclose(u, expm_i(np.kron(zsum, b), 0.6), atol=1e-12)


def test_symmetrize_cycle_generator_is_collective_coupling():
    # generator_of on the cycle propagator recovers ZSum (x) B_col
    rng = np.random.default_rng(44)
    bath = DephasingBath(rand_herm(rng, 3), rand_herm(rng, 3))
    model = EvolutionModel(2, 3, bath.hamiltonian())
    tau = 0.05
    g = generator_of(propagator(symmetrize_pair(tau), model), 2 * tau)
    zsum = to_dense(OperatorSum.single(2, 0, "Z") + OperatorSum.single(2, 1, "Z"))
    np.testing.assert_allclose(g, np.kron(zsum, bath.b_col), atol=1e-9)


def _cycle_bucket_actions(seq_fn, h, bath_dim, taus):
    """Per-cycle bucket action |bucket(log U)| = |bucket(H_eff)| * T for each tau."""
    out = []
    for tau in taus:
        seq = seq_fn(tau)
        model = EvolutionModel(2, bath_dim, h)
        g = generator_of(propagator(seq, model), seq.cycle_time)
        norms = bucket_norms(g, bath_dim)
        out.append({k: v * seq.cycle_time for k, v in norms.items()})
    return out


def test_symmetrize_pair_first_order_suppression():
    # H_B does not commute with the flipped couplings: generator buckets are
    # O(tau), per-cycle actions O(tau^2)
    rng = np.random.default_rng(5)
    b = 3
    h = (np.kron(to_dense(basis_operator("Zbar")), rand_herm(rng, b))
         + np.kron(to_dense(basis_operator("Ybar")), rand_herm(rng, b))
         + np.kron(to_dense(basis_operator("Zsum")), rand_herm(rng, b))
         + np.kron(np.eye(4), rand_herm(rng, b)))
    taus = (0.04, 0.02, 0.01)
    acts = _cycle_bucket_actions(symmetrize_pair, h, b, taus)
    for key in ("Zbar", "Ybar"):
        s1 = np.log2(acts[0][key] / acts[1][key])
        s2 = np.log2(acts[1][key] / acts[2][key])
        assert abs(s1 - 2.0) < 0.3 and abs(s2 - 2.0) < 0.3


def test_symmetrize_pair_spec_example_config_is_exact():
    # B_col = sx, B_dif = sz, H_B = om*sz: the flipped coupling commutes with
    # H_B, which makes the cancellation exact rather than merely first order
    om = 1.0
    h = (np.kron(to_dense(basis_operator("Zsum")), SIGMA["X"]) * 2
         + np.kron(to_dense(basis_operator("Zbar")), SIGMA["Z"]) * 2
         + np.kron(np.eye(4), om * SIGMA["Z"]))
    for tau in (0.1, 0.05):
        seq = symmetrize_pair(tau)
        g = generator_of(propagator(seq, EvolutionModel(2, 2, h)), 2 * tau)
        assert bucket_norms(g, 2)["Zbar"] < 1e-12


# --- block of four


def _block4_baths(rng, factor_dim):
    # a random factor for each ion, and each embedded into the joint bath
    baths = [rand_herm(rng, factor_dim) for _ in range(4)]
    embedded = []
    for q, b in enumerate(baths):
        mats = [np.eye(factor_dim, dtype=complex)] * 4
        mats[q] = b
        out = np.array([[1]], dtype=complex)
        for m in mats:
            out = np.kron(out, m)
        embedded.append(out)
    return baths, embedded


def _diagonal_blocks(embedded):
    # the [(idx, stack)] blocks of sum_q Z_q (x) embedded[q]: the sum is
    # diagonal in the ions' states, so state s has the one block
    # sum_q z_q(s) embedded[q], z_q(s) = +-1 from bit 3 - q of s
    bdim = len(embedded[0])
    z = 1 - 2 * (np.arange(16)[:, None] >> np.arange(3, -1, -1) & 1)
    stack = np.zeros((16, bdim, bdim), dtype=complex)
    for s in range(16):
        for q in range(4):
            stack[s] += z[s, q] * embedded[q]
    return [(np.arange(16 * bdim).reshape(16, bdim), stack)]


def _block4_model(rng, factor_dim=2):
    bdim = factor_dim ** 4
    h = np.zeros((16 * bdim, 16 * bdim), dtype=complex)
    baths, embedded = _block4_baths(rng, factor_dim)
    for q in range(4):
        h += np.kron(to_dense(OperatorSum.single(4, q, "Z")), embedded[q])
    return EvolutionModel(4, bdim, h), baths


def test_block4_sequence_structure():
    seq = symmetrize_block4(0.1, 8)
    assert seq.cycle_time == pytest.approx(0.4)
    pulse_events = [e for e in seq.events if isinstance(e, NamedPulse)]
    assert len(pulse_events) == 6
    # every pulse acts within one 4-ion block
    for e in pulse_events:
        for _, (i, j) in e.ops:
            assert i // 4 == j // 4
    with pytest.raises(ValueError):
        symmetrize_block4(0.1, 6)


def test_block4_exact_with_independent_baths():
    from dfspulse.dfs import block_collective_residual
    rng = np.random.default_rng(6)
    model, baths = _block4_model(rng)
    tau = 0.05
    u = propagator(symmetrize_block4(tau, 4), model)
    g = generator_of(u, 4 * tau)
    resid = block_collective_residual(g, 4, model.bath_dim, ((0, 1, 2, 3),))
    assert resid < 1e-10
    # closed form: exp(-i 4 tau ZSum (x) mean(B))
    zsum = to_dense(sum((OperatorSum.single(4, q, "Z") for q in range(4)),
                        OperatorSum.zero(4)))
    bpp = sum(np.kron(np.kron(np.eye(2 ** k), b), np.eye(2 ** (3 - k)))
              for k, b in enumerate(baths)) / 4
    np.testing.assert_allclose(u, expm_i(np.kron(zsum, bpp), 4 * tau), atol=1e-10)


def test_block4_collective_input_acts_trivially():
    # all couplings equal: already block-collective, cycle = free evolution
    rng = np.random.default_rng(7)
    b = rand_herm(rng, 2)
    zsum = to_dense(sum((OperatorSum.single(4, q, "Z") for q in range(4)),
                        OperatorSum.zero(4)))
    model = EvolutionModel(4, 2, np.kron(zsum, b))
    tau = 0.07
    u = propagator(symmetrize_block4(tau, 4), model)
    np.testing.assert_allclose(u, expm_i(np.kron(zsum, b), 4 * tau), atol=1e-11)


def test_block4_scalar_baths_two_blocks():
    # N=8 with classical (scalar) couplings: effective generator is the
    # per-block average, block-diagonal over the two 4-ion groups
    rng = np.random.default_rng(8)
    cs = rng.normal(size=8)
    h = sum(c * to_dense(OperatorSum.single(8, q, "Z")) for q, c in enumerate(cs))
    model = EvolutionModel(8, 1, h)
    tau = 0.04
    u = propagator(symmetrize_block4(tau, 8), model)
    target = np.zeros((256, 256), dtype=complex)
    for blk in ((0, 1, 2, 3), (4, 5, 6, 7)):
        mean = np.mean([cs[q] for q in blk])
        target += mean * to_dense(sum((OperatorSum.single(8, q, "Z") for q in blk),
                                      OperatorSum.zero(8)))
    np.testing.assert_allclose(u, expm_i(target, 4 * tau), atol=1e-10)


# --- leakage elimination


def test_leak_elim_cancels_motional_error():
    rng = np.random.default_rng(9)
    b = rand_herm(rng, 4)
    ysum = to_dense(OperatorSum.single(2, 0, "Y") + OperatorSum.single(2, 1, "Y"))
    model = EvolutionModel(2, 4, np.kron(ysum, b))
    u = propagator(leak_elim_cycle(0.3), model)
    np.testing.assert_allclose(u, np.eye(16), atol=1e-10)


def test_leak_elim_keeps_logical_errors():
    rng = np.random.default_rng(10)
    b = rand_herm(rng, 3)
    h = np.kron(to_dense(basis_operator("Xbar")), b)
    model = EvolutionModel(2, 3, h)
    u = propagator(leak_elim_cycle(0.3), model)
    np.testing.assert_allclose(u, expm_i(h, 0.6), atol=1e-11)


def test_leak_elim_trivial():
    model = EvolutionModel(2, 1)
    u = propagator(leak_elim_cycle(0.3), model)
    np.testing.assert_allclose(u, np.eye(4), atol=1e-12)


def test_leak_elim_first_order_suppression():
    # leakage couplings that do not commute with H_B: the leakage part of the
    # generator is O(tau), so the per-cycle leakage action shrinks as tau^2
    rng = np.random.default_rng(11)
    b = 3
    ysum = to_dense(OperatorSum.single(2, 0, "Y") + OperatorSum.single(2, 1, "Y"))
    xsum = to_dense(OperatorSum.single(2, 0, "X") + OperatorSum.single(2, 1, "X"))
    h = (np.kron(ysum, rand_herm(rng, b)) + np.kron(xsum, rand_herm(rng, b))
         + np.kron(np.eye(4), rand_herm(rng, b)))
    acts = _cycle_bucket_actions(leak_elim_cycle, h, b, (0.04, 0.02, 0.01))
    s1 = np.log2(acts[0]["Leak"] / acts[1]["Leak"])
    s2 = np.log2(acts[1]["Leak"] / acts[2]["Leak"])
    assert abs(s1 - 2.0) < 0.3 and abs(s2 - 2.0) < 0.3


# --- 4- and 10-pulse cycles


def test_four_pulse_compression_identity():
    p = named_pulse("P")
    pi = named_pulse("PI")
    np.testing.assert_allclose(pi @ p.conj().T, p, atol=1e-12)
    np.testing.assert_allclose(pi @ p, p.conj().T, atol=1e-12)


def test_four_pulse_keeps_xbar_exactly():
    rng = np.random.default_rng(12)
    b = rand_herm(rng, 3)
    h = np.kron(to_dense(basis_operator("Xbar")), b)
    model = EvolutionModel(2, 3, h)
    tau = 0.2
    u = propagator(four_pulse_cycle(tau), model)
    np.testing.assert_allclose(u, expm_i(h, 4 * tau), atol=1e-11)


def test_four_pulse_first_order_survivors():
    rng = np.random.default_rng(13)
    b = 3
    dd = lambda: np.diag(rng.normal(size=b)).astype(complex)
    h = (np.kron(to_dense(OperatorSum.single(2, 0, "Y")
                          + OperatorSum.single(2, 1, "Y")), dd())
         + np.kron(to_dense(basis_operator("Ybar")), dd())
         + np.kron(to_dense(basis_operator("Zbar")), dd())
         + np.kron(to_dense(basis_operator("ZZ")), rand_herm(rng, b))
         + np.kron(np.eye(4), dd()))
    taus = (0.04, 0.02, 0.01)
    acts = _cycle_bucket_actions(four_pulse_cycle, h, b, taus)
    for key in ("Leak", "Ybar", "Zbar"):
        s = np.log2(acts[0][key] / acts[2][key]) / 2
        assert abs(s - 2.0) < 0.3, (key, s)


def test_four_pulse_retains_dfs_and_xbar_in_mixed_config():
    # as tau -> 0 the effective generator converges to the DFS + Xbar content
    rng = np.random.default_rng(21)
    b = 3
    bx = rand_herm(rng, b)
    h = (np.kron(to_dense(basis_operator("Xbar")), bx)
         + np.kron(to_dense(basis_operator("Zbar")), rand_herm(rng, b))
         + np.kron(to_dense(OperatorSum.single(2, 0, "Y")
                            + OperatorSum.single(2, 1, "Y")), rand_herm(rng, b)))
    model = EvolutionModel(2, b, h)
    tau = 2e-3
    g = generator_of(propagator(four_pulse_cycle(tau), model), 4 * tau)
    norms = bucket_norms(g, b)
    target = spectral_norm(np.kron(to_dense(basis_operator("Xbar")), bx))
    assert norms["Xbar"] == pytest.approx(target, rel=1e-2)
    assert norms["Zbar"] < 0.05 * target and norms["Leak"] < 0.05 * target


def test_ten_pulse_structure_and_first_order():
    seq = ten_pulse_cycle(0.1)
    assert seq.pulse_count() == 10
    assert seq.cycle_time == pytest.approx(0.8)
    rng = np.random.default_rng(14)
    b = 3
    dd = lambda: np.diag(rng.normal(size=b)).astype(complex)
    h = (np.kron(to_dense(OperatorSum.single(2, 0, "Y")
                          + OperatorSum.single(2, 1, "Y")), dd())
         + np.kron(to_dense(basis_operator("Ybar")), dd())
         + np.kron(to_dense(basis_operator("ZZ")), rand_herm(rng, b))
         + np.kron(np.eye(4), dd()))
    taus = (0.04, 0.02, 0.01)
    acts = _cycle_bucket_actions(lambda t: ten_pulse_cycle(t), h, b, taus)
    for key in ("Leak", "Ybar", "Xbar", "Zbar"):
        floor = max(acts[2][key], 1e-13)
        s = np.log2(acts[0][key] / floor) / 2 if acts[0][key] > 1e-12 else np.inf
        assert s > 1.7, (key, s, acts)


# --- combined gates and Euler synthesis


def test_combined_gate_bath_off_rotation():
    model = EvolutionModel(2, 1)
    xb, yb, _ = logical_operators((0, 1), 2)
    for axis, gen in (("X", xb), ("Y", yb)):
        for theta in (0.3, 1.2):
            seq = combined_gate(axis, theta / 2.0, 2.0)
            u = propagator(seq, model)
            blk = dfs_restrict(u, (0, 1))
            target = expm_i(code_block(to_dense(gen)), theta)
            np.testing.assert_allclose(blk, target, atol=1e-10)


@pytest.mark.parametrize("pair", [(0, 2), (1, 1)])
def test_combined_gate_rejects_a_pair_outside_the_register(pair):
    with pytest.raises(ValueError, match="not two distinct sites"):
        combined_gate("X", 1.0, 1.0, pair=pair, width=2)


def test_combined_gate_pulses_commute_with_drive():
    for axis, labels in (("X", ("P", "PI")), ("Y", ("Q", "LAM"))):
        seq = combined_gate(axis, 1.0, 1.0)
        drive = next(e for e in seq.events if isinstance(e, Drive))
        hmat = to_dense(drive.h_sys)
        for lab in labels:
            pm = named_pulse(lab)
            assert np.abs(pm @ hmat - hmat @ pm).max() < 1e-12


def test_combined_gate_cancels_leakage():
    rng = np.random.default_rng(15)
    b = rand_herm(rng, 2)
    b /= spectral_norm(b)
    ysum2 = to_dense((OperatorSum.single(2, 0, "Y") + OperatorSum.single(2, 1, "Y"))
                     * 0.5)
    gamma, omega, theta = 0.01, 1.0, np.pi / 3
    t = theta / omega
    model = EvolutionModel(2, 2, gamma * np.kron(ysum2, b))
    u = propagator(combined_gate("X", t, omega), model)
    v = np.kron(code_isometry(DfsRegister(((0, 1),), 2)), np.eye(2))
    blk = v.conj().T @ u @ v
    xb, _, _ = logical_operators((0, 1), 2)
    target = np.kron(expm_i(code_block(to_dense(xb)), theta), np.eye(2))
    fid = abs(np.trace(target.conj().T @ blk)) / 4
    assert 1 - fid <= 10 * (gamma * t) ** 2


def test_combined_gate_y_error_survives():
    rng = np.random.default_rng(16)
    b = rand_herm(rng, 2)
    h = 0.2 * np.kron(to_dense(basis_operator("Ybar")), b)
    model = EvolutionModel(2, 2, h)
    t = 0.8
    seq = combined_gate("Y", t, 1.0)
    u = propagator(seq, model)
    # pulses commute with the Ybar coupling, so it adds to the drive exactly
    drive = next(e for e in seq.events if isinstance(e, Drive))
    hd = np.kron(to_dense(drive.h_sys), np.eye(2))
    np.testing.assert_allclose(u, expm_i(hd + h, t), atol=1e-10)


def test_combined_gate_rejects_z():
    with pytest.raises(ValueError):
        combined_gate("Z", 1.0, 1.0)


def test_euler_rotation_pulse_counts():
    assert euler_rotation(0.0, 0.0, 0.0, 1.0).pulse_count() == 0
    assert euler_rotation(np.pi / 2, np.pi / 2, 0.0, 1.0).pulse_count() == 16
    assert euler_rotation(0.5, 0.6, 0.7, 1.0).pulse_count() == 24


def test_euler_rotation_hits_random_targets():
    rng = np.random.default_rng(17)
    model = EvolutionModel(2, 1)
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(m)
        target = q / np.sqrt(np.linalg.det(q))
        alpha, beta, gamma = euler_angles_xyx(target)
        seq = euler_rotation(alpha, beta, gamma, 1.0)
        assert seq.pulse_count() <= 24
        blk = dfs_restrict(propagator(seq, model), (0, 1))
        phase = np.trace(target.conj().T @ blk)
        phase /= abs(phase)
        assert np.abs(blk - phase * target).max() < 1e-8


@pytest.mark.parametrize("target", [np.diag([1, -1]), np.diag([1j, -1j])])
def test_euler_angles_of_a_target_off_diagonal_after_the_axis_swap(target):
    # H target H has a zero diagonal: the extraction's last branch
    alpha, beta, gamma = euler_angles_xyx(target)

    def gx(a):
        return np.cos(a) * SIGMA["I"] - 1j * np.sin(a) * SIGMA["X"]

    rebuilt = gx(alpha) @ (np.cos(beta) * SIGMA["I"] + 1j * np.sin(beta) * SIGMA["Y"]) @ gx(gamma)
    phase = np.trace(target.conj().T @ rebuilt) / 2
    assert abs(abs(phase) - 1) < 1e-12
    assert np.abs(rebuilt - phase * target).max() < 1e-12


def test_sequence_product_concatenates_the_events():
    a, b = symmetrize_pair(0.1), four_pulse_cycle(0.2)
    assert (a * b).events == a.events + b.events
    assert (a * b).cycle_time == pytest.approx(a.cycle_time + b.cycle_time)
    assert (a * PulseSequence(())).events == a.events


# --- serialization


def test_text_roundtrip_named_and_drive():
    for seq in (symmetrize_pair(1e-7), four_pulse_cycle(2e-6),
                ten_pulse_cycle(5e-7), symmetrize_block4(1e-6, 8),
                combined_gate("Y", 0.5, 2.0)):
        txt = seq_to_text(seq)
        back = seq_from_text(txt)
        assert seq_to_text(back) == txt
        assert back.cycle_time == pytest.approx(seq.cycle_time)


def test_text_roundtrip_sm_pulse():
    seq = PulseSequence((Free(0.1), SmPulse(SmGateSpec(0.3, (0.1, 0.2), (0, 1)))))
    txt = seq_to_text(seq)
    back = seq_from_text(txt)
    assert seq_to_text(back) == txt


@pytest.mark.parametrize("text, width", [
    ("[DRIVE(axis=X)]", None),
    ("[DRIVE(axis=Z;pair=0:1;tau=0.1;amp=1.0)]", None),
    ("[DRIVE(axis=X;pair=0:2;tau=0.1;amp=1.0)]", 2),
    ("[SM(theta=0.3;phis=0.1)]", None),
    ("[SM(theta=0.3;phis=0.1,0.2;ions=1,1)]", None),
    ("[tau=nan]", None),
    ("[tau=inf]", None),
    ("[tau=-1.0]", None),
    ("[P@1:1]", None),
    ("[P@0:7]", 2),
    ("[PI@0:1*Q@2:3]", 3),
    ("[X@0:1]", None),
    (5, None),
    ("[DRIVE(axis=X;pair=0:1;tau=0.1;amp=1.0]", None),
    ("tau=0.1", None),
    ("[P@0]", None),
])
def test_text_boundary_rejects_bad_input(text, width):
    with pytest.raises(ValueError):
        seq_from_text(text, width)


def test_text_width_defaults_to_the_ions_named():
    assert seq_from_text("[P@0:7]") == PulseSequence((NamedPulse((("P", (0, 7)),)),))
    back = seq_from_text("[DRIVE(axis=X;pair=2:3;tau=0.1;amp=1.0;phi=0.0), P@0:1]")
    assert back.events[0].h_sys.width == 4
    assert seq_from_text("[P@0:1]", width=4).events == (NamedPulse((("P", (0, 1)),)),)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1e-9])
def test_timed_events_need_finite_nonnegative_tau(tau):
    with pytest.raises(ValueError):
        Free(tau)
    with pytest.raises(ValueError):
        Drive(OperatorSum.from_label("XX"), tau, 1.0)


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
def test_drive_needs_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match="amplitude"):
        Drive(OperatorSum.from_label("XX"), 0.1, amplitude)


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
def test_drive_needs_finite_phase(phi):
    # checked before any cosine of it, so with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phase"):
            Drive(OperatorSum.from_label("XX"), 0.1, 1.0, phi=phi)
        for axis in ("X", "Y"):
            with pytest.raises(ValueError, match="phase"):
                seq_from_text(f"[DRIVE(axis={axis};pair=0:1;tau=0.25;amp=1.0;phi={phi})]")
            with pytest.raises(ValueError, match="phase"):
                combined_gate(axis, 0.5, 1.0, phi=phi)


def test_a_named_drive_is_the_program_its_text_names():
    xx = OperatorSum.from_label("XX")
    # h_sys that is not the axis, pair and phi Hamiltonian would serialize as
    # another program
    for h_sys, fields in ((OperatorSum.from_label("ZZ"), dict(axis="X", pair=(0, 1))),
                          (xx, dict(axis="X", pair=(0, 1), phi=0.7)),
                          (xx, dict(axis="Y", pair=(0, 1))),
                          (xx, dict(axis="X", pair=(1, 0), phi=0.7)),
                          (_drive_hamiltonian("Y", (0, 1), 2, 0.0), dict(axis="Z", pair=(0, 1)))):
        with pytest.raises(ValueError, match="h_sys"):
            Drive(h_sys, 0.3, 1.0, **fields)
    for fields in (dict(axis="X"), dict(pair=(0, 1))):
        with pytest.raises(ValueError, match="together"):
            Drive(xx, 0.3, 1.0, **fields)
    with pytest.raises(ValueError):  # the pair lies outside the register
        Drive(xx, 0.3, 1.0, axis="X", pair=(0, 2))
    model = EvolutionModel(3, 2, rand_herm(np.random.default_rng(1), 16))
    for axis, pair, phi in (("X", (0, 1), 0.0), ("Y", (2, 0), 0.7), ("X", (1, 2), -1.3)):
        drive = Drive(_drive_hamiltonian(axis, pair, 3, phi), 0.3, 1.7, axis, pair, phi)
        seq = PulseSequence((drive, NamedPulse((("P", (0, 1)),)), Free(0.2)))
        back = seq_from_text(seq_to_text(seq), width=3)
        assert back == seq
        assert np.array_equal(propagator(back, model), propagator(seq, model))
    # the XX drive of the text form is the one combined_gate builds
    assert Drive(xx, 0.3, 1.0, axis="X", pair=(0, 1)).h_sys == combined_gate(
        "X", 1.2, 1.0).events[0].h_sys


@pytest.mark.parametrize("bath_dim", [1, 3])
def test_drive_hamiltonian_lifts_h_sys_by_the_bath_identity(bath_dim):
    rng = np.random.default_rng(bath_dim)
    h_static = rand_herm(rng, 4 * bath_dim)
    static = _gather(h_static)

    def action(event):
        mono, blocks = _event_action(event, 2, bath_dim, static)
        assert mono is None
        return _dense(blocks, 4 * bath_dim)

    for drive in (combined_gate("Y", 0.5, 2.0, phi=0.4).events[0],
                  Drive(OperatorSum.from_label("XY", 0.3) + OperatorSum.from_label("ZI", -1.1)
                        + OperatorSum.from_label("YY", 0.25), 0.2, 1.7)):
        want = h_static + drive.amplitude * np.kron(to_dense(drive.h_sys), np.eye(bath_dim))
        assert np.array_equal(action(drive), expm_i(want, drive.tau))
    assert np.array_equal(action(Free(0.1)), expm_i(h_static, 0.1))


def test_named_pulse_needs_integer_ions():
    for pair in ((0.0, 1.0), (0, 1.5), ("0", 1), (None, 1)):
        with pytest.raises(ValueError, match="integers"):
            NamedPulse((("P", pair),))
    assert NamedPulse((("P", (np.int64(0), 1)),)).ops[0][1] == (0, 1)


def test_a_list_pair_propagates_as_the_tuple_pair():
    # pairs are stored as tuples of ints, so a list pair keys the action cache
    model = EvolutionModel(2, 2, rand_herm(np.random.default_rng(71), 8))
    h = _drive_hamiltonian("X", (0, 1), 2, 0.0)

    def cycle(pair):
        return PulseSequence((Drive(h, 0.1, 1.0, axis="X", pair=pair),
                              NamedPulse((("P", pair),)), Free(0.2)))

    as_list, as_tuple = cycle([0, 1]), cycle((0, 1))
    assert as_list == as_tuple and as_list.events[0].pair == (0, 1)
    assert np.array_equal(propagator(as_list, model), propagator(as_tuple, model))
    assert cycle((np.int64(0), np.int64(1))).events[1].ops == (("P", (0, 1)),)
    with pytest.raises(ValueError, match="integers"):
        cycle([0.0, 1.0])


def test_named_pulse_needs_distinct_ions():
    with pytest.raises(ValueError):
        NamedPulse((("P", (1, 1)),))


def test_named_pulse_rejects_negative_ions():
    for pair in ((0, -1), (-2, 1)):
        with pytest.raises(ValueError, match="nonnegative"):
            NamedPulse((("P", pair),))


def test_named_pulse_pair_must_fit_the_register():
    with pytest.raises(ValueError, match="2-qubit"):
        named_pulse("P", (0, 3), 2)
    with pytest.raises(ValueError, match="4-qubit"):
        named_pulse("LAM", (4, 1), 4)
    with pytest.raises(ValueError, match="distinct"):
        named_pulse("P", (1, 1), 2)
    seq = PulseSequence((Free(0.1), NamedPulse((("P", (0, 3)),))))
    with pytest.raises(ValueError, match="2-qubit"):
        propagator(seq, EvolutionModel(2, 2))


def test_pulse_must_act_on_the_whole_register():
    model = EvolutionModel(2, 2)
    small = RawPulse(np.eye(2))
    for events in ((small,), (Free(0.1), small, Free(0.2)), (small, Free(0.1))):
        with pytest.raises(ValueError, match="2-qubit register"):
            propagator(PulseSequence(events), model)
    with pytest.raises(ValueError, match="2-qubit register"):
        event_unitary(small, model)


def test_raw_pulse_must_be_square():
    with pytest.raises(NonUnitaryError):
        RawPulse(np.array([[1, 0, 0], [0, 1, 0]]))


_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1])
_text_events = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False).map(Free),
    st.lists(st.tuples(st.sampled_from(PULSE_LABELS), _pairs), min_size=1,
             max_size=3).map(lambda ops: NamedPulse(tuple(ops))),
)


def _has_cycle_time(events):
    taus = [e.tau for e in events if isinstance(e, Free)]
    return not taus or sum(taus) > 0


@settings(max_examples=200, deadline=None)
@given(events=st.lists(_text_events, max_size=8).filter(_has_cycle_time))
def test_text_roundtrip_property(events):
    seq = PulseSequence(tuple(events))
    assert seq_from_text(seq_to_text(seq), width=6) == seq
    assert seq_from_text(seq_to_text(seq)) == seq


def test_raw_pulse_has_no_text_form():
    seq = parity_kick(SIGMA["X"], 0.1)
    with pytest.raises(SerializationError):
        seq_to_text(seq)


def test_empty_and_single_tau_propagators():
    model = EvolutionModel(1, 2, np.kron(SIGMA["Z"], SIGMA["X"]))
    np.testing.assert_allclose(propagator(PulseSequence(()), model), np.eye(4),
                               atol=1e-14)
    u = propagator(PulseSequence((Free(0.5),)), model)
    np.testing.assert_allclose(u, expm_i(model.h_static, 0.5), atol=1e-12)


def test_cycle_time_validation():
    with pytest.raises(ValueError):
        PulseSequence((Free(0.0),))
    with pytest.raises(ValueError):
        Free(-1.0)


def _mixed_events(rng, width):
    """Free, Drive, NamedPulse, SmPulse and RawPulse events on `width` qubits;
    the SM and raw pulses are not symmetric matrices."""
    q, _ = np.linalg.qr(rng.normal(size=(2 ** width,) * 2)
                        + 1j * rng.normal(size=(2 ** width,) * 2))
    ions = (0, 1) if width == 2 else (3, 0, 2, 1)
    pair = (0, 1) if width == 2 else (1, 3)
    return [
        Free(0.31),
        Drive(OperatorSum.from_label("XX" + "I" * (width - 2))
              + OperatorSum.from_label("Y" * width, 0.4), 0.2, 1.7),
        NamedPulse((("P", pair),) if width == 2 else (("PDAG", (0, 1)), ("Q", (2, 3)))),
        SmPulse(SmGateSpec(0.7, tuple(rng.uniform(0, 2 * np.pi, len(ions))), ions)),
        RawPulse(q),
        NamedPulse((("PI", pair),)),
    ]


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("h_kind", ["dense", "collective"])
def test_propagator_is_the_ordered_product_of_event_unitaries(width, h_kind):
    rng = np.random.default_rng(width)
    bath_dim = 3
    if h_kind == "dense":
        model = EvolutionModel(width, bath_dim, rand_herm(rng, 2 ** width * bath_dim))
    else:  # block diagonal: each system basis state its own bath block
        zsum = sum(to_dense(OperatorSum.single(width, q, "Z")) for q in range(width))
        model = EvolutionModel(width, bath_dim, np.kron(zsum, rand_herm(rng, bath_dim)))
    events = _mixed_events(rng, width)
    orders = [events, events[2:] + events[:2], events[::-1],
              [events[4], events[4], events[0]], [events[3]], []]
    for order in orders:
        want = np.eye(model.dim, dtype=complex)
        for e in order:
            want = want @ event_unitary(e, model)
        got = propagator(PulseSequence(tuple(order)), model)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _ordered_product(events, model):
    want = np.eye(model.dim, dtype=complex)
    for e in events:
        want = want @ event_unitary(e, model)
    return want


@pytest.mark.parametrize("make", [
    pytest.param(lambda: EvolutionModel(2, bath_dim=0), id="zero-bath-dim"),
    pytest.param(lambda: EvolutionModel(1.5, 1), id="float-width"),
    pytest.param(lambda: EvolutionModel(-1, 1), id="negative-width"),
    pytest.param(lambda: euler_rotation(1.0, 0, 0, omega_drive=0.0), id="zero-omega-drive"),
    pytest.param(lambda: SmGateSpec("x", (0.0, 0.0)), id="string-angle"),
])
def test_bad_constructor_arguments_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_evolution_model_rejects_a_non_finite_h_static():
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        h = np.zeros((8, 8), dtype=complex)
        h[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            EvolutionModel(2, 2, h)


def test_monomial_raw_pulse_matches_the_ordered_product():
    # kron(X, Z) maps 00 <-> 10 and 01 <-> 11; under sum_q Z_q (x) B the
    # blocks of 00 and 11 land on the zero blocks of 10 and 01
    rng = np.random.default_rng(8)
    zsum = to_dense(OperatorSum.single(2, 0, "Z") + OperatorSum.single(2, 1, "Z"))
    model = EvolutionModel(2, 3, np.kron(zsum, rand_herm(rng, 3)))
    xz = RawPulse(np.kron(SIGMA["X"], SIGMA["Z"]))
    events = (Free(0.3), xz, Free(0.2), xz)
    u = propagator(PulseSequence(events), model)
    np.testing.assert_allclose(u, _ordered_product(events, model), rtol=0, atol=1e-12)
    assert [idx.shape for idx in _blocks(u)] == [(4, 3)]


def test_pulse_only_sequences_are_exact_products():
    rng = np.random.default_rng(9)
    model = EvolutionModel(2, 3, rand_herm(rng, 12))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    skew = RawPulse(np.eye(4)[[2, 0, 3, 1]] * phases)
    named = [NamedPulse((("P", (0, 1)),)), NamedPulse((("Q", (1, 0)),)),
             NamedPulse((("PI", (0, 1)), ("LAM", (0, 1))))]
    exact = named + [RawPulse(np.kron(SIGMA["X"], SIGMA["Z"]))]
    for events in (exact, exact[::-1], exact[1:3] * 3):
        got = propagator(PulseSequence(tuple(events)), model)
        np.testing.assert_array_equal(got, _ordered_product(events, model))
    # a lone monomial is written as it is; other phases round as products
    np.testing.assert_array_equal(propagator(PulseSequence((skew,)), model),
                                  _lift(model, skew.matrix))
    sm = SmPulse(SmGateSpec(0.7, (0.1, 0.9), (0, 1)))
    for events in ([skew, named[0], skew], [named[1], sm, skew, sm], [sm]):
        np.testing.assert_allclose(propagator(PulseSequence(tuple(events)), model),
                                   _ordered_product(events, model), rtol=0, atol=1e-12)


def _orbits(u):
    # the cycles of the permutation of a monomial u, row r -> its column
    q = np.abs(u).argmax(axis=1)
    out, seen = set(), set()
    for r in range(len(q)):
        orbit = []
        while r not in seen:
            seen.add(r)
            orbit.append(r)
            r = q[r]
        if orbit:
            out.add(tuple(sorted(orbit)))
    return out


def test_pulse_only_blocks_are_the_orbits_of_the_frame():
    model = EvolutionModel(2, 3, rand_herm(np.random.default_rng(13), 12))
    p, q = NamedPulse((("P", (0, 1)),)), NamedPulse((("Q", (0, 1)),))
    # P Q is -i Zbar on the code space, so it moves no index; P Q P does
    for events, moves in (((p,), True), ((RawPulse(np.kron(SIGMA["X"], SIGMA["Z"])),), True),
                          ((p, q), False), ((p, q, p), True)):
        seq = PulseSequence(events)
        blocks = _propagator_blocks(seq, model.width, model.bath_dim,
                                    _gather(model.h_static))
        want = _ordered_product(events, model)
        found = {tuple(row) for idx, _ in blocks for row in idx.tolist()}
        assert found == _orbits(want)
        assert (len(found) < model.dim) == moves
        np.testing.assert_array_equal(propagator(seq, model), want)


def test_long_repeated_sequence_matches_the_ordered_product():
    rng = np.random.default_rng(11)
    zsum = to_dense(OperatorSum.single(2, 0, "Z") + OperatorSum.single(2, 1, "Z"))
    model = EvolutionModel(2, 3, np.kron(zsum, rand_herm(rng, 3)))
    for events in (tuple(_mixed_events(rng, 2)) * 60,
                   (leak_elim_cycle(0.2).events + symmetrize_pair(0.3).events) * 60):
        np.testing.assert_allclose(propagator(PulseSequence(events), model),
                                   _ordered_product(events, model), rtol=0, atol=1e-12)


def test_propagator_memory_does_not_grow_with_the_blocks_of_each_factor():
    # block4 at d=2 is dim 256 in 16 blocks of 16: a factor's blocks take
    # 64 KB, its frame 6 KB; the 360 factors of 90 more cycles may keep
    # their frames only
    model, _ = _block4_model(np.random.default_rng(5))
    cycle = symmetrize_block4(0.3, 4).events

    def peak(repeats):
        tracemalloc.start()
        try:
            propagator(PulseSequence(cycle * repeats), model)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100) - peak(10) < 10e6


def test_pulse_mapping_components_partly_onto_others_joins_them():
    # system components {00}, {01, 11} and {10}, each times the bath; P on
    # (0, 1) swaps 01 and 10 and fixes 00 and 11, so the conjugated segment
    # has {00}, {10, 11}, {01}, and the join is {00} and {01, 10, 11}
    rng = np.random.default_rng(10)
    couple = np.zeros((4, 4))
    couple[1, 3] = couple[3, 1] = 1.0
    h = (np.kron(np.diag([1.0, 2.0, 3.0, 4.0]), rand_herm(rng, 2))
         + np.kron(couple, rand_herm(rng, 2)))
    model = EvolutionModel(2, 2, h)
    seq = symmetrize_pair(0.4)
    u = propagator(seq, model)
    np.testing.assert_allclose(u, _ordered_product(seq.events, model), rtol=0, atol=1e-12)
    assert [idx.tolist() for idx in _blocks(u)] == [[[0, 1]], [[2, 3, 4, 5, 6, 7]]]


def _collective_model(width, bath_dim, rng):
    # sum_q Z_q (x) B_q: each system basis state its own bath block
    h = sum(np.kron(to_dense(OperatorSum.single(width, q, "Z")), rand_herm(rng, bath_dim))
            for q in range(width))
    return EvolutionModel(width, bath_dim, h)


@pytest.mark.parametrize("case", ["mixed", "odd swap", "in-block swap", "empty"])
def test_propagator_blocks_partition_the_propagator(case):
    rng = np.random.default_rng(12)
    model = _collective_model(4, 2, rng)
    if case == "in-block swap":
        # Xbar on (0, 1) joins 01 and 10 of the pair into one block, which P
        # then maps onto itself
        xbar = to_dense(logical_operators((0, 1), 4)[0])
        model = EvolutionModel(4, 2, model.h_static + np.kron(xbar, rand_herm(rng, 2)))
    events = {"mixed": tuple(_mixed_events(rng, 4)) + symmetrize_block4(0.2, 4).events,
              # P swaps 01 and 10 on the pair, so it moves bath blocks
              "odd swap": (Free(0.3), NamedPulse((("P", (0, 1)),))),
              "in-block swap": (Free(0.3), NamedPulse((("P", (0, 1)),))),
              "empty": ()}[case]
    seq = PulseSequence(events)
    blocks = _propagator_blocks(seq, model.width, model.bath_dim, _gather(model.h_static))
    u = propagator(seq, model)
    label = np.full(model.dim, -1)
    for k, (idx, stack) in enumerate(blocks):
        assert stack.shape == (*idx.shape, idx.shape[1])
        assert (label[idx] == -1).all()
        label[idx] = k * model.dim + np.arange(len(idx))[:, None]
    assert (label >= 0).all()
    assert not u[label[:, None] != label[None, :]].any()
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for idx, stack in blocks:
        out[idx[:, :, None], idx[:, None, :]] = stack
    np.testing.assert_array_equal(out, u)
    np.testing.assert_allclose(u, _ordered_product(events, model), rtol=0, atol=1e-12)
    if case in ("odd swap", "in-block swap"):
        # P swaps 01 and 10 of the pair: each of the 8 system states it
        # moves shares a block with its image
        assert [idx.shape for idx, _ in blocks] == [(8, 2), (4, 4)]


def test_block_scan_memory_at_d3():
    # a dense sweep over the 1296^2 pattern makes a 13 MB label array on
    # every pass; the edge list of 16 blocks of 81 takes under 1 MB
    model, _ = _block4_model(np.random.default_rng(5), 3)
    tracemalloc.start()
    try:
        groups = _blocks(model.h_static)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [idx.shape for idx in groups] == [(16, 81)]
    assert peak < 5e6


def test_block4_chain_memory_at_d3():
    # the dense chain makes 1296^2 matrices of 27 MB each and peaks near 93 MB;
    # the block chain, its model built block by block, keeps 16 blocks of 81
    _, embedded = _block4_baths(np.random.default_rng(5), 3)
    tracemalloc.start()
    try:
        static = _diagonal_blocks(embedded)
        u = _propagator_blocks(symmetrize_block4(0.05, 4), 4, 81, static)
        g = _log_blocks(u, 0.2)[0]
        resid = _block_residual(g, 4, 81, ((0, 1, 2, 3),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert resid < 1e-10
    assert peak < 32e6


def _seam_case(case):
    """(static, seq, width, bath_dim, site blocks) of a block chain."""
    rng = np.random.default_rng(13)
    if case == "mixed":
        # Xbar on (0, 1) joins 01 and 10 of the pair: static blocks of 2 and 4
        model = _collective_model(4, 2, rng)
        xbar = to_dense(logical_operators((0, 1), 4)[0])
        h = model.h_static + np.kron(xbar, rand_herm(rng, 2))
        return _gather(h), symmetrize_block4(0.05, 4), 4, 2, ((0, 1), (2, 3))
    d = int(case[len("block4 d=")])
    _, embedded = _block4_baths(rng, d)
    static = _diagonal_blocks(embedded)
    if case.endswith("mixed norms"):
        # each block scaled by its own factor, so ||t h||_1 spans 1 and a
        # slab holds matrices on both exponential paths, Taylor and eigh
        [(idx, stack)] = static
        scale = rng.permutation(np.geomspace(1e-3, 30.0, len(stack)))
        static = [(idx, stack * scale[:, None, None])]
    return static, symmetrize_block4(0.05, 4), 4, d ** 4, ((0, 1, 2, 3),)


def _block_chain(static, seq, width, bath_dim, sites):
    exp = _expm_blocks(static, 0.3)
    u = _propagator_blocks(seq, width, bath_dim, static)
    g, margin, selfcheck, unitarity = _log_blocks(u, seq.cycle_time)
    arrays = [a for blocks in (exp, u, g) for pair in blocks for a in pair]
    # the residual is written over its blocks, so it takes a copy of g's
    resid = _block_residual([(idx, s.copy()) for idx, s in g], width, bath_dim, sites)
    floats = [margin, selfcheck, unitarity, resid,
              _norm_blocks(s for _, s in g), _norm_blocks(s for _, s in u)]
    # the margin, self-check, unitarity and norm reduce over every slab:
    # with the matrices of each stack in reverse order they read the same
    turned = [(idx[::-1], np.ascontiguousarray(s[::-1])) for idx, s in u]
    assert [*_log_blocks(turned, seq.cycle_time)[1:], _norm_blocks(s for _, s in turned)] == [
        margin, selfcheck, unitarity, floats[-1]]
    return arrays, floats


@pytest.mark.parametrize("case", ["block4 d=2", "block4 d=3", "block4 d=3 mixed norms",
                                  "mixed"])
def test_block_kernels_are_bitwise_equal_at_every_slab_bound(case, monkeypatch):
    # each slab makes the per-matrix calls of the whole stack, so one matrix
    # per slab, the default bound and one slab per stack agree bit for bit
    args = _seam_case(case)
    if case == "mixed":
        assert sorted(idx.shape[1] for idx, _ in args[0]) == [2, 4]
    want = _block_chain(*args)
    for bound in (1, 1 << 40):
        monkeypatch.setattr(pauli_mod, "_SLAB_BYTES", bound)
        arrays, floats = _block_chain(*args)
        assert floats == want[1]
        assert len(arrays) == len(want[0])
        assert all(a.shape == b.shape and np.array_equal(a, b)
                   for a, b in zip(arrays, want[0]))


@pytest.mark.parametrize("case", ["one component", "blocks"])
def test_public_kernels_leave_their_array_inputs_unchanged(case):
    # a one-component matrix reaches the block cores as a view of itself, so
    # a core that wrote over its input would write over the caller's array
    rng = np.random.default_rng(14)
    model = (EvolutionModel(2, 2, rand_herm(rng, 8)) if case == "one component"
             else _collective_model(2, 2, rng))
    h = model.h_static
    u = expm_i(h, 0.3)
    assert [idx.shape for idx in _blocks(h)] == ([(1, 8)] if case == "one component"
                                                 else [(4, 2)])
    seq = PulseSequence(tuple(_mixed_events(rng, 2)) + symmetrize_pair(0.2).events)
    before = [h.tobytes(), u.tobytes()]
    expm_i(h, 0.3)
    generator_of(u, 0.3)
    spectral_norm(h)
    spectral_norm(u)
    block_collective_residual(h, 2, 2, ((0, 1),))
    propagator(seq, model)
    assert [h.tobytes(), u.tobytes()] == before
