import numpy as np
import pytest

from dfspulse.dfs import (
    ALL_LABELS, CODE_ONE_INDEX, CODE_ZERO_INDEX, DFS_LABELS, DfsRegister,
    LEAK_LABELS, LOGI_LABELS, SupportError, basis_operator,
    block_collective_residual, bucket_norms, bucket_operators, classify,
    code_isometry, encode, leakage_probability, logical_error_norms,
    logical_operators, tilde_operators, _bath_block,
)
from dfspulse.pauli import OperatorSum, PauliTerm, SIGMA, spectral_norm, to_dense

UP = np.array([1, 0], dtype=complex)
DOWN = np.array([0, 1], dtype=complex)


def ket(*spins):
    out = np.array([1], dtype=complex)
    for s in spins:
        out = np.kron(out, UP if s == "u" else DOWN)
    return out


def test_code_state_indices():
    assert np.argmax(np.abs(ket("d", "u"))) == CODE_ZERO_INDEX
    assert np.argmax(np.abs(ket("u", "d"))) == CODE_ONE_INDEX


def test_logical_operator_actions():
    xb, yb, zb = (to_dense(op) for op in logical_operators((0, 1), 2))
    zero_l, one_l = ket("d", "u"), ket("u", "d")
    np.testing.assert_allclose(xb @ zero_l, one_l, atol=1e-14)
    np.testing.assert_allclose(zb @ zero_l, -zero_l, atol=1e-14)
    np.testing.assert_allclose(zb @ one_l, one_l, atol=1e-14)
    # fixed phase convention: Ybar|0_L> = -i|1_L>
    np.testing.assert_allclose(yb @ zero_l, -1j * one_l, atol=1e-14)
    # all three annihilate the complement
    for op in (xb, yb, zb):
        np.testing.assert_allclose(op @ ket("d", "d"), 0 * zero_l, atol=1e-14)
        np.testing.assert_allclose(op @ ket("u", "u"), 0 * zero_l, atol=1e-14)


def test_su2_relations_dense():
    xb, yb, zb = (to_dense(op) for op in logical_operators((0, 1), 2))
    np.testing.assert_allclose(xb @ yb - yb @ xb, 2j * zb, atol=1e-12)
    np.testing.assert_allclose(yb @ zb - zb @ yb, 2j * xb, atol=1e-12)
    np.testing.assert_allclose(zb @ xb - xb @ zb, 2j * yb, atol=1e-12)


def test_tilde_operator_actions():
    xt, yt = (to_dense(op) for op in tilde_operators((0, 1), 2))
    zero_l = ket("d", "u")
    np.testing.assert_allclose(xt @ zero_l, 0 * zero_l, atol=1e-14)
    np.testing.assert_allclose(yt @ zero_l, 0 * zero_l, atol=1e-14)
    np.testing.assert_allclose(xt @ ket("d", "d"), ket("u", "u"), atol=1e-14)
    # phase convention: Ytilde|dd> = -i|uu>
    np.testing.assert_allclose(yt @ ket("d", "d"), -1j * ket("u", "u"), atol=1e-14)


def test_no_code_complement_matrix_elements():
    v = code_isometry(DfsRegister(((0, 1),), 2))
    comp = np.stack([ket("u", "u"), ket("d", "d")], axis=1)
    for make in (logical_operators, tilde_operators):
        for op in make((0, 1), 2):
            m = to_dense(op)
            assert np.abs(comp.conj().T @ m @ v).max() < 1e-14


def test_embedding_at_other_pairs():
    xb, _, _ = logical_operators((1, 2), 4)
    assert xb.width == 4
    for t in xb.terms:
        assert t.factors[0] == "I" and t.factors[3] == "I"


def test_basis_completeness_and_orthogonality():
    ops = [to_dense(basis_operator(lab)) for lab in ALL_LABELS]
    assert len(ops) == 16
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            ip = np.trace(a.conj().T @ b)
            if i != j:
                assert abs(ip) < 1e-14
            else:
                assert abs(ip) > 0.4
    stacked = np.stack([o.ravel() for o in ops])
    assert np.linalg.matrix_rank(stacked) == 16


def test_pi_commutation_pattern():
    zz = to_dense(basis_operator("ZZ"))
    for lab in LEAK_LABELS:
        m = to_dense(basis_operator(lab))
        np.testing.assert_allclose(zz @ m, -m @ zz, atol=1e-14)
    for lab in DFS_LABELS + LOGI_LABELS:
        m = to_dense(basis_operator(lab))
        np.testing.assert_allclose(zz @ m, m @ zz, atol=1e-14)


def test_classify_examples():
    zdif = OperatorSum.single(2, 0, "Z") - OperatorSum.single(2, 1, "Z")
    dec = classify(zdif)
    assert dec.coefficients[("Zbar", None)] == 2
    assert not dec.leak_part.terms and not dec.dfs_part.terms

    ysum = OperatorSum.single(2, 0, "Y") + OperatorSum.single(2, 1, "Y")
    dec = classify(ysum)
    assert not dec.logi_part.terms and not dec.dfs_part.terms
    assert dec.leak_part == ysum

    zz = OperatorSum.from_label("ZZ")
    dec = classify(zz)
    assert dec.dfs_part == zz and not dec.leak_part.terms and not dec.logi_part.terms


def test_classify_rejects_wide_support():
    h = OperatorSum.single(3, 0, "Z") + OperatorSum.single(3, 2, "X")
    with pytest.raises(SupportError):
        classify(h, pair=(0, 1))


def test_classify_recompose_random():
    rng = np.random.default_rng(10)
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    for _ in range(1000):
        terms = [PauliTerm.from_label(rng.choice(labels),
                                      rng.normal() + 1j * rng.normal(),
                                      rng.choice([None, "b1", "b2"]))
                 for _ in range(6)]
        h = OperatorSum(2, terms)
        dec = classify(h)
        assert dec.recomposed().isclose(h, 1e-15)


def test_classify_bucket_label_restrictions():
    rng = np.random.default_rng(11)
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    h = OperatorSum(2, [PauliTerm.from_label(rng.choice(labels), rng.normal())
                        for _ in range(8)])
    dec = classify(h)
    leak_two_site = set(LEAK_LABELS)
    for t in dec.leak_part.terms:
        assert t.label in leak_two_site
    for t in dec.logi_part.terms:
        assert t.label in {"XX", "YY", "YX", "XY", "ZI", "IZ"}


def test_encode_basics():
    reg = DfsRegister(((0, 1),), 2)
    np.testing.assert_allclose(encode([1, 0], reg), ket("d", "u"), atol=1e-15)
    plus = np.array([1, 1]) / np.sqrt(2)
    np.testing.assert_allclose(encode(plus, reg),
                               (ket("d", "u") + ket("u", "d")) / np.sqrt(2),
                               atol=1e-15)
    reg2 = DfsRegister(((0, 1), (2, 3)), 4)
    got = encode([0, 1, 0, 0], reg2)  # |01> logical
    np.testing.assert_allclose(got, np.kron(ket("d", "u"), ket("u", "d")),
                               atol=1e-15)
    # spectator qubits default to |up>
    reg3 = DfsRegister(((0, 2),), 3)
    np.testing.assert_allclose(encode([1, 0], reg3), ket("d", "u", "u"),
                               atol=1e-15)
    with pytest.raises(ValueError):
        encode([1, 0, 0], reg)


def test_leakage_probability():
    reg = DfsRegister(((0, 1),), 2)
    assert leakage_probability(encode([1, 0], reg), reg) == pytest.approx(0.0, abs=1e-14)
    assert leakage_probability(ket("d", "d"), reg) == pytest.approx(1.0, abs=1e-14)
    half = (ket("d", "u") + ket("d", "d")) / np.sqrt(2)
    assert leakage_probability(half, reg) == pytest.approx(0.5, abs=1e-12)
    # density-matrix input
    rho = np.outer(half, half.conj())
    assert leakage_probability(rho, reg) == pytest.approx(0.5, abs=1e-12)
    # joint system-bath state: bath factor does not affect the projector
    bath = np.array([0.6, 0.8], dtype=complex)
    joint = np.kron(half, bath)
    assert leakage_probability(joint, reg, bath_dim=2) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_leakage_probability_rejects_a_non_finite_state(bad):
    reg = DfsRegister(((0, 1),), 2)
    psi = ket("d", "u")
    rho = np.outer(psi, psi.conj())
    psi[0] = rho[0, 0] = bad
    for state in (psi, rho):
        with pytest.raises(ValueError, match="finite"):
            leakage_probability(state, reg)


def test_register_sites_must_be_integers():
    for pairs, width in ((((0.0, 1.0),), 2), (((0, 1),), 2.0), (((0, None),), 2)):
        with pytest.raises(ValueError, match="integers"):
            DfsRegister(pairs, width)
    reg = DfsRegister(((np.int64(0), np.int64(1)),), np.int64(2))
    assert reg.pairs == ((0, 1),) and type(reg.width) is int
    assert code_isometry(reg).shape == (4, 2)


def test_logical_error_norms():
    zdif = OperatorSum.single(2, 0, "Z") - OperatorSum.single(2, 1, "Z")
    norms = logical_error_norms(classify(zdif))
    assert norms["Zbar"] == pytest.approx(2.0, abs=1e-12)
    assert norms["Xbar"] == norms["Ybar"] == norms["Leak"] == 0.0

    norms0 = logical_error_norms(classify(OperatorSum.zero(2)))
    assert all(v == 0.0 for v in norms0.values())

    xbar_b = basis_operator("Xbar")
    h = OperatorSum(2, [PauliTerm(t.factors, t.coefficient, "b") for t in xbar_b.terms])
    norms = logical_error_norms(classify(h), bath_dim=2, bindings={"b": SIGMA["X"]})
    assert norms["Xbar"] == pytest.approx(1.0, abs=1e-12)


def test_bucket_norms_dense():
    b = np.diag([1.0, -2.0]).astype(complex)
    h = np.kron(to_dense(basis_operator("Zbar")), b)
    norms = bucket_norms(h, bath_dim=2)
    assert norms["Zbar"] == pytest.approx(2.0, abs=1e-12)
    assert norms["Leak"] < 1e-14 and norms["Xbar"] < 1e-14


def test_classify_matches_dense_buckets_oracle():
    # the symbolic parts and the dense projections are both derived from
    # BASIS_TEMPLATES; each checks the other, and together they recompose h
    rng = np.random.default_rng(12)
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    bath_dim = 3
    for _ in range(200):
        bindings = {}
        for slot in ("b1", "b2"):
            m = (rng.normal(size=(bath_dim, bath_dim))
                 + 1j * rng.normal(size=(bath_dim, bath_dim)))
            bindings[slot] = (m + m.conj().T) / 2
        h = OperatorSum(2, [PauliTerm.from_label(rng.choice(labels),
                                                 rng.normal() + 1j * rng.normal(),
                                                 rng.choice([None, "b1", "b2"]))
                            for _ in range(int(rng.integers(1, 12)))])
        dense_h = to_dense(h, bath_dim, bindings)
        dec = classify(h)
        buckets = bucket_operators(dense_h, bath_dim)
        logi = buckets["Xbar"] + buckets["Ybar"] + buckets["Zbar"]
        for part, want in ((dec.dfs_part, buckets["DFS"]),
                           (dec.leak_part, buckets["Leak"]), (dec.logi_part, logi)):
            np.testing.assert_allclose(to_dense(part, bath_dim, bindings), want,
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(sum(buckets.values()), dense_h, rtol=0, atol=1e-12)
    for lab in ALL_LABELS:
        want = "DFS" if lab in DFS_LABELS else "Logi" if lab in LOGI_LABELS else "Leak"
        assert dec.bucket_of(lab) == want


def test_block_collective_residual_flags_noncollective():
    zdif = to_dense(OperatorSum.single(4, 0, "Z") - OperatorSum.single(4, 2, "Z"))
    assert block_collective_residual(zdif, 4, 1, ((0, 1, 2, 3),)) > 1.0
    zsum = to_dense(sum((OperatorSum.single(4, q, "Z") for q in range(4)),
                        OperatorSum.zero(4)))
    assert block_collective_residual(zsum, 4, 1, ((0, 1, 2, 3),)) < 1e-12


@pytest.mark.parametrize("width, blocks", [(2, ((0, 1),)), (4, ((0, 1, 2, 3),)),
                                           (4, ((0, 1), (2, 3)))])
@pytest.mark.parametrize("bath_dim", [1, 2, 3])
def test_block_collective_residual_equals_the_kronecker_form(width, blocks, bath_dim):
    def kron_form(h):
        n = 2 ** width
        h4 = h.reshape(n, bath_dim, n, bath_dim)
        eye = np.eye(n, dtype=complex)
        resid = h - np.kron(eye, _bath_block(h4, eye))
        for block in blocks:
            zs = sum(to_dense(OperatorSum.single(width, q, "Z")) for q in block)
            resid = resid - np.kron(zs, _bath_block(h4, zs))
        return spectral_norm(resid)

    rng = np.random.default_rng(width * 10 + bath_dim)
    dim = 2 ** width * bath_dim
    # system-diagonal blocks only, bath-diagonal on odd states: h's blocks are
    # finer than the system states, while the residual's are not
    states = np.arange(dim) // bath_dim
    sparse = (states[:, None] == states[None, :]) & (
        (states[:, None] % 2 == 0) | np.eye(dim, dtype=bool))
    # the (s, s) blocks and those between 01 and 10 of the first two ions,
    # as Xbar links them: groups of one state and of two
    pair = (states >> (width - 2)) % 3 != 0
    linked = (states[:, None] == states[None, :]) | pair[:, None] & pair[None, :] & (
        states[:, None] % (2 ** (width - 2)) == states[None, :] % (2 ** (width - 2)))
    for _ in range(5):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert block_collective_residual(h, width, bath_dim, blocks) == kron_form(h)
        for pattern in (sparse, linked):
            part = np.where(pattern, h, 0)
            assert block_collective_residual(part, width, bath_dim, blocks) == kron_form(part)


@pytest.mark.parametrize("blocks", [((0, 1), (1, 2)), ((1, 2), (0, 1)), ((0, 0),),
                                    ((0, 1), ()), ((0, 3),), ((0, 1), (2, 0))])
def test_block_collective_residual_rejects_repeated_sites(blocks):
    # Z0 + Z1 and Z1 + Z2 are not trace-orthogonal: removing the projection
    # onto each in turn left 2.0 of h = Z0 + 2 Z1 + Z2, which is in their span
    h = to_dense(OperatorSum.single(3, 0, "Z") + OperatorSum.single(3, 1, "Z", 2.0)
                 + OperatorSum.single(3, 2, "Z"))
    with pytest.raises(ValueError, match="disjoint"):
        block_collective_residual(h, 3, 1, blocks)
    h = to_dense(OperatorSum.single(3, 0, "Z") + OperatorSum.single(3, 1, "Z")
                 + OperatorSum.single(3, 2, "Z", 3.0))
    assert block_collective_residual(h, 3, 1, ((0, 1), (2,))) < 1e-15


@pytest.mark.parametrize("shape", [(8, 8), (4, 16), (64,), (16, 16)])
def test_block_collective_residual_rejects_a_wrong_shape(shape):
    # (4, 16) and (64,) hold the 64 entries of an 8 x 8 operator
    h = np.arange(np.prod(shape), dtype=complex).reshape(shape)
    with pytest.raises(ValueError, match="expected"):
        block_collective_residual(h, 2, 2 if shape != (8, 8) else 3, ((0, 1),))


@pytest.mark.parametrize("pair", [(0, 0), (-1, 0), (0, 5), (0, 2)])
def test_classify_rejects_a_pair_outside_the_register(pair):
    with pytest.raises(SupportError):
        classify(OperatorSum.from_label("XI"), pair)
