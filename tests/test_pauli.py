import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dfspulse.pauli as pauli_mod
from dfspulse.pauli import (
    BathSlotError, BranchCutError, NonHermitianError, NonUnitaryError,
    OperatorSum, PauliTerm, WidthMismatchError, _blocks, _connect, _dense, _embed,
    _from_masks, _log_blocks, _slabs, _stacked, _sum_blocks, commutator, commutes,
    embed_sites, expm_i, generator_of, is_hermitian_matrix, is_unitary, kron_all,
    pauli_mul, spectral_norm, to_dense, SIGMA,
)

LABELS1 = ["I", "X", "Y", "Z"]
LABELS2 = [a + b for a in LABELS1 for b in LABELS1]


def dense(label, coeff=1.0):
    return coeff * kron_all(*(SIGMA[c] for c in label))


def test_single_site_products():
    # X*Y = iZ, X*X = I
    p = pauli_mul(PauliTerm.from_label("X"), PauliTerm.from_label("Y"))
    assert p.label == "Z" and p.coefficient == 1j
    p = pauli_mul(PauliTerm.from_label("X"), PauliTerm.from_label("X"))
    assert p.label == "I" and p.coefficient == 1


def test_two_site_product_example():
    # (X (x) Z) * (Y (x) Z) = i Z (x) I
    p = pauli_mul(PauliTerm.from_label("XZ"), PauliTerm.from_label("YZ"))
    assert p.label == "ZI" and p.coefficient == 1j


def test_product_matches_dense_exhaustive():
    for la in LABELS2:
        for lb in LABELS2:
            p = pauli_mul(PauliTerm.from_label(la), PauliTerm.from_label(lb))
            np.testing.assert_allclose(
                dense(p.label, p.coefficient), dense(la) @ dense(lb), atol=1e-14)


def test_product_associative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = (PauliTerm.from_label(rng.choice(LABELS2)) for _ in range(3))
        left = pauli_mul(pauli_mul(a, b), c)
        right = pauli_mul(a, pauli_mul(b, c))
        assert left == right


def test_width_mismatch():
    with pytest.raises(WidthMismatchError):
        pauli_mul(PauliTerm.from_label("X"), PauliTerm.from_label("XX"))
    with pytest.raises(WidthMismatchError):
        commutes(PauliTerm.from_label("X"), PauliTerm.from_label("XX"))


def test_bath_slot_product_rules():
    a = PauliTerm.from_label("X", bath_slot="b")
    b = PauliTerm.from_label("Y")
    assert pauli_mul(a, b).bath_slot == "b"
    with pytest.raises(BathSlotError):
        pauli_mul(a, PauliTerm.from_label("Z", bath_slot="c"))


def test_commutes_examples():
    assert commutes(PauliTerm.from_label("XI"), PauliTerm.from_label("IZ"))
    assert not commutes(PauliTerm.from_label("ZZ"), PauliTerm.from_label("XI"))
    assert commutes(PauliTerm.from_label("ZZ"), PauliTerm.from_label("XX"))


def test_commutes_xor_anticommutes_exhaustive():
    for la in LABELS2:
        for lb in LABELS2:
            ab = dense(la) @ dense(lb)
            ba = dense(lb) @ dense(la)
            if commutes(PauliTerm.from_label(la), PauliTerm.from_label(lb)):
                np.testing.assert_allclose(ab, ba, atol=1e-14)
            else:
                np.testing.assert_allclose(ab, -ba, atol=1e-14)


def test_commutator_xy():
    x = OperatorSum.from_label("X")
    y = OperatorSum.from_label("Y")
    z = OperatorSum.from_label("Z")
    assert commutator(x, y) == 2j * z
    assert commutator(x, x) == OperatorSum.zero(1)


def test_commutator_antisymmetric_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = OperatorSum(2, [PauliTerm.from_label(rng.choice(LABELS2),
                                                 rng.normal() + 1j * rng.normal())
                            for _ in range(3)])
        b = OperatorSum(2, [PauliTerm.from_label(rng.choice(LABELS2),
                                                 rng.normal() + 1j * rng.normal())
                            for _ in range(3)])
        assert commutator(a, b).isclose(-1.0 * commutator(b, a), 1e-14)
        dense_comm = to_dense(a) @ to_dense(b) - to_dense(b) @ to_dense(a)
        np.testing.assert_allclose(to_dense(commutator(a, b)), dense_comm, atol=1e-13)


def test_canonical_form_merges_and_sorts():
    op = OperatorSum(1, (PauliTerm.from_label("X", 1.0),
                         PauliTerm.from_label("X", 2.0),
                         PauliTerm.from_label("I", 0.5),
                         PauliTerm.from_label("Z", 0.0)))
    assert [t.label for t in op.terms] == ["I", "X"]
    assert op.coefficient("X") == 3.0


def test_coefficient_of_a_slot_that_is_no_name_is_zero():
    # as for a label that is no string: such a term cannot exist
    op = OperatorSum.from_label("XY", 2.0, "a")
    assert op.coefficient("XY", "a") == 2.0
    assert op.coefficient("XY", ["a"]) == 0j
    assert op.coefficient("XY", 5) == 0j


def test_hermiticity_decidable():
    h = OperatorSum(1, (PauliTerm.from_label("X", 0.3),
                        PauliTerm.from_label("Z", -1.2, "b")))
    assert h.is_hermitian()
    assert not (1j * h).is_hermitian()
    # commutator of Hermitians is anti-Hermitian
    g = OperatorSum.from_label("Y")
    assert (1j * commutator(h, g)).is_hermitian()


def test_to_dense_identity_and_z():
    assert np.allclose(to_dense(OperatorSum.identity(2)), np.eye(4))
    z0 = to_dense(OperatorSum.single(2, 0, "Z"))
    np.testing.assert_allclose(z0, np.diag([1, 1, -1, -1]).astype(complex))


def test_to_dense_bath_slot():
    op = OperatorSum.single(1, 0, "Z", 1.0, "b")
    b = SIGMA["X"]
    got = to_dense(op, bath_dim=2, bindings={"b": b})
    np.testing.assert_allclose(got, np.kron(SIGMA["Z"], b))
    with pytest.raises(BathSlotError):
        to_dense(op, bath_dim=2)
    with pytest.raises(BathSlotError):
        to_dense(op, bath_dim=4, bindings={"b": b})


def test_to_dense_linear_and_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = OperatorSum(2, [PauliTerm.from_label(rng.choice(LABELS2), rng.normal())
                            for _ in range(4)])
        b = OperatorSum(2, [PauliTerm.from_label(rng.choice(LABELS2), rng.normal())
                            for _ in range(4)])
        np.testing.assert_allclose(to_dense(a + b), to_dense(a) + to_dense(b),
                                   atol=1e-14)
        np.testing.assert_allclose(to_dense(a @ b), to_dense(a) @ to_dense(b),
                                   atol=1e-13)


def test_embed_sites_matches_opsum():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # embedding XZ at sites (1, 3) of width 4
    emb = embed_sites(dense("XZ"), (1, 3), 4)
    via_opsum = to_dense(OperatorSum.single(4, 1, "X") @ OperatorSum.single(4, 3, "Z"))
    np.testing.assert_allclose(emb, via_opsum, atol=1e-14)
    # site order (3, 1) transposes the two-site factors
    emb_rev = embed_sites(dense("ZX"), (3, 1), 4)
    np.testing.assert_allclose(emb_rev, via_opsum, atol=1e-14)


def _kron_oracle(mat, axes, dims):
    """mat placed on `axes` by an explicit sum over its matrix units: the
    unit |i><j| of mat is the kron, factor by factor, of the units of its
    digits on `axes` and the identity on every other factor."""
    out = 0
    sub = [dims[a] for a in axes]
    for (i, j), m in np.ndenumerate(mat):
        ri, cj = np.unravel_index(i, sub), np.unravel_index(j, sub)
        factors = [np.eye(d, dtype=complex) for d in dims]
        for a, r, c in zip(axes, ri, cj):
            factors[a] = np.zeros((dims[a], dims[a]), dtype=complex)
            factors[a][r, c] = 1
        out = out + m * kron_all(*factors)
    return out


@st.composite
def _placements(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    axes = draw(st.permutations(range(len(dims))))[:draw(st.integers(0, len(dims)))]
    k = int(np.prod([dims[a] for a in axes]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)), tuple(axes), tuple(dims)


@settings(max_examples=200, deadline=None)
@given(_placements())
def test_embed_is_the_kron_of_identities_permuted(case):
    # random, out-of-order and multi-axis placements over unequal factors
    mat, axes, dims = case
    assert np.array_equal(_embed(mat, axes, dims), _kron_oracle(mat, axes, dims))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    st.just(w), st.permutations(range(w)), st.integers(1, w), st.integers(0, 2 ** 32 - 1))))
def test_embed_sites_is_the_core_on_qubit_sites(case):
    width, order, k, seed = case
    sites = tuple(order[:k])
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(2 ** k,) * 2) + 1j * rng.normal(size=(2 ** k,) * 2)
    got = embed_sites(mat, sites, width)
    assert np.array_equal(got, _embed(mat, sites, (2,) * width))
    assert np.array_equal(got, _kron_oracle(mat, sites, (2,) * width))


def test_expm_i_basics():
    x = SIGMA["X"]
    np.testing.assert_allclose(expm_i(x, 0.0), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(expm_i(x, np.pi / 2), -1j * x, atol=1e-13)
    with pytest.raises(NonHermitianError):
        expm_i(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_expm_i_rejects_a_nan_inside_one_block():
    # two Hermitian blocks, {0, 2} and {1, 3}; the NaN sits in the second
    h = np.zeros((4, 4), dtype=complex)
    h[np.ix_([0, 2], [0, 2])] = [[1.0, 0.5j], [-0.5j, 2.0]]
    h[np.ix_([1, 3], [1, 3])] = [[0.3, 0.2], [0.2, -1.0]]
    for at in ((3, 3), (1, 3)):
        bad = h.copy()
        bad[at] = bad[at[::-1]] = np.nan
        with pytest.raises(NonHermitianError):
            expm_i(bad, 0.5)


def test_expm_i_unitary():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (m + m.conj().T) / 2
    u = expm_i(h, 0.37)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


def test_generator_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (m + m.conj().T) / 2
        t = rng.uniform(0.05, 2.8) / np.linalg.norm(h, 2)
        np.testing.assert_allclose(generator_of(expm_i(h, t), t), h, atol=1e-8)


def test_generator_trivial_cases():
    assert np.allclose(generator_of(np.eye(3), 1.0), np.zeros((3, 3)), atol=1e-12)
    h = SIGMA["Z"]
    np.testing.assert_allclose(generator_of(expm_i(h, 0.3), 0.3), h, atol=1e-10)


def test_generator_branch_cut():
    # eigenphase exactly at pi
    u = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(BranchCutError):
        generator_of(u, 1.0)


def test_is_valid_state():
    from dfspulse.pauli import is_valid_state
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    assert is_valid_state(psi)
    assert not is_valid_state(2 * psi)
    rho = np.outer(psi, psi.conj())
    assert is_valid_state(rho)
    assert not is_valid_state(rho + 0.5j * np.eye(2))
    assert not is_valid_state(np.ones((2, 3)))
    # Hermitian with unit trace, but a negative eigenvalue: no density matrix
    assert not is_valid_state(np.diag([2.0, -1.0]))
    assert is_valid_state(np.diag([1.0, 0.0]))


# --- block-structured dense kernels against dense oracles

BLOCK_SIZES = [(1,), (2, 1), (1, 1, 1, 1), (3, 1, 2, 3, 1, 5), (4, 4, 1, 6, 2),
               (1, 7, 1, 1, 3, 3, 2)]


def hidden_blocks(rng, sizes, hermitian=True):
    """A random matrix that is block diagonal with the given block sizes
    under a random symmetric permutation of its rows and columns."""
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for s in sizes:
        b = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        m[start:start + s, start:start + s] = (b + b.conj().T) / 2 if hermitian else b
        start += s
    p = rng.permutation(n)
    return m[np.ix_(p, p)]


@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_blocks_are_the_connected_components(sizes):
    rng = np.random.default_rng(sum(sizes))
    m = hidden_blocks(rng, sizes, hermitian=False)
    m[np.abs(m) < 0.3] = 0  # sparser blocks, possibly split further
    groups = _blocks(m)
    found = sorted(tuple(row) for idx in groups for row in idx.tolist())
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    n_comp, lab = csgraph.connected_components(m != 0, directed=True, connection="weak")
    want = sorted(tuple(np.flatnonzero(lab == k)) for k in range(n_comp))
    assert found == want
    assert [idx.shape[1] for idx in groups] == sorted({len(c) for c in want})


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))))
def test_connect_labels_the_connected_components(case):
    # empty lists, self-loops and repeated edges included
    n, edges = case
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    lab = _connect(n, src, dst)
    graph = np.zeros((n, n), dtype=bool)
    graph[src, dst] = True
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    n_comp, comp = csgraph.connected_components(graph, directed=False)
    # the smallest index of each component names it
    smallest = np.array([np.flatnonzero(comp == c).min() for c in range(n_comp)])
    np.testing.assert_array_equal(lab, smallest[comp])


@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_expm_i_on_hidden_blocks_matches_expm(sizes):
    rng = np.random.default_rng(10 + sum(sizes))
    h = hidden_blocks(rng, sizes)
    linalg = pytest.importorskip("scipy.linalg")
    for t in (0.0, 0.37, -2.1):
        u = expm_i(h, t)
        np.testing.assert_allclose(u, linalg.expm(-1j * t * h), atol=1e-12)
        # the blocks are dense, so h == 0 exactly off the blocks, and so is u
        assert np.all(u[h == 0] == 0)


def test_dense_kernels_on_the_zero_matrix():
    z = np.zeros((5, 5), dtype=complex)
    np.testing.assert_array_equal(expm_i(z, 1.3), np.eye(5))
    np.testing.assert_array_equal(generator_of(np.eye(5), 0.4), z)
    assert spectral_norm(z) == 0.0
    assert expm_i(np.zeros((0, 0)), 1.0).shape == (0, 0)


@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_generator_roundtrip_on_hidden_blocks(sizes):
    rng = np.random.default_rng(20 + sum(sizes))
    h = hidden_blocks(rng, sizes)
    for _ in range(5):
        t = rng.uniform(0.05, 2.8) / np.linalg.norm(h, 2)
        np.testing.assert_allclose(generator_of(expm_i(h, t), t), h, atol=1e-8)


@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_spectral_norm_matches_dense_norm(sizes, monkeypatch):
    rng = np.random.default_rng(30 + sum(sizes))
    h = hidden_blocks(rng, sizes)
    near = h.copy()
    near[np.unravel_index(np.abs(h).argmax(), h.shape)] += 1e-14j
    # an exactly Hermitian stack takes eigvalsh, any other svd; near is
    # Hermitian but for one block
    calls = []
    for name in ("eigvalsh", "svd"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, f=f, name=name, **k: calls.append(name) or f(*a, **k))
    for m, hermitian in ((h, True), (near, False),
                         (hidden_blocks(rng, sizes, hermitian=False), False)):
        want = np.linalg.norm(m, 2)
        calls.clear()
        assert spectral_norm(m) == pytest.approx(want, rel=1e-12)
        assert ("svd" not in calls) == hermitian
    n = sum(sizes)
    wide = rng.normal(size=(n, n + 2)) * (rng.random((n, n + 2)) < 0.3)
    assert spectral_norm(wide) == pytest.approx(np.linalg.norm(wide, 2), rel=1e-12)
    assert spectral_norm(wide.T) == pytest.approx(np.linalg.norm(wide, 2), rel=1e-12)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_spectral_norm_of_empty_input(shape):
    assert spectral_norm(np.zeros(shape)) == np.linalg.norm(np.zeros(shape), 2) == 0.0


def test_branch_cut_found_in_one_small_block():
    rng = np.random.default_rng(40)
    h = hidden_blocks(rng, (6, 1, 4, 2, 5))
    t = 0.5 / np.linalg.norm(h, 2)
    u = expm_i(h, t)
    generator_of(u, t)  # far from the cut
    lone = int(np.flatnonzero(np.count_nonzero(h, axis=1) == 1)[0])
    u[lone, lone] = -1.0  # eigenphase pi on the 1x1 block only
    with pytest.raises(BranchCutError):
        generator_of(u, t)
    pair = next(idx for idx in _blocks(h) if idx.shape[1] == 2)[0]
    u[np.ix_(pair, pair)] = np.diag([1.0, -1.0])  # and on the 2x2 block
    u[lone, lone] = 1.0
    with pytest.raises(BranchCutError):
        generator_of(u, t)


def test_generator_rejects_non_unitary_block():
    rng = np.random.default_rng(41)
    h = hidden_blocks(rng, (3, 1, 4))
    u = expm_i(h, 0.2)
    lone = int(np.flatnonzero(np.count_nonzero(h, axis=1) == 1)[0])
    for bad in (1.001 * u[lone, lone], np.nan):
        v = u.copy()
        v[lone, lone] = bad
        with pytest.raises(NonUnitaryError):
            generator_of(v, 0.2)
    with pytest.raises(NonUnitaryError):
        generator_of(u[:, :-1], 0.2)
    with pytest.raises(ValueError):
        generator_of(u, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dense_kernels_reject_non_finite_times(bad):
    h = hidden_blocks(np.random.default_rng(42), (3, 1, 4))
    with pytest.raises(ValueError, match="finite"):
        generator_of(expm_i(h, 0.2), bad)
    with pytest.raises(ValueError, match="finite"):
        expm_i(h, bad)


# --- generator_of against a Schur-form oracle


def schur_generator(u, total_time):
    """The principal-log generator of u from its complex Schur form."""
    tmat, q = pytest.importorskip("scipy.linalg").schur(u, output="complex")
    h = (q * (-np.angle(np.diag(tmat)) / total_time)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hidden_unitary(rng, blocks):
    """A unitary with hidden blocks of the given eigenphases, and its
    generator at total_time 1; the rows and columns are permuted as in
    `hidden_blocks`."""
    n = sum(len(phases) for phases in blocks)
    u = np.zeros((n, n), dtype=complex)
    h = np.zeros((n, n), dtype=complex)
    start = 0
    for phases in blocks:
        s = slice(start, start + len(phases))
        v = haar_unitary(rng, len(phases))
        u[s, s] = (v * np.exp(1j * np.asarray(phases))) @ v.conj().T
        h[s, s] = (v * -np.asarray(phases)) @ v.conj().T
        start += len(phases)
    p = rng.permutation(n)
    return u[np.ix_(p, p)], h[np.ix_(p, p)]


@pytest.mark.parametrize("sizes", [(3, 3, 3, 3), (4, 4, 1, 6, 2), (5, 2, 5, 1, 2, 5, 1)])
def test_generator_matches_schur_oracle_on_stacked_blocks(sizes):
    rng = np.random.default_rng(50 + sum(sizes))
    h = hidden_blocks(rng, sizes)
    assert any(idx.shape[0] > 1 for idx in _blocks(h))  # a stack of equal sizes
    for _ in range(5):
        t = rng.uniform(0.05, 2.8) / np.linalg.norm(h, 2)
        u = expm_i(h, t)
        np.testing.assert_allclose(generator_of(u, t), schur_generator(u, t), atol=1e-10)


@pytest.mark.parametrize("distance", [1e-1, 1e-3, 1e-5, 1.2e-6])
def test_generator_near_the_branch_cut(distance):
    # one eigenphase `distance` inside +pi and one inside -pi, each in a
    # block of a stack of equal sizes, beside a single larger block
    rng = np.random.default_rng(60)
    blocks = [rng.uniform(-2.5, 2.5, s) for s in (40, 40, 81)]
    blocks[0][0] = np.pi - distance
    blocks[1][0] = distance - np.pi
    u, h = hidden_unitary(rng, blocks)
    g = generator_of(u, 1.0)
    np.testing.assert_allclose(g, h, atol=1e-8)
    np.testing.assert_allclose(g, schur_generator(u, 1.0), atol=1e-8)


def test_generator_branch_cut_in_one_block_of_a_stack():
    rng = np.random.default_rng(61)
    u, _ = hidden_unitary(rng, [rng.uniform(-2.5, 2.5, 4) for _ in range(3)])
    group = _blocks(u)
    assert [idx.shape for idx in group] == [(3, 4)]
    # a reflection with eigenphases (pi, 0, 0, 0), exact in floating point,
    # so 1 + u is exactly singular on that block
    u[np.ix_(group[0][1], group[0][1])] = np.eye(4) - 0.5
    with pytest.raises(BranchCutError):
        generator_of(u, 1.0)


@pytest.mark.parametrize("distance", [1e-8, 1e-11])
def test_generator_is_exact_or_refuses_inside_branch_tol(monkeypatch, distance):
    # closer to the cut than the branch tolerance: a lowered tolerance lets
    # the phase through, and the answer is right or ArithmeticError
    monkeypatch.setattr(pauli_mod, "_BRANCH_TOL", 1e-14)
    rng = np.random.default_rng(62)
    phases = rng.uniform(-2.5, 2.5, 12)
    phases[0] = np.pi - distance
    u, h = hidden_unitary(rng, [phases])
    try:
        g = generator_of(u, 1.0)
    except ArithmeticError:
        return
    np.testing.assert_allclose(g, h, atol=1e-8)


@pytest.mark.parametrize("count, b, per", [(16, 81, 2), (16, 16, 64), (3, 256, 1),
                                           (5, 128, 1), (1, 2, 1), (0, 81, 2)])
def test_slabs_cover_a_stack_within_the_bound(count, b, per):
    # consecutive slices of at most _SLAB_BYTES, or of one larger matrix
    stack = np.empty((count, b, b), dtype=complex)
    slabs = _slabs(stack)
    assert [k for sl in slabs for k in range(count)[sl]] == list(range(count))
    assert all(sl.stop - sl.start == per for sl in slabs[:-1])
    assert all(stack[sl].nbytes <= max(pauli_mod._SLAB_BYTES, stack[:1].nbytes)
               for sl in slabs)


def test_spectral_norm_of_an_infinite_entry_is_nan():
    # the svd of the block {1, 2} reads NaN, and no finite block read
    # before it may hide that
    m = np.diag([2.0, 1.0, 1.0, 1.0])
    m[1, 2] = np.inf
    assert [idx.tolist() for idx in _blocks(m)] == [[[0], [3]], [[1, 2]]]
    assert np.isnan(spectral_norm(m))
    assert np.isnan(spectral_norm(m[1:3, 1:3]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_spectral_norm_of_a_non_finite_stack_is_nan_with_no_lapack_call(bad, monkeypatch):
    def no_call(*_, **__):
        raise AssertionError("LAPACK called on a non-finite stack")

    monkeypatch.setattr(np.linalg, "svd", no_call)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_call)
    for m in (np.full((2, 2), bad), np.diag([bad, 1.0, 2.0])):
        assert np.isnan(spectral_norm(m))


def test_block_log_raises_as_the_dense_one(monkeypatch):
    # the block path takes no scan of its own: its blocks are given
    rng = np.random.default_rng(62)
    phases = rng.uniform(-2.5, 2.5, 12)
    u, h = hidden_unitary(rng, [phases])
    whole = np.arange(12)[None]
    (idx, g), = _log_blocks([(whole, u[None])], 1.0)[0]
    np.testing.assert_allclose(g[0], h, atol=1e-10)
    with pytest.raises(NonUnitaryError):
        _log_blocks([(whole, 1.001 * u[None])], 1.0)
    with pytest.raises(BranchCutError):
        _log_blocks([(whole, (np.eye(12) - 2 * np.outer(u[0], u[0].conj()))[None])], 1.0)
    phases[0] = np.pi - 1e-8
    u, _ = hidden_unitary(np.random.default_rng(62), [phases])
    with pytest.raises(BranchCutError):
        _log_blocks([(whole, u[None])], 1.0)
    monkeypatch.setattr(pauli_mod, "_BRANCH_TOL", 1e-14)
    with pytest.raises(ArithmeticError):
        _log_blocks([(whole, u[None])], 1.0)


# --- OperatorSum algebra against the dense matrices

_coefficient = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                  allow_infinity=False)


@st.composite
def _operator_sums(draw):
    width = draw(st.integers(1, 3))
    labels = st.text(alphabet="IXYZ", min_size=width, max_size=width)
    a, b = (OperatorSum(width, [
        PauliTerm.from_label(label, c)
        for label, c in draw(st.lists(st.tuples(labels, _coefficient), max_size=5))])
        for _ in range(2))
    return a, b, draw(_coefficient)


@settings(max_examples=200, deadline=None)
@given(_operator_sums())
def test_operator_sum_algebra_matches_dense(ops):
    a, b, c = ops
    da, db = to_dense(a), to_dense(b)
    for got, want in ((a + b, da + db), (a - b, da - db), (c * a, c * da),
                      (a @ b, da @ db), (a.dagger(), da.conj().T),
                      (commutator(a, b), da @ db - db @ da)):
        np.testing.assert_allclose(to_dense(got), want, rtol=0, atol=1e-12)


# --- to_dense against a Kronecker-chain oracle


def _kron_chain(op, bath_dim=1, bindings=None):
    """Each term as coefficient * kron(sigma_1, ..., sigma_w, bath)."""
    out = np.zeros(((2 ** op.width) * bath_dim,) * 2, dtype=complex)
    for t in op.terms:
        bath = (np.eye(bath_dim, dtype=complex) if t.bath_slot is None
                else np.asarray(bindings[t.bath_slot], dtype=complex))
        out += t.coefficient * np.kron(kron_all(*(SIGMA[f] for f in t.factors)), bath)
    return out


@st.composite
def _slotted_sums(draw):
    width = draw(st.integers(0, 5))
    bath_dim = draw(st.integers(1, 3))
    slots = st.sampled_from([None, "b1", "b2"]) if draw(st.booleans()) else st.none()
    labels = st.text(alphabet="IXYZ", min_size=width, max_size=width)
    op = OperatorSum(width, [
        PauliTerm.from_label(label, c, slot) for label, c, slot in
        draw(st.lists(st.tuples(labels, _coefficient, slots), max_size=6))])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bindings = {slot: hidden_blocks(rng, (bath_dim,)) for slot in ("b1", "b2")}
    return op, bath_dim, bindings


@settings(max_examples=300, deadline=None)
@given(_slotted_sums())
def test_to_dense_equals_the_kron_chain(case):
    op, bath_dim, bindings = case
    assert np.array_equal(to_dense(op, bath_dim, bindings),
                          _kron_chain(op, bath_dim, bindings))


# --- blocks built from the masks against the dense matrix


@st.composite
def _masked_sums(draw):
    # random x/z masks; each term its own binding, or slots shared and free
    width = draw(st.integers(1, 4))
    bath_dim = draw(st.integers(1, 3))
    own = draw(st.booleans())
    mask = st.integers(0, 2 ** width - 1)
    coefficient = st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0)
    slot = st.just(None) if own else st.sampled_from([None, "b1", "b2"])
    terms = draw(st.lists(st.tuples(mask, mask, coefficient, slot), min_size=own, max_size=6))
    items = [((x, z, f"t{k}" if own else s), c) for k, (x, z, c, s) in enumerate(terms)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bindings = {key[2]: hidden_blocks(rng, (bath_dim,))
                for key, _ in items + [((0, 0, "b1"), 0), ((0, 0, "b2"), 0)] if key[2]}
    return _from_masks(width, items), bath_dim, bindings, own


@settings(max_examples=300, deadline=None)
@given(_masked_sums())
def test_sum_blocks_are_the_blocks_of_to_dense(case):
    op, bath_dim, bindings, own = case
    dim = 2 ** op.width * bath_dim
    dense = to_dense(op, bath_dim, bindings)
    blocks = _sum_blocks(op, bath_dim, bindings)
    assert np.array_equal(_dense(blocks, dim), dense)
    label = np.full(dim, -1)
    for k, (idx, stack) in enumerate(blocks):
        assert np.array_equal(stack, dense[_stacked(idx)])
        assert (np.diff(idx, axis=1) > 0).all()
        label[idx] = k * dim + np.arange(len(idx))[:, None]
    assert (label >= 0).all()
    # every exact component lies in one block; with a dense binding on every
    # term nothing cancels, and the partitions are equal
    exact = _blocks(dense)
    assert all((label[idx] == label[idx[:, :1]]).all() for idx in exact)
    if own:
        assert len(blocks) == len(exact)
        for (idx, _), want in zip(blocks, exact):
            np.testing.assert_array_equal(idx, want)


def test_sum_blocks_reject_what_to_dense_rejects():
    op = OperatorSum.single(2, 0, "Z", 1j, "b") + OperatorSum.single(2, 1, "X")
    for bindings, match in (
            ({}, "unbound"), ({"c": np.eye(2)}, "unbound"), ({"b": np.eye(3)}, "shape"),
            # a non-Hermitian binding would make dagger() disagree with the
            # conjugate transpose, and a non-finite one would give a NaN matrix
            ({"b": [[0, 1], [0, 0]]}, "must be Hermitian"),
            ({"b": [[1, 1j], [1j, 1]]}, "must be Hermitian"),
            ({"b": [[np.nan, 0], [0, 1]]}, "must be finite"),
            ({"b": [[1, np.inf], [0, 1]]}, "must be finite")):
        for build in (to_dense, _sum_blocks):
            for which in (op, op.dagger()):
                with pytest.raises(BathSlotError, match=match):
                    build(which, 2, bindings)
        to_dense(OperatorSum.single(2, 1, "X"), 2, bindings)  # an unused binding is not read


def test_is_hermitian_matrix_rejects_non_finite_entries():
    assert is_hermitian_matrix(np.array([[1, 2j], [-2j, 1]]))
    for m in ([[1, np.inf], [0, 1]], [[1, np.inf], [np.inf, 1]], [[np.nan, 0], [0, 1]]):
        assert not is_hermitian_matrix(np.array(m))


def test_is_unitary_requires_a_square_matrix():
    assert not is_unitary(np.array([[1, 0, 0], [0, 1, 0]]))
    assert not is_unitary(np.ones(3))
    assert is_unitary(np.eye(3)[::-1])


def test_the_matrix_predicates_answer_false_for_what_is_not_numbers():
    # strings, None and bools, as `_matrix` rejects them; no predicate raises,
    # and the norm of such a matrix reads NaN, as for a non-finite entry
    from dfspulse.pauli import is_valid_state
    for m in ([["a", "b"], ["c", "d"]], [[1, None], [0, 1]], [[True, False], [False, True]]):
        assert not is_hermitian_matrix(m) and not is_unitary(m) and not is_valid_state(m)
        assert np.isnan(spectral_norm(m))
    ragged = [[1, 0], [0]]
    assert not is_hermitian_matrix(ragged) and not is_unitary(ragged)
    for state in ("ab", ["a", "b"], [1, None], [True, False], ragged):
        assert not is_valid_state(state)


# --- the symbolic algebra against the letter-table algebra it replaced

# single-site products (left, right) -> (phase, letter)
_LETTER_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def _letter_mul(a, b):
    """Product of two (factors, coefficient, slot) terms, site by site."""
    if a[2] is not None and b[2] is not None:
        raise BathSlotError("two bath-coupled terms")
    phase, out = 1 + 0j, []
    for fa, fb in zip(a[0], b[0]):
        ph, fc = _LETTER_PRODUCT[fa, fb]
        phase *= ph
        out.append(fc)
    return tuple(out), complex(phase * a[1] * b[1]), a[2] or b[2]


def _letter_commutes(a, b):
    return sum(1 for fa, fb in zip(a[0], b[0]) if "I" not in (fa, fb) and fa != fb) % 2 == 0


def _letter_sum(terms):
    """Canonical (factors, coefficient, slot) terms: merged per key in input
    order, sorted by (factors, slot), exact zeros dropped."""
    acc = {}
    for f, c, slot in terms:
        key = (f, slot is not None, slot or "")
        acc[key] = acc.get(key, 0j) + c
    return tuple((k[0], c, k[2] if k[1] else None) for k, c in sorted(acc.items()) if c != 0)


def _letter_terms(op):
    return tuple((t.factors, t.coefficient, t.bath_slot) for t in op.terms)


def _same_as_letters(op, want):
    """op has the oracle's terms, in its order, and the same hash and repr."""
    assert _letter_terms(op) == want
    assert hash(op) == hash((op.width, want))
    body = " + ".join(f"({c:+g})*{''.join(f)}{f'[{s}]' if s else ''}" for f, c, s in want)
    assert repr(op) == f"OperatorSum(width={op.width}, {body or 0})"


_oracle_coefficient = st.one_of(
    _coefficient, st.sampled_from([0.0, 1.0, -1.0, 1j, -1j, 0.5, -0.0]))


@st.composite
def _oracle_cases(draw):
    width = draw(st.integers(0, 5))
    labels = st.text(alphabet="IXYZ", min_size=width, max_size=width)
    slots = st.sampled_from([None, "b1", "b2"])
    a, b = (draw(st.lists(st.tuples(labels, _oracle_coefficient, slots), max_size=6))
            for _ in range(2))
    return width, a, b, draw(_oracle_coefficient)


@settings(max_examples=300, deadline=None)
@given(_oracle_cases())
def test_symbolic_algebra_matches_the_letter_table(case):
    width, a_spec, b_spec, scalar = case
    a_terms = [PauliTerm.from_label(lab, c, s) for lab, c, s in a_spec]
    b_terms = [PauliTerm.from_label(lab, c, s) for lab, c, s in b_spec]
    a, b = OperatorSum(width, a_terms), OperatorSum(width, b_terms)
    la = _letter_sum((tuple(lab), complex(c), s) for lab, c, s in a_spec)
    lb = _letter_sum((tuple(lab), complex(c), s) for lab, c, s in b_spec)
    _same_as_letters(a, la)
    _same_as_letters(b, lb)
    _same_as_letters(a + b, _letter_sum(la + lb))
    minus_b = _letter_sum((f, complex(-1.0 * c), s) for f, c, s in lb)
    _same_as_letters(a - b, _letter_sum(la + minus_b))
    scaled = _letter_sum((f, complex(scalar * c), s) for f, c, s in la)
    _same_as_letters(scalar * a, scaled)
    _same_as_letters(a * scalar, scaled)
    _same_as_letters(a.dagger(), _letter_sum((f, c.conjugate(), s) for f, c, s in la))
    try:
        want = _letter_sum([_letter_mul(p, q) for p in la for q in lb])
    except BathSlotError:
        with pytest.raises(BathSlotError):
            a @ b
    else:
        _same_as_letters(a @ b, want)
    for p, q in zip(a_terms, b_terms):
        q = PauliTerm(q.factors, q.coefficient)  # at most one bath-coupled factor
        lp, lq = (p.factors, p.coefficient, p.bath_slot), (q.factors, q.coefficient, None)
        assert commutes(p, q) == _letter_commutes(lp, lq)
        prod = pauli_mul(p, q)
        want = _letter_mul(lp, lq)
        assert (prod.factors, prod.coefficient, prod.bath_slot) == want
        assert hash(prod) == hash(want) and prod.width == width


@pytest.mark.parametrize("site, label", [(-1, "X"), (2, "X"), (5, "X"), (0, "XX")])
def test_single_rejects_a_site_outside_the_register(site, label):
    with pytest.raises(ValueError, match="outside|unknown Pauli label"):
        OperatorSum.single(2, site, label)
