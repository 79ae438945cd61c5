"""Pauli-string algebra and the dense linear-algebra backend.

Operators live in two registers: symbolically, as weighted Pauli strings
with an optional abstract bath-operator slot per term (`PauliTerm`,
`OperatorSum`); numerically, as plain complex numpy arrays over the joint
system-bath space.  `to_dense` writes each Pauli string straight into its
matrix as the exact monomial i^{#Y} X^x Z^z, with no Kronecker chain.

The dense kernels (`expm_i`, `generator_of`, `spectral_norm`) use numpy
alone.  They split their input into the connected components of its exact
nonzero pattern and work on one stack of blocks per block size.  A matrix
that is block diagonal under a permutation is exactly the direct sum of its
blocks, so the split needs no tolerance; a matrix with one component is
handled as a single dense block.  `generator_of` diagonalizes a unitary
through its Cayley transform, a Hermitian matrix with the same
eigenvectors, so `eigh` serves for both exponential and logarithm.

Conventions, fixed globally:
  * qubit 0 is the slowest-varying tensor factor,
  * bath factors are appended after all qubit factors,
  * |up> = |0> (computational) with Z|up> = +|up>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_LABELS = ("I", "X", "Y", "Z")

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# i^k, exactly
_I_POW = (1, 1j, -1, -1j)

# single-site products (left, right) -> (phase, label)
_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


class WidthMismatchError(ValueError):
    """Operands act on registers of different widths."""


class BathSlotError(ValueError):
    """Bath-slot bookkeeping cannot represent the requested operation."""


class NonHermitianError(ValueError):
    """A Hermitian matrix was required."""


class NonUnitaryError(ValueError):
    """A unitary matrix was required."""


class BranchCutError(ValueError):
    """Matrix logarithm has an eigenphase at the principal branch cut."""


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string, optionally tensored with a named bath slot."""

    factors: tuple[str, ...]
    coefficient: complex = 1.0 + 0j
    bath_slot: str | None = None

    def __post_init__(self):
        for f in self.factors:
            if f not in PAULI_LABELS:
                raise ValueError(f"unknown Pauli label {f!r}")
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "coefficient", complex(self.coefficient))

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0,
                   bath_slot: str | None = None) -> "PauliTerm":
        return cls(tuple(label), coefficient, bath_slot)

    @property
    def width(self) -> int:
        return len(self.factors)

    @property
    def label(self) -> str:
        return "".join(self.factors)

    def key(self):
        return (self.factors, self.bath_slot is not None, self.bath_slot or "")

    def __repr__(self):
        slot = f"[{self.bath_slot}]" if self.bath_slot else ""
        return f"({self.coefficient:+g})*{self.label}{slot}"


def pauli_mul(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Product of two Pauli terms; the group phase folds into the coefficient."""
    if a.width != b.width:
        raise WidthMismatchError(f"widths differ: {a.width} vs {b.width}")
    if a.bath_slot is not None and b.bath_slot is not None:
        raise BathSlotError("cannot multiply two bath-coupled terms symbolically")
    phase = 1 + 0j
    out = []
    for fa, fb in zip(a.factors, b.factors):
        ph, fc = _PRODUCT[fa, fb]
        phase *= ph
        out.append(fc)
    return PauliTerm(tuple(out), phase * a.coefficient * b.coefficient,
                     a.bath_slot or b.bath_slot)


def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True iff the Pauli strings commute (the only alternative is ab = -ba)."""
    if a.width != b.width:
        raise WidthMismatchError(f"widths differ: {a.width} vs {b.width}")
    anti = sum(1 for fa, fb in zip(a.factors, b.factors)
               if fa != "I" and fb != "I" and fa != fb)
    return anti % 2 == 0


class OperatorSum:
    """Canonical weighted sum of Pauli terms over a fixed-width register.

    Canonical form: at most one term per (factors, bath_slot) key, terms
    sorted lexicographically, exact-zero coefficients dropped.  Instances
    are immutable.
    """

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms=()):
        acc: dict = {}
        for t in terms:
            if t.width != width:
                raise WidthMismatchError(
                    f"term width {t.width} != register width {width}")
            acc[t.key()] = acc.get(t.key(), 0j) + t.coefficient
        canon = tuple(
            PauliTerm(k[0], c, k[2] if k[1] else None)
            for k, c in sorted(acc.items()) if c != 0)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, *_):
        raise AttributeError("OperatorSum is immutable")

    @classmethod
    def zero(cls, width: int) -> "OperatorSum":
        return cls(width, ())

    @classmethod
    def identity(cls, width: int) -> "OperatorSum":
        return cls(width, (PauliTerm(("I",) * width),))

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0,
                   bath_slot: str | None = None) -> "OperatorSum":
        return cls(len(label), (PauliTerm.from_label(label, coefficient, bath_slot),))

    @classmethod
    def single(cls, width: int, site: int, label: str,
               coefficient: complex = 1.0, bath_slot: str | None = None) -> "OperatorSum":
        factors = ["I"] * width
        factors[site] = label
        return cls(width, (PauliTerm(tuple(factors), coefficient, bath_slot),))

    def coefficient(self, label: str, bath_slot: str | None = None) -> complex:
        for t in self.terms:
            if t.label == label and t.bath_slot == bath_slot:
                return t.coefficient
        return 0j

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if self.width != other.width:
            raise WidthMismatchError("widths differ")
        return OperatorSum(self.width, self.terms + other.terms)

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "OperatorSum":
        return OperatorSum(self.width, tuple(
            PauliTerm(t.factors, scalar * t.coefficient, t.bath_slot)
            for t in self.terms))

    def __mul__(self, scalar: complex) -> "OperatorSum":
        return self.__rmul__(scalar)

    def __neg__(self) -> "OperatorSum":
        return (-1.0) * self

    def __matmul__(self, other: "OperatorSum") -> "OperatorSum":
        if self.width != other.width:
            raise WidthMismatchError("widths differ")
        prods = [pauli_mul(a, b) for a in self.terms for b in other.terms]
        return OperatorSum(self.width, prods)

    def dagger(self) -> "OperatorSum":
        # Pauli strings are Hermitian and bath bindings are required Hermitian,
        # so conjugation acts on coefficients only.
        return OperatorSum(self.width, tuple(
            PauliTerm(t.factors, t.coefficient.conjugate(), t.bath_slot)
            for t in self.terms))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(t.coefficient.imag) <= tol * max(1.0, abs(t.coefficient))
                   for t in self.terms)

    def bath_slots(self) -> tuple[str, ...]:
        return tuple(sorted({t.bath_slot for t in self.terms if t.bath_slot}))

    def isclose(self, other: "OperatorSum", tol: float = 1e-12) -> bool:
        if self.width != other.width:
            return False
        keys = {t.key() for t in self.terms} | {t.key() for t in other.terms}
        ca = {t.key(): t.coefficient for t in self.terms}
        cb = {t.key(): t.coefficient for t in other.terms}
        scale = max([1.0] + [abs(c) for c in ca.values()] + [abs(c) for c in cb.values()])
        return all(abs(ca.get(k, 0j) - cb.get(k, 0j)) <= tol * scale for k in keys)

    def __eq__(self, other):
        return (isinstance(other, OperatorSum) and self.width == other.width
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.width, self.terms))

    def __repr__(self):
        if not self.terms:
            return f"OperatorSum(width={self.width}, 0)"
        return f"OperatorSum(width={self.width}, " + " + ".join(map(repr, self.terms)) + ")"


def commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """ab - ba in canonical form; bilinear and antisymmetric."""
    return a @ b - b @ a


def anticommutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    return a @ b + b @ a


# ---------------------------------------------------------------------------
# dense backend


def kron_all(*mats) -> np.ndarray:
    out = np.array([[1]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def to_dense(op: OperatorSum, bath_dim: int = 1,
             bindings: dict | None = None) -> np.ndarray:
    """Dense matrix of `op` on the (2^width * bath_dim)-dimensional space.

    Every bath slot referenced by a term must have a Hermitian binding of
    dimension `bath_dim`; slot-free terms get the bath identity.  A string
    is the monomial i^{#Y} X^x Z^z: column c holds its one entry in row
    c ^ x, with sign (-1)^{popcount(c & z)}.
    """
    bindings = bindings or {}
    n = 2 ** op.width
    out = np.zeros((n, bath_dim, n, bath_dim), dtype=complex)
    eye_b = np.eye(bath_dim, dtype=complex)
    cols = np.arange(n)
    # bits[:, k] is the bit of qubit k in each basis index (qubit 0 slowest)
    bits = (cols[:, None] >> np.arange(op.width - 1, -1, -1)) & 1
    for t in op.terms:
        if t.bath_slot is None:
            bath = eye_b
        else:
            if t.bath_slot not in bindings:
                raise BathSlotError(f"unbound bath slot {t.bath_slot!r}")
            bath = np.asarray(bindings[t.bath_slot], dtype=complex)
            if bath.shape != (bath_dim, bath_dim):
                raise BathSlotError(
                    f"binding for {t.bath_slot!r} has shape {bath.shape}, "
                    f"expected {(bath_dim, bath_dim)}")
        x = sum(1 << (op.width - 1 - k) for k, f in enumerate(t.factors) if f in "XY")
        parity = bits[:, [k for k, f in enumerate(t.factors) if f in "ZY"]].sum(axis=1) & 1
        sys = _I_POW[t.factors.count("Y") % 4] * (1 - 2 * parity)
        # rounds exactly as coefficient * kron(sys, bath) does
        out[cols ^ x, :, cols, :] += t.coefficient * (sys[:, None, None] * bath)
    return out.reshape(n * bath_dim, n * bath_dim)


def embed_sites(mat: np.ndarray, sites: tuple[int, ...], width: int) -> np.ndarray:
    """Embed an operator on the given qubit sites into a width-qubit register.

    `mat` is indexed with sites[0] as its slowest factor.
    """
    k = len(sites)
    if mat.shape != (2 ** k, 2 ** k):
        raise ValueError("matrix shape does not match number of sites")
    if len(set(sites)) != k or any(s < 0 or s >= width for s in sites):
        raise ValueError(f"bad site list {sites} for width {width}")
    rest = [q for q in range(width) if q not in sites]
    full = np.kron(mat, np.eye(2 ** (width - k), dtype=complex))
    # current axis order is sites + rest on both row and column sides
    order = list(sites) + rest
    perm = [order.index(q) for q in range(width)]
    tensor = full.reshape((2,) * (2 * width))
    tensor = tensor.transpose(perm + [width + p for p in perm])
    return tensor.reshape(2 ** width, 2 ** width)


def dag(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if np.asarray(m).size else 0.0


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; a square input is split into its blocks."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return float(np.linalg.norm(m, 2))
    return max((float(np.linalg.svd(m[_stacked(idx)], compute_uv=False).max())
                for idx in _blocks(m)), default=0.0)


def is_hermitian_matrix(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    scale = max(1.0, max_abs(m))
    return max_abs(m - dag(m)) <= tol * scale


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return (m.ndim == 2 and m.shape[0] == m.shape[1]
            and max_abs(m @ dag(m) - np.eye(m.shape[0])) <= tol)


def is_valid_state(state: np.ndarray, tol: float = 1e-10) -> bool:
    """True for a unit-norm vector or a Hermitian unit-trace density matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return abs(np.linalg.norm(state) - 1.0) <= tol
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        return (abs(np.trace(state).real - 1.0) <= tol
                and abs(np.trace(state).imag) <= tol
                and max_abs(state - dag(state)) <= tol)
    return False


def _blocks(m: np.ndarray) -> list[np.ndarray]:
    """Connected components of the exact nonzero pattern of m | m.T.

    One (count, size) index array per component size, sizes ascending; the
    rows of an array are the components of that size, each in ascending
    index order.  Components come from min-label propagation with pointer
    jumping, O(n^2) per sweep.
    """
    n = m.shape[0]
    if n == 0:
        return []
    link = m != 0
    link |= link.T
    if link.all():
        return [np.arange(n)[None]]
    lab = np.arange(n)
    while True:
        # a label only falls, and always names a node of its own component
        # that is not above it; so a fixed point has equal labels on each edge
        new = np.minimum(lab, np.where(link, lab, n).min(axis=1))
        new = new[new]
        if (new == lab).all():
            break
        lab = new
    size = np.bincount(lab, minlength=n)[lab]
    order = np.lexsort((lab, size))
    size = size[order]
    cuts = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1).tolist(), n]
    return [order[a:b].reshape(-1, size[a]) for a, b in zip(cuts, cuts[1:])]


def _stacked(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the (count, size, size) stack of blocks on the components `idx`."""
    return idx[:, :, None], idx[:, None, :]


def expm_i(h: np.ndarray, t: float, tol: float = 1e-10) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition (exact, unitary)."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian_matrix(h, tol):
        raise NonHermitianError("expm_i requires a Hermitian generator")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    out = np.zeros_like(h)
    for idx in _blocks(h):
        ix = _stacked(idx)
        vals, vecs = np.linalg.eigh(h[ix])
        out[ix] = (vecs * np.exp(-1j * vals * t)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return out


def generator_of(u: np.ndarray, total_time: float,
                 branch_tol: float = 1e-6) -> np.ndarray:
    """Effective Hermitian generator H with u = exp(-i H total_time).

    Uses the principal matrix logarithm; eigenphases must stay away from
    the +-pi branch cut by `branch_tol`.  Each block g of u is diagonalized
    through its Cayley transform A = i (1 + g)^-1 (1 - g), which is
    Hermitian with eigenvalue tan(phase/2) for each eigenphase of g, one to
    one on (-pi, pi): so `eigh` of A gives an orthonormal eigenbasis Q of g,
    for all blocks of one size in one stacked call.  A singular 1 + g is an
    eigenphase exactly at pi.  T = Q^+ g Q checks the result:
    g - exp(-i H total_time) = Q (T - diag e^{i phase}) Q^+.  The basis
    loses accuracy as 1/(pi - |phase|), to about 1e-9 in H at the default
    `branch_tol`; a `branch_tol` below about 1e-7 can make that check fail
    with ArithmeticError.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NonUnitaryError("generator_of requires a unitary input")
    groups = [(ix, u[ix]) for ix in map(_stacked, _blocks(u))]
    # u u^+ - 1 is exactly zero between blocks, so this is the full check
    if not all(max_abs(g @ g.conj().swapaxes(1, 2) - np.eye(g.shape[1])) <= 1e-10
               for _, g in groups):
        raise NonUnitaryError("generator_of requires a unitary input")
    if total_time == 0 or not np.isfinite(total_time):
        raise ValueError(f"total_time must be finite and nonzero, got {total_time}")
    h = np.zeros_like(u)
    for ix, g in groups:
        one = np.eye(g.shape[1])
        try:
            a = 1j * np.linalg.solve(one + g, one - g)
        except np.linalg.LinAlgError:
            raise BranchCutError(
                "eigenphase at +-pi; shorten total_time") from None
        q = np.linalg.eigh(0.5 * (a + a.conj().swapaxes(1, 2)))[1]
        qh = q.conj().swapaxes(1, 2)
        tmat = qh @ g @ q
        phases = np.angle(np.diagonal(tmat, axis1=1, axis2=2))
        if np.any(np.pi - np.abs(phases) < branch_tol):
            raise BranchCutError(
                "eigenphase within branch_tol of +-pi; shorten total_time")
        if max_abs(tmat - np.exp(1j * phases)[:, :, None] * one) > 1e-8:
            raise ArithmeticError("principal log failed to reproduce the unitary")
        hg = (q * (-phases / total_time)[:, None, :]) @ qh
        h[ix] = 0.5 * (hg + hg.conj().swapaxes(1, 2))
    return h
