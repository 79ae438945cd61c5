"""Pauli-string algebra and the dense linear-algebra backend.

Operators live in two registers: symbolically, as weighted Pauli strings
with an optional abstract bath-operator slot per term (`PauliTerm`,
`OperatorSum`); numerically, as plain complex numpy arrays over the joint
system-bath space.

A Pauli string on `width` sites is the pair of integer masks (x, z), site 0
in the most significant bit, standing for i^{#Y} X^x Z^z with #Y the
popcount of x & z (the symplectic form of Dehaene and De Moor, PRA 68,
042318 (2003), and Aaronson and Gottesman, PRA 70, 052328 (2004)).  The
product of two strings has masks x_a ^ x_b and z_a ^ z_b and the phase
i^{y_a + y_b - y_ab} (-1)^{|z_a & x_b|}; they commute iff
|x_a & z_b| + |z_a & x_b| is even.  Letters exist only at the boundary:
`PauliTerm` parses them and shows them as `factors` and `label`.
`to_dense`, the one builder of a sum's matrix, checks every binding and
writes all strings of the sum into the matrix in one scatter, each as its
exact monomial, with no Kronecker chain.  An operator is placed among
identity factors in one place, `_embed`: kron by the identity of the other
factors, then permute them into place.

The dense kernels (`expm_i`, `generator_of`, `spectral_norm`) use numpy
alone.  They split their input into the connected components of its exact
nonzero pattern and work on one stack of blocks per block size.  A matrix
that is block diagonal under a permutation is exactly the direct sum of its
blocks, so the split needs no tolerance; a matrix with one component is
handled as a single dense block.  Every partition in the package, of a
pattern or of a join of partitions, comes from one kernel,
`_connect`, the connected components of an edge list.  `expm_i` and
`sequences.propagator` share one blockwise exponential core,
`_expm_blocks`, which takes the [(idx, stack)] blocks that `_gather` cuts
from a dense matrix, or that a caller builds directly, as `cli` builds the
diagonal blocks of `block4-sim`.  It exponentiates a matrix of a block of
at least `_TAYLOR_MIN_SIZE` with ||t h||_1 < 1 by a Taylor series, matrix
products only, which cost less than `eigh` there, and any other matrix
through `eigh`.  `spectral_norm` takes `eigvalsh` on each exactly
Hermitian stack and `svd` on any other.  `generator_of` diagonalizes a
unitary through its Cayley transform, a Hermitian matrix with the same
eigenvectors, so the logarithm needs the one `eigh` call per slab.

The block kernels (`_expm_blocks`, `_log_blocks`, `_norm_blocks`, and the
products of `sequences` and the residual of `dfs` that use them) work slab
by slab: `_slabs` cuts each (count, b, b) stack into consecutive runs of at
most `_SLAB_BYTES`, and each kernel runs its checks, LAPACK calls and
products on one slab at a time into one preallocated output stack.  Each
slab makes the same per-matrix call as the whole stack would, and the
exponential picks each matrix's path from that matrix's norm alone, so the
slab bound changes no result.

So a stage of the block pipeline (`sequences._propagator_blocks`,
`_log_blocks`, `dfs._block_residual`) holds at most its input and its
output or one stack of intermediates (the residual: one (2^width, bath_dim,
bath_dim) array of h_ss), plus one slab of temporaries.  A kernel writes
over its input only where its caller owns it: `_log_blocks` with
`overwrite`, which `cli` passes for the propagator it drops, and
`dfs._block_residual`, which `cli` hands the generator it drops.  Public
functions never write over their array inputs; `_gather` hands the cores
a view of a matrix with one component.

Conventions, fixed globally:
  * qubit 0 is the slowest-varying tensor factor,
  * bath factors are appended after all qubit factors,
  * |up> = |0> (computational) with Z|up> = +|up>.
"""
from __future__ import annotations

import cmath
import math
import numbers
import operator

import numpy as np

PAULI_LABELS = ("I", "X", "Y", "Z")

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# i^k, exactly; i^{k + _SIGN_POW[s]} is i^k (-1)^s
_I_POW = (1, 1j, -1, -1j)
_I_POW_ARRAY = np.array(_I_POW)
_SIGN_POW = np.array([0, 2])

# the x and z bit of each letter, and the letter of the bits x | z << 1
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_LETTER = "IXZY"
# _SPREAD[b] moves bit k of the byte b to bit 2k
_SPREAD = tuple(sum(((b >> k) & 1) << (2 * k) for k in range(8)) for b in range(256))

# The fixed thresholds of the exactness checks.  What they guard is exact
# up to rounding, so none of them is a parameter.
_CHECK_TOL = 1e-10     # the Hermitian, unitary, state and code-space leakage checks
_BRANCH_TOL = 1e-6     # least distance pi - |phase| of an eigenphase the log accepts
_SELFCHECK_TOL = 1e-8  # largest max|T - diag e^{i phase}| the log accepts
_COEF_TOL = 1e-12      # relative bound on coefficient checks and comparisons

_SLAB_BYTES = 1 << 18  # bytes of one slab of a block kernel; bounds its temporaries

# The exponential's Taylor path: a matrix of a block of at least
# _TAYLOR_MIN_SIZE with ||t h||_1 < 1 takes it, where its matrix products
# cost less than `eigh` and the degree-_TAYLOR_DEGREE remainder is below a
# rounding unit; the degree is 4 k + 3, so Horner's rule in A^4 takes whole
# blocks of four coefficients.
_TAYLOR_MIN_SIZE = 32
_TAYLOR_DEGREE = 19
_TAYLOR_COEF = tuple(1 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1))


def _complex(x, what: str) -> complex:
    """x as a complex; ValueError naming `what` unless x is a finite real or
    complex number other than a bool.  numpy scalars count, and an integer
    beyond the float range counts as infinite."""
    if not isinstance(x, bool) and isinstance(x, numbers.Complex):
        try:
            value = complex(x)
        except OverflowError:
            value = complex(math.inf)
        if cmath.isfinite(value):
            return value
    raise ValueError(f"{what}: only finite numbers are accepted, got {x!r}")


def _finite(x, what: str) -> float:
    """x as a float; ValueError naming `what` unless x is a real number that
    `_complex` accepts."""
    if isinstance(x, numbers.Real):
        return _complex(x, what).real
    raise ValueError(f"{what}: only finite real numbers are accepted, got {x!r}")


def _integer(x, what: str, least: int | None = None) -> int:
    """x as an int through `operator.index`; ValueError naming `what` for a
    bool, any value that is not an integer, or one below `least`."""
    try:
        value = None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        value = None
    if value is None:
        raise ValueError(f"{what}: only integers are accepted, got {x!r}")
    if least is not None and value < least:
        raise ValueError(f"{what}: only integers >= {least} are accepted, got {x!r}")
    return value


def _tuple(x, what: str) -> tuple:
    """x as a tuple; ValueError naming `what` unless x can be iterated."""
    try:
        return tuple(x)
    except TypeError:
        raise ValueError(f"{what}: only sequences are accepted, got {x!r}") from None


def _instance(x, cls: type, what: str):
    """x; ValueError naming `what` unless x is a `cls`."""
    if isinstance(x, cls):
        return x
    raise ValueError(f"{what}: only {cls.__name__}s are accepted, got {x!r}")


def _ions(x, what: str, width: int | None = None) -> tuple[int, ...]:
    """x as a tuple of ints; ValueError naming `what` unless x is a sequence
    of distinct nonnegative integers, each below `width` when one is given."""
    ions = tuple(_integer(q, what) for q in _tuple(x, what))
    if len(set(ions)) == len(ions) and all(0 <= q and (width is None or q < width) for q in ions):
        return ions
    below = "" if width is None else f" below {width}"
    raise ValueError(f"{what}: only distinct nonnegative integers{below} are accepted, got {ions}")


def _slot(x) -> str | None:
    """x, a bath slot; BathSlotError unless x is None or a name (a str)."""
    if x is None or isinstance(x, str):
        return x
    raise BathSlotError(f"bath_slot: only None or a name (str) is accepted, got {x!r}")


def _pair(x, what: str, width: int | None = None) -> tuple[int, int]:
    """x as `_ions` reads it, and exactly two of them."""
    ions = _ions(x, what, width)
    if len(ions) != 2:
        raise ValueError(f"{what}: only two ions are accepted, got {ions}")
    return ions


def _array(x) -> np.ndarray:
    """x as an array; a ragged nested sequence reads as an empty array of
    objects, which no number test accepts."""
    try:
        return np.asarray(x)
    except ValueError:
        return np.empty(0, dtype=object)


def _matrix(m, what: str, shape: tuple | None = None, error: type = ValueError) -> np.ndarray:
    """m as a complex array, no copy of a complex one; `error` naming `what`
    unless m holds real or complex numbers (no bools, strings or None) in the
    shape `shape`, any square matrix when it is None, all of them finite."""
    a = _array(m)
    if a.dtype.kind not in "iufc":
        raise error(f"{what} must be an array of numbers, got {m!r}")
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] if shape is None else a.shape == shape):
        raise error(f"{what} has shape {a.shape}, expected {shape or 'a square matrix'}")
    a = a.astype(complex, copy=False)
    if not np.isfinite(a).all():
        raise error(f"{what} must be finite")
    return a


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


def _masks(label: str) -> tuple[int, int]:
    """(x, z) masks of a string of Pauli letters, site 0 the most significant bit."""
    bad = label.strip("IXYZ")
    if bad:
        raise ValueError(f"unknown Pauli label {bad[0]!r}")
    return int("0" + label.translate(_X_BITS), 2), int("0" + label.translate(_Z_BITS), 2)


def _joined(factors) -> str:
    """The string of a sequence of one-letter factors."""
    factors = _tuple(factors, "factors")
    try:
        label = "".join(factors)
    except TypeError:
        label = None
    if label is None or len(label) != len(factors):
        raise ValueError(f"unknown Pauli label in {factors!r}")
    return label


class PauliTerm:
    """One weighted Pauli string, optionally tensored with a named bath slot.

    The string is stored as two integer masks over `width` sites, site 0 in
    the most significant bit: it is i^{#Y} X^x Z^z, so a site's (x, z) bits
    are (0, 0) for I, (1, 0) for X, (1, 1) for Y and (0, 1) for Z.
    `factors` and `label` are views of the masks.  Instances are immutable.
    """

    __slots__ = ("width", "x", "z", "coefficient", "bath_slot")

    def __init__(self, factors, coefficient: complex = 1.0 + 0j,
                 bath_slot: str | None = None):
        label = factors if isinstance(factors, str) else _joined(factors)
        _fill(self, len(label), *_masks(label), _complex(coefficient, "coefficient"),
              _slot(bath_slot))

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0,
                   bath_slot: str | None = None) -> "PauliTerm":
        return cls(label, coefficient, bath_slot)

    @property
    def label(self) -> str:
        x, z = self.x, self.z
        return "".join(_LETTER[(x >> s & 1) | (z >> s & 1) << 1]
                       for s in range(self.width - 1, -1, -1))

    @property
    def factors(self) -> tuple[str, ...]:
        return tuple(self.label)

    def __setattr__(self, *_):
        raise AttributeError("PauliTerm is immutable")

    def __eq__(self, other):
        if not isinstance(other, PauliTerm):
            return NotImplemented
        return (self.x == other.x and self.z == other.z and self.width == other.width
                and self.coefficient == other.coefficient
                and self.bath_slot == other.bath_slot)

    def __hash__(self):
        return hash((self.factors, self.coefficient, self.bath_slot))

    def __reduce__(self):  # pickle and copy through the constructor
        return PauliTerm, (self.factors, self.coefficient, self.bath_slot)

    def __repr__(self):
        slot = f"[{self.bath_slot}]" if self.bath_slot else ""
        return f"({self.coefficient:+g})*{self.label}{slot}"


_SET_WIDTH, _SET_X, _SET_Z, _SET_COEFFICIENT, _SET_SLOT = (
    vars(PauliTerm)[name].__set__ for name in PauliTerm.__slots__)


def _fill(t: PauliTerm, width: int, x: int, z: int, coefficient: complex,
          bath_slot: str | None) -> None:
    # slot setters write past the raising __setattr__
    _SET_WIDTH(t, width)
    _SET_X(t, x)
    _SET_Z(t, z)
    _SET_COEFFICIENT(t, coefficient)
    _SET_SLOT(t, bath_slot)


def _term(width: int, x: int, z: int, coefficient: complex,
          bath_slot: str | None) -> PauliTerm:
    t = object.__new__(PauliTerm)
    _fill(t, width, x, z, coefficient, bath_slot)
    return t


def _phase(ax: int, az: int, bx: int, bz: int) -> int:
    """k with P_a P_b = i^k P_ab: X^x Z^z products collect (-1)^{|z_a & x_b|},
    and the i^{#Y} prefactors leave i^{y_a + y_b - y_ab}."""
    return ((ax & az).bit_count() + (bx & bz).bit_count()
            - ((ax ^ bx) & (az ^ bz)).bit_count() + 2 * (az & bx).bit_count()) & 3


def _width(a, b) -> int:
    """The width of two operands; WidthMismatchError unless they share it."""
    if a.width != b.width:
        raise WidthMismatchError(f"widths differ: {a.width} vs {b.width}")
    return a.width


def _products(a_items, b_items):
    """The ((x, z, bath_slot), coefficient) item of each product P_a P_b =
    i^k P_ab, a over the items `a_items` and b over the sequence `b_items`,
    the phase folded into the coefficient; BathSlotError when both carry a
    slot."""
    for (ax, az, a_slot), ac in a_items:
        for (bx, bz, b_slot), bc in b_items:
            if a_slot is not None and b_slot is not None:
                raise BathSlotError("cannot multiply two bath-coupled terms symbolically")
            yield (ax ^ bx, az ^ bz, a_slot or b_slot), _I_POW[_phase(ax, az, bx, bz)] * ac * bc


def pauli_mul(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Product of two Pauli terms; the group phase folds into the coefficient."""
    width = _width(_instance(a, PauliTerm, "a"), _instance(b, PauliTerm, "b"))
    [((x, z, slot), c)] = _products([((a.x, a.z, a.bath_slot), a.coefficient)],
                                    [((b.x, b.z, b.bath_slot), b.coefficient)])
    return _term(width, x, z, c, slot)


def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True iff the Pauli strings commute (the only alternative is ab = -ba)."""
    _width(_instance(a, PauliTerm, "a"), _instance(b, PauliTerm, "b"))
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def _place(mask: int, pair: tuple[int, int], width: int) -> int:
    """A two-site mask, bit 1 for pair[0] and bit 0 for pair[1], placed into
    a width-site mask."""
    i, j = pair
    return (mask >> 1) << (width - 1 - i) | (mask & 1) << (width - 1 - j)


def _order(item: tuple) -> tuple:
    """Canonical sort key of an item ((x, z, bath_slot), coefficient).

    Strings sort I < X < Y < Z site by site, site 0 first: the site digit
    2 z + (x ^ z) runs 0..3 in that order, so the masks interleaved into
    one base-4 number compare as the strings do.  Slot-free terms come
    before slotted ones, and slots sort by name.
    """
    (x, z, slot), _ = item
    d = x ^ z
    rank = shift = 0
    while z or d:
        rank |= (_SPREAD[z & 255] << 1 | _SPREAD[d & 255]) << shift
        z >>= 8
        d >>= 8
        shift += 16
    return rank, slot is not None, slot or ""


def _canonical(items) -> tuple[tuple, tuple]:
    """Keys and coefficients of the sum of ((x, z, bath_slot), coefficient)
    items: merged per key in input order, sorted, exact zeros dropped."""
    acc: dict = {}
    for key, c in items:
        acc[key] = acc.get(key, 0j) + c
    kept = [item for item in sorted(acc.items(), key=_order) if item[1] != 0]
    return tuple(key for key, _ in kept), tuple(c for _, c in kept)


def _from_masks(width: int, items) -> "OperatorSum":
    """The OperatorSum of ((x, z, bath_slot), coefficient) items."""
    return _new_sum(width, *_canonical(items))


def _new_sum(width: int, keys: tuple, coefs: tuple) -> "OperatorSum":
    op = object.__new__(OperatorSum)
    op._set(width, keys, coefs)
    return op


class OperatorSum:
    """Canonical weighted sum of Pauli terms over a fixed-width register.

    Canonical form: at most one term per (string, bath_slot) key, terms
    sorted lexicographically by string (I < X < Y < Z per site) and then by
    slot, exact-zero coefficients dropped.  The sum is stored as the keys
    (x, z, bath_slot), with the masks of `PauliTerm`, and their
    coefficients; `terms` is a view.  Instances are immutable.
    """

    __slots__ = ("width", "_keys", "_coefs")

    def __init__(self, width: int, terms=()):
        width = _integer(width, "width", 0)
        items = []
        for t in _tuple(terms, "terms"):
            if _instance(t, PauliTerm, "terms").width != width:
                raise WidthMismatchError(
                    f"term width {t.width} != register width {width}")
            items.append(((t.x, t.z, t.bath_slot), t.coefficient))
        self._set(width, *_canonical(items))

    def _set(self, width: int, keys: tuple, coefs: tuple) -> None:
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_coefs", coefs)

    def __setattr__(self, *_):
        raise AttributeError("OperatorSum is immutable")

    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        return tuple(_term(self.width, x, z, c, slot)
                     for (x, z, slot), c in zip(self._keys, self._coefs))

    @classmethod
    def zero(cls, width: int) -> "OperatorSum":
        return cls(width, ())

    @classmethod
    def identity(cls, width: int) -> "OperatorSum":
        return cls(width, (_term(width, 0, 0, 1 + 0j, None),))

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0,
                   bath_slot: str | None = None) -> "OperatorSum":
        term = PauliTerm.from_label(label, coefficient, bath_slot)
        return cls(term.width, (term,))

    @classmethod
    def single(cls, width: int, site: int, label: str,
               coefficient: complex = 1.0, bath_slot: str | None = None) -> "OperatorSum":
        width, site = _integer(width, "width"), _integer(site, "site")
        if not 0 <= site < width:
            raise ValueError(f"site {site} is outside a {width}-qubit register")
        if label not in PAULI_LABELS:
            raise ValueError(f"unknown Pauli label {label!r}")
        x, z = _masks(label)
        shift = width - 1 - site
        return cls(width, (_term(width, x << shift, z << shift,
                                 _complex(coefficient, "coefficient"), _slot(bath_slot)),))

    def coefficient(self, label: str, bath_slot: str | None = None) -> complex:
        if (not isinstance(label, str) or len(label) != self.width or label.strip("IXYZ")
                or not (bath_slot is None or isinstance(bath_slot, str))):
            return 0j
        return dict(zip(self._keys, self._coefs)).get((*_masks(label), bath_slot), 0j)

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return _from_masks(_width(self, other), zip(self._keys + other._keys,
                                                    self._coefs + other._coefs))

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "OperatorSum":
        # the keys and so their order stay; only a coefficient can become zero
        scalar = _complex(scalar, "scalar")
        scaled = [(key, 0j + scalar * c) for key, c in zip(self._keys, self._coefs)]
        return _new_sum(self.width, tuple(key for key, c in scaled if c != 0),
                        tuple(c for _, c in scaled if c != 0))

    def __mul__(self, scalar: complex) -> "OperatorSum":
        return self.__rmul__(scalar)

    def __neg__(self) -> "OperatorSum":
        return (-1.0) * self

    def __matmul__(self, other: "OperatorSum") -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return _from_masks(_width(self, other), _products(zip(self._keys, self._coefs),
                                                          list(zip(other._keys, other._coefs))))

    def dagger(self) -> "OperatorSum":
        # Pauli strings are Hermitian and bath bindings are required Hermitian,
        # so conjugation acts on coefficients only.
        return _new_sum(self.width, self._keys,
                        tuple(0j + c.conjugate() for c in self._coefs))

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= _COEF_TOL * max(1.0, abs(c)) for c in self._coefs)

    def isclose(self, other: "OperatorSum", tol: float = _COEF_TOL) -> bool:
        if self.width != _instance(other, OperatorSum, "other").width:
            return False
        ca = dict(zip(self._keys, self._coefs))
        cb = dict(zip(other._keys, other._coefs))
        scale = max([1.0] + [abs(c) for c in ca.values()] + [abs(c) for c in cb.values()])
        return all(abs(ca.get(k, 0j) - cb.get(k, 0j)) <= tol * scale
                   for k in ca.keys() | cb.keys())

    def __eq__(self, other):
        return (isinstance(other, OperatorSum) and self.width == other.width
                and self._keys == other._keys and self._coefs == other._coefs)

    def __hash__(self):
        return hash((self.width, self._keys, self._coefs))

    def __reduce__(self):  # pickle and copy past the raising __setattr__
        return _new_sum, (self.width, self._keys, self._coefs)

    def __repr__(self):
        if not self._keys:
            return f"OperatorSum(width={self.width}, 0)"
        return f"OperatorSum(width={self.width}, " + " + ".join(map(repr, self.terms)) + ")"


def commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """ab - ba in canonical form; bilinear and antisymmetric."""
    return a @ b - b @ a


def anticommutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    return a @ b + b @ a


# ---------------------------------------------------------------------------
# dense backend


def to_dense(op: OperatorSum, bath_dim: int = 1,
             bindings: dict | None = None) -> np.ndarray:
    """Dense matrix of `op` on the (2^width * bath_dim)-dimensional space.

    Every bath slot referenced by a term must have a finite Hermitian binding
    of shape (bath_dim, bath_dim), or BathSlotError is raised; slot-free
    terms get the bath identity.  A string is the monomial i^{#Y} X^x Z^z:
    column c holds its one entry in row c ^ x, i^{#Y} (-1)^{popcount(c & z)}.
    So term t puts the bath block vals[t, s] = coefficient * (i^{#Y} (-1)^s
    * bath), s the parity of popcount(c & z), at system row c ^ x and column
    c.  The entries of all terms are scattered in one pass, and each entry
    sums its terms in term order, so the result equals the sum of
    coefficient * kron(string, bath) term by term.
    """
    op, bath_dim = _instance(op, OperatorSum, "op"), _integer(bath_dim, "bath_dim", 1)
    bindings = bindings or {}
    # the distinct bath factors, and the one of each term
    baths, slot_index = [np.eye(bath_dim, dtype=complex)], {None: 0}
    for *_, slot in op._keys:
        if slot in slot_index:
            continue
        if slot not in bindings:
            raise BathSlotError(f"unbound bath slot {slot!r}")
        bath = _matrix(bindings[slot], f"binding for {slot!r}", (bath_dim, bath_dim),
                       BathSlotError)
        if not is_hermitian_matrix(bath):
            raise BathSlotError(f"binding for {slot!r} must be Hermitian")
        slot_index[slot] = len(baths)
        baths.append(bath)
    x, z, n_y, which = np.array([(kx, kz, (kx & kz).bit_count(), slot_index[slot])
                                 for kx, kz, slot in op._keys],
                                dtype=np.intp).reshape(-1, 4).T
    n = 2 ** op.width
    dim = n * bath_dim
    # the result first: it outlives the temporaries below, so freeing them
    # leaves no hole under it in the heap
    out = np.zeros(dim * dim, dtype=complex)
    if not len(x):
        return out.reshape(dim, dim)
    cols = np.arange(n)
    odd = np.array([c.bit_count() & 1 for c in range(n)])
    sign = odd[cols & z[:, None]]
    sys = _I_POW_ARRAY[(n_y[:, None] + _SIGN_POW) & 3]
    coef = np.array(op._coefs, dtype=complex)
    vals = coef[:, None, None, None] * (sys[:, :, None, None] * np.array(baths)[which, None])
    # entry (row c ^ x, bath a; column c, bath b) of each value
    a = np.arange(bath_dim)
    flat = np.ravel_multi_index(((cols ^ x[:, None])[:, :, None, None], a[:, None],
                                 cols[:, None, None], a), (n, bath_dim, n, bath_dim)).ravel()
    entries = vals[np.arange(len(x))[:, None], sign].ravel()
    np.add.at(out, flat, entries)  # unbuffered, in the order of `flat`
    return out.reshape(dim, dim)


def embed_sites(mat: np.ndarray, sites: tuple[int, ...], width: int) -> np.ndarray:
    """Embed an operator on the given qubit sites into a width-qubit register.

    `mat` is indexed with sites[0] as its slowest factor.
    """
    width = _integer(width, "width", 0)
    sites = _ions(sites, "sites", width)
    return _embed(_matrix(mat, "mat", (2 ** len(sites),) * 2), sites, (2,) * width)


def _embed(mat: np.ndarray, axes: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """`mat` on the distinct tensor factors `axes` (axes[0] its slowest) of a
    register of factor dimensions `dims`, times the identity on the others:
    kron by the identity of the rest, then permute the factors into place."""
    n = len(dims)
    rest = [a for a in range(n) if a not in axes]
    full = np.kron(mat, np.eye(math.prod(dims[a] for a in rest), dtype=complex))
    # current factor order is axes + rest on both row and column sides
    order = list(axes) + rest
    perm = [order.index(a) for a in range(n)]
    tensor = full.reshape([dims[a] for a in order] * 2)
    return tensor.transpose(perm + [n + p for p in perm]).reshape(full.shape)


def max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if np.asarray(m).size else 0.0


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; a square input is split into its blocks."""
    m = np.asarray(m)
    if not _square([m[None]]):
        return float(np.linalg.norm(m, 2))
    return _norm_blocks(stack for _, stack in _gather(m))


def _norm_blocks(stacks) -> float:
    """Largest singular value of a direct sum, given its (count, b, b) stacks.

    A stack with an entry that is not finite reads NaN.  A stack that is
    exactly Hermitian has singular values |eigenvalue|, and `eigvalsh` finds
    them in less than half the time of `svd`; any other stack takes `svd`.
    The choice is made for the whole stack, and both the check and the
    norms are taken slab by slab.
    """
    norms = [0.0]
    for s in stacks:
        slabs = _finite_slabs([s])
        if slabs is None:
            norms.append(math.nan)  # the SVD would not converge on it
        elif all((m == m.conj().swapaxes(1, 2)).all() for m in slabs):
            norms += [np.abs(np.linalg.eigvalsh(m)).max() for m in slabs]
        else:
            norms += [np.linalg.svd(m, compute_uv=False).max() for m in slabs]
    return float(np.max(norms))  # a NaN norm stays NaN


def _square(stacks) -> bool:
    """True when every stack is a (count, b, b) stack of square matrices."""
    return all(s.ndim == 3 and s.shape[1] == s.shape[2] for s in stacks)


def _finite_slabs(stacks) -> list[np.ndarray] | None:
    """The slabs of the (count, b, b) `stacks`; None unless each is square and
    holds numbers, as `_matrix` requires, every entry finite, so that no test
    computes with a non-finite value."""
    if not _square(stacks) or any(s.dtype.kind not in "iufc" for s in stacks):
        return None
    slabs = [s[sl] for s in stacks for sl in _slabs(s)]
    return slabs if all(np.isfinite(m).all() for m in slabs) else None


def _hermitian(stacks) -> bool:
    """True when the direct sum of the (count, b, b) `stacks` is Hermitian:
    max|m - m^+| <= `_CHECK_TOL` max(1, max|m|), taken slab by slab."""
    slabs = _finite_slabs(stacks)
    bound = _CHECK_TOL * max([1.0] + [max_abs(m) for m in slabs or ()])
    return slabs is not None and all(
        max_abs(m - m.conj().swapaxes(1, 2)) <= bound for m in slabs)


def _unitarity(stacks) -> float:
    """max|g g^+ - 1| of the direct sum of the (count, b, b) `stacks`, taken
    slab by slab; inf unless `_finite_slabs` accepts them."""
    slabs = _finite_slabs(stacks)
    if slabs is None:
        return math.inf
    return max([0.0] + [max_abs(g @ g.conj().swapaxes(1, 2) - np.eye(g.shape[1]))
                        for g in slabs])


def _unitary(stacks) -> bool:
    """True when the direct sum of the (count, b, b) `stacks` is unitary:
    `_unitarity` <= `_CHECK_TOL`."""
    return _unitarity(stacks) <= _CHECK_TOL


def is_hermitian_matrix(m: np.ndarray) -> bool:
    return _hermitian([_array(m)[None]])


def is_unitary(m: np.ndarray) -> bool:
    return _unitary([_array(m)[None]])


def is_valid_state(state: np.ndarray) -> bool:
    """True for a unit-norm vector or a density matrix: Hermitian, unit
    trace and no eigenvalue below -`_CHECK_TOL`.  An array of anything but
    finite numbers is neither."""
    state = _array(state)
    if state.ndim == 1:  # read as a stack of 1 x 1 matrices for the number test
        return (_finite_slabs([state.reshape(-1, 1, 1)]) is not None
                and abs(np.linalg.norm(state) - 1.0) <= _CHECK_TOL)
    return (is_hermitian_matrix(state) and abs(np.trace(state).real - 1.0) <= _CHECK_TOL
            and abs(np.trace(state).imag) <= _CHECK_TOL
            and np.linalg.eigvalsh(state).min() >= -_CHECK_TOL)


def _blocks(m: np.ndarray) -> list[np.ndarray]:
    """Connected components of the exact nonzero pattern of m | m.T.

    One (count, size) index array per component size, sizes ascending; the
    rows of an array are the components of that size, each in ascending
    index order.
    """
    n = m.shape[0]
    if n == 0:
        return []
    link = m != 0
    if link.all():
        return [np.arange(n)[None]]
    return _components(_connect(n, *link.nonzero()))


def _connect(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each of range(n) labelled with the smallest index of its connected
    component under the undirected edges src[k] - dst[k].

    Min-label propagation with pointer jumping, O(edges) per sweep.  A label
    only falls, and always names an index of its own component that is not
    above it; so a fixed point has equal labels on each edge.
    """
    lab = np.arange(n)
    while True:
        new = lab.copy()
        np.minimum.at(new, src, lab[dst])
        np.minimum.at(new, dst, lab[src])
        new = new[new]
        if (new == lab).all():
            return lab
        lab = new


def _edges(groups) -> np.ndarray:
    """(src, dst) rows of the edges that link each index of the (count, size)
    index arrays `groups` to the first index of its row; under `_connect`
    they join the partitions the groups give."""
    return np.concatenate([np.stack((idx.ravel(), np.repeat(idx[:, 0], idx.shape[1])))
                           for idx in groups], axis=1)


def _components(lab: np.ndarray) -> list[np.ndarray]:
    """The classes of equal labels, grouped as `_blocks` returns them; every
    label must be an index into `lab`."""
    n = len(lab)
    size = np.bincount(lab, minlength=n)[lab]
    order = np.lexsort((lab, size))
    size = size[order]
    cuts = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1).tolist(), n]
    return [order[a:b].reshape(-1, size[a]) for a, b in zip(cuts, cuts[1:])]


def _slabs(stack: np.ndarray) -> list[slice]:
    """Consecutive slices of a (count, b, b) stack, each of at most
    `_SLAB_BYTES` or of a single matrix, whichever is more."""
    per = max(1, _SLAB_BYTES // (stack.itemsize * stack.shape[1] * stack.shape[2] or 1))
    return [slice(k, k + per) for k in range(0, len(stack), per)]


def _stacked(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the (count, size, size) stack of blocks on the components `idx`."""
    return idx[:, :, None], idx[:, None, :]


def _gather(m: np.ndarray) -> list[tuple]:
    """The [(idx, stack)] blocks of a square m over `_blocks(m)`; a matrix
    with one component is its own single block, with no copy."""
    blocks = _blocks(m)
    if len(blocks) == 1 and len(blocks[0]) == 1:
        return [(blocks[0], m[None])]
    return [(idx, m[_stacked(idx)]) for idx in blocks]


def _layout(groups, dim: int) -> tuple:
    """Places of blocks over the partition `groups` in one flat row: entry
    (i, j) of a block at start[i] + col[j], so col[i] is the place of index
    i in its block.  Returns (start, col, spans, size), with the (offset,
    count, b) span of each group's (count, b, b) stack and the row's size."""
    start, col = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
    spans, size = [], 0
    for idx in groups:
        count, b = idx.shape
        start[idx] = size + b * np.arange(count * b).reshape(count, b)
        col[idx] = np.arange(b)
        spans.append((size, count, b))
        size += count * b * b
    return start, col, spans, size


def _dense(blocks, dim: int) -> np.ndarray:
    """The dim x dim matrix of [(idx, stack)] blocks, zero between them; a
    single block on every index is returned as it is."""
    if len(blocks) == 1 and blocks[0][0].shape == (1, dim):
        return blocks[0][1][0]
    out = np.zeros((dim, dim), dtype=complex)
    for idx, stack in blocks:
        out[_stacked(idx)] = stack
    return out


def expm_i(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, unitary to rounding: by Taylor series on
    a block of at least `_TAYLOR_MIN_SIZE` with ||t h||_1 < 1, by
    eigendecomposition on any other.  ValueError naming `t` when
    |t| ||h||_1 overflows."""
    h = _matrix(h, "expm_i requires a Hermitian generator h; it", error=NonHermitianError)
    return _dense(_expm_blocks(_gather(h), t), h.shape[0])


def _expm_blocks(blocks, t: float) -> list[tuple]:
    """exp(-i h t) of the complex Hermitian h with [(idx, stack)] blocks, as
    blocks on the same components: the (count, size, size) stack of
    exponentials of each stack, filled slab by slab.  A matrix of a block of
    at least `_TAYLOR_MIN_SIZE` with |t| ||h||_1 < 1 is exponentiated by
    `_expm_taylor`, which needs only matrix products; any other through
    `eigh`.  Each matrix's path is read from that matrix alone.

    h - h^+ is exactly zero between blocks, so the Hermitian test run on
    the blocks is the dense test; and the 1-norm of h is the largest of its
    blocks', so |t| ||h||_1, which bounds every entry and eigenvalue of
    t h, is checked block by block before any arithmetic with t.
    """
    if not _hermitian([s for _, s in blocks]):
        raise NonHermitianError("expm_i requires a Hermitian generator h")
    t = _finite(t, "t")
    out = []
    for idx, hs in blocks:
        u = np.empty(hs.shape, dtype=complex)
        for sl in _slabs(hs):
            hb, ub = hs[sl], u[sl]
            sums = np.abs(hb).sum(axis=1)
            # a Python float overflows to inf, with no warning
            if not math.isfinite(abs(t) * float(sums.max())):
                raise ValueError(f"t: |t| ||h||_1 overflows the float range at t = {t!r}")
            if hs.shape[1] < _TAYLOR_MIN_SIZE:
                _expm_eigh(hb, t, ub)
                continue
            taylor = abs(t) * sums.max(axis=1) < 1
            for path, kernel in ((taylor, _expm_taylor), (~taylor, _expm_eigh)):
                if path.all():
                    kernel(hb, t, ub)
                elif path.any():
                    part = hb[path]
                    ub[path] = kernel(part, t, np.empty(part.shape, dtype=complex))
        out.append((idx, u))
    return out


def _expm_eigh(h: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """exp(-i t h) of each matrix of the Hermitian (count, b, b) stack h
    through `eigh`, into and returning `out`."""
    # numpy's eigh takes longer on a stack of one than on its matrix
    vals, vecs = np.linalg.eigh(h[0] if len(h) == 1 else h)
    phase = np.exp(-1j * vals * t)[..., None, :]
    out[...] = (vecs * phase) @ vecs.conj().swapaxes(-1, -2)
    return out


def _expm_taylor(h: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """exp(-i t h) of each matrix of the Hermitian (count, b, b) stack h,
    each with |t| ||h||_1 < 1, into and returning `out`, which serves as
    one of its two work stacks.

    A = -i t (h + h^+) / 2 is anti-Hermitian, so a residue h - h^+ that
    `_hermitian` accepts does not take the result off unitarity.  exp(A) is
    the degree `_TAYLOR_DEGREE` Taylor polynomial, whose remainder at
    ||A||_1 < 1 is below 1e-18, evaluated by Paterson and Stockmeyer (SIAM
    J. Comput. 2, 60 (1973)): from A^2, A^3 and A^4, Horner's rule in A^4
    over blocks of four coefficients, 3 + degree // 4 products in all.
    """
    count, b = h.shape[:2]
    a = np.conjugate(h.swapaxes(1, 2), order="C")
    a += h
    a *= -0.5j * t
    a2 = a @ a
    powers = (a, a2, a2 @ a)
    a4 = a2 @ a2
    p, q = out, np.empty_like(a)
    diagonal = (slice(None), slice(None, None, b + 1))
    top = _TAYLOR_DEGREE // 4
    for j in range(top, -1, -1):
        # p becomes p A^4 + sum_i A^i / (4j + i)!, i = 0..3; q, free once
        # p A^4 is formed, holds each term
        if j == top:
            p[...] = 0
        else:
            np.matmul(p, a4, out=q)
            p, q = q, p
        for i in (3, 2, 1):
            p += np.multiply(powers[i - 1], _TAYLOR_COEF[4 * j + i], out=q)
        p.reshape(count, -1)[diagonal] += _TAYLOR_COEF[4 * j]
    if p is not out:
        out[...] = p
    return out


def generator_of(u: np.ndarray, total_time: float) -> np.ndarray:
    """Effective Hermitian generator H with u = exp(-i H total_time).

    Uses the principal matrix logarithm; eigenphases must stay at least
    `_BRANCH_TOL` (1e-6) away from the +-pi branch cut.  u is split into its
    blocks and each is taken by `_log_blocks`.  ValueError naming
    `total_time` when H's entries, up to max|phase| / |total_time|, overflow.
    """
    u = _matrix(u, "generator_of requires a unitary input u; it", error=NonUnitaryError)
    return _dense(_log_blocks(_gather(u), total_time)[0], u.shape[0])


def _log_blocks(blocks, total_time: float,
                overwrite: bool = False) -> tuple[list[tuple], float, float, float]:
    """The generator of a block-diagonal unitary, blockwise.

    Takes and returns [(idx, stack)] blocks, each filled slab by slab, and
    returns with them the branch margin min(pi - |phase|), the self-check
    max|T - diag e^{i phase}| and the unitarity max|g g^+ - 1| of its
    input test, each over all blocks.  The generator
    goes into new stacks, or, with `overwrite`, over the input stacks, slab
    by slab once each slab is read: only a caller that owns the blocks may
    ask for that.  Each block g is diagonalized through its
    Cayley transform A = i (1 + g)^-1 (1 - g), which is Hermitian with
    eigenvalue tan(phase/2) for each eigenphase of g, one to one on
    (-pi, pi): so `eigh` of A gives an orthonormal eigenbasis Q of g, for
    all blocks of one size in one stacked call.  A singular 1 + g is an
    eigenphase exactly at pi.  T = Q^+ g Q checks the result:
    g - exp(-i H total_time) = Q (T - diag e^{i phase}) Q^+.  The basis
    loses accuracy as 1/(pi - |phase|), to about 1e-9 in H at the branch
    margin `_BRANCH_TOL`.  A margin below it raises BranchCutError, and a
    self-check above `_SELFCHECK_TOL` raises ArithmeticError.  The
    generator's entries reach max|phase| / |total_time|, so ValueError
    names `total_time` when that, with headroom for the symmetrization,
    overflows.
    """
    # u u^+ - 1 is exactly zero between blocks, so this is the dense test
    unitarity = _unitarity([g for _, g in blocks])
    if not unitarity <= _CHECK_TOL:
        raise NonUnitaryError("generator_of requires a unitary input u")
    total_time = _finite(total_time, "total_time")
    if total_time == 0:
        raise ValueError("total_time must be nonzero")
    out, margin, selfcheck = [], np.pi, 0.0
    for idx, gs in blocks:
        one = np.eye(gs.shape[1])
        h = gs if overwrite else np.empty(gs.shape, dtype=complex)
        for sl in _slabs(gs):
            g = gs[sl]
            try:
                a = 1j * np.linalg.solve(one + g, one - g)
            except np.linalg.LinAlgError:
                raise BranchCutError(
                    "eigenphase at +-pi; shorten total_time") from None
            q = np.linalg.eigh(0.5 * (a + a.conj().swapaxes(1, 2)))[1]
            qh = q.conj().swapaxes(1, 2)
            tmat = qh @ g @ q
            phases = np.angle(np.diagonal(tmat, axis1=1, axis2=2))
            # rounding is monotone, so pi - max|phase| is min(pi - |phase|)
            top = float(np.abs(phases).max())
            margin = min(margin, np.pi - top)
            if margin < _BRANCH_TOL:
                raise BranchCutError(
                    f"eigenphase within {_BRANCH_TOL:g} of +-pi; shorten total_time")
            # hg + hg^+ below reaches twice that, and rounding a little
            # more; a Python float overflows to inf, with no warning
            if not math.isfinite(4 * top / abs(total_time)):
                raise ValueError("total_time: max|phase| / |total_time| overflows the float "
                                 f"range at total_time = {total_time!r}")
            selfcheck = max(selfcheck, max_abs(tmat - np.exp(1j * phases)[:, :, None] * one))
            if selfcheck > _SELFCHECK_TOL:
                raise ArithmeticError("principal log failed to reproduce the unitary")
            hg = (q * (-phases / total_time)[:, None, :]) @ qh
            h[sl] = 0.5 * (hg + hg.conj().swapaxes(1, 2))
        out.append((idx, h))
    return out, margin, selfcheck, unitarity
