"""Two-ion DFS code: encoding, logical operators, and error classification.

The code space of a pair is span{|0_L> = |down,up>, |1_L> = |up,down>}.
With |up> = |0> and qubit i the slower factor of the pair, |0_L> sits at
index 2 and |1_L> at index 1 of the pair's 4-dimensional space.

Any Hermitian two-qubit coupling splits over a 16-operator basis into
three buckets: operators that act trivially on the code space (DFS),
operators that map the code space to its complement (leakage), and the
logical triple Xbar/Ybar/Zbar (unwanted encoded rotations).

`BASIS_TEMPLATES` is the only definition of that split.  The basis is
trace-orthogonal, so every coefficient, symbolic part and dense bucket
below is a projection onto its templates; nothing restates them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import (
    OperatorSum, _components, _connect, _edges, _from_masks, _gather, _integer, _ions, _layout,
    _masks, _matrix, _norm_blocks, _pair, _place, _slabs, _tuple, spectral_norm, to_dense,
)

CODE_ZERO_INDEX = 2  # |down, up>
CODE_ONE_INDEX = 1   # |up, down>

DFS_LABELS = ("II", "ZZ", "Zsum", "Xtilde", "Ytilde")
LOGI_LABELS = ("Xbar", "Ybar", "Zbar")
LEAK_LABELS = ("XI", "IX", "YI", "IY", "XZ", "ZX", "YZ", "ZY")
ALL_LABELS = DFS_LABELS + LOGI_LABELS + LEAK_LABELS

# each basis operator as weighted two-site Pauli strings
BASIS_TEMPLATES: dict[str, tuple[tuple[str, complex], ...]] = {
    "II": (("II", 1.0),),
    "ZZ": (("ZZ", 1.0),),
    "Zsum": (("ZI", 0.5), ("IZ", 0.5)),
    "Xtilde": (("XX", 0.5), ("YY", -0.5)),
    "Ytilde": (("YX", 0.5), ("XY", 0.5)),
    "Xbar": (("XX", 0.5), ("YY", 0.5)),
    "Ybar": (("YX", 0.5), ("XY", -0.5)),
    "Zbar": (("ZI", 0.5), ("IZ", -0.5)),
    **{lab: ((lab, 1.0),) for lab in LEAK_LABELS},
}
_BUCKET = {lab: bucket for bucket, labels in (
    ("DFS", DFS_LABELS), ("Logi", LOGI_LABELS), ("Leak", LEAK_LABELS))
    for lab in labels}
# each template as ((x, z), weight) over the pair, its first ion the high
# bit, and the template's squared norm sum |w|^2
_TEMPLATE_MASKS = {lab: tuple((_masks(ts), w) for ts, w in template)
                   for lab, template in BASIS_TEMPLATES.items()}
_TEMPLATE_NORM = {lab: sum(abs(w) ** 2 for _, w in template)
                  for lab, template in BASIS_TEMPLATES.items()}


class SupportError(ValueError):
    """Operator support extends beyond the declared pair, or the pair is not
    two distinct sites of the register."""


@dataclass(frozen=True)
class DfsRegister:
    """Ordered disjoint qubit pairs inside a physical register."""

    pairs: tuple[tuple[int, int], ...]
    width: int

    def __post_init__(self):
        width = _integer(self.width, "register width", 0)
        pairs = tuple(_pair(p, "register pair") for p in _tuple(self.pairs, "register pairs"))
        _ions([q for p in pairs for q in p], "sites of disjoint register pairs", width)
        if any(i > j for i, j in pairs):
            raise ValueError(f"register pairs {pairs} must each be ordered")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "width", width)

    @property
    def n_logical(self) -> int:
        return len(self.pairs)


def _pair_register(pair) -> DfsRegister:
    i, j = sorted(_pair(pair, "register pair"))
    return DfsRegister(((i, j),), j + 1)


def _checked_pair(pair, width: int) -> tuple[int, int]:
    width = _integer(width, "width", 0)
    try:
        return _pair(pair, "pair", width)
    except ValueError:
        raise SupportError(
            f"pair {pair!r} is not two distinct sites of a {width}-qubit register") from None


@functools.cache  # 16 labels for each (pair, width) a program uses
def _template(label: str, pair: tuple[int, int], width: int) -> tuple:
    """(x, z, weight) of each string of a basis template embedded at `pair`."""
    return tuple((_place(x, pair, width), _place(z, pair, width), w)
                 for (x, z), w in _TEMPLATE_MASKS[label])


def _embed_template(label: str, pair: tuple[int, int], width: int,
                    coefficient: complex = 1.0,
                    bath_slot: str | None = None) -> OperatorSum:
    return _from_masks(width, (((x, z, bath_slot), w * coefficient) for x, z, w
                               in _template(label, _checked_pair(pair, width), width)))


def basis_operator(label: str, pair: tuple[int, int] = (0, 1),
                   width: int = 2) -> OperatorSum:
    """One of the 16 classification basis operators, embedded at `pair`."""
    if not isinstance(label, str) or label not in BASIS_TEMPLATES:
        raise ValueError(f"unknown basis label {label!r}")
    return _embed_template(label, pair, width)


def logical_operators(pair: tuple[int, int],
                      width: int) -> tuple[OperatorSum, OperatorSum, OperatorSum]:
    """Encoded (Xbar, Ybar, Zbar) for the pair; each annihilates the
    complement span{|down,down>, |up,up>}."""
    return (_embed_template("Xbar", pair, width),
            _embed_template("Ybar", pair, width),
            _embed_template("Zbar", pair, width))


def tilde_operators(pair: tuple[int, int],
                    width: int) -> tuple[OperatorSum, OperatorSum]:
    """(Xtilde, Ytilde): annihilate the code space, act as encoded X, Y on
    the complement."""
    return (_embed_template("Xtilde", pair, width),
            _embed_template("Ytilde", pair, width))


@dataclass(frozen=True)
class ErrorDecomposition:
    """Coefficients of a single-pair coupling on the 16-operator basis,
    bucketed into DFS / leakage / logical parts."""

    pair: tuple[int, int]
    width: int
    dfs_part: OperatorSum
    leak_part: OperatorSum
    logi_part: OperatorSum
    coefficients: dict

    def recomposed(self) -> OperatorSum:
        return self.dfs_part + self.leak_part + self.logi_part

    def bucket_of(self, label: str) -> str:
        return _BUCKET[label]


def _component_sum(coeffs: dict, labels, pair: tuple[int, int],
                   width: int) -> OperatorSum:
    """Sum of the basis components whose label is in `labels`."""
    return _from_masks(width, (
        ((x, z, slot), w * v) for (lab, slot), v in coeffs.items() if lab in labels and v != 0
        for x, z, w in _template(lab, pair, width)))


def classify(h: OperatorSum, pair: tuple[int, int] | None = None) -> ErrorDecomposition:
    """Exact decomposition of a coupling supported on one pair.

    Raises SupportError if any term touches qubits outside the pair, or if
    the pair is not two distinct sites of h's register.
    """
    width = h.width
    if pair is None:
        support = 0
        for x, z, _ in h._keys:
            support |= x | z
        sites = [q for q in range(width) if support >> (width - 1 - q) & 1]
        if len(sites) == 2:
            pair = (sites[0], sites[1])
        elif width == 2:
            pair = (0, 1)
        else:
            raise SupportError(
                "cannot infer the pair; pass it explicitly")
    pair = _checked_pair(pair, width)
    si, sj = (width - 1 - q for q in pair)
    outside = ((1 << width) - 1) ^ (1 << si) ^ (1 << sj)
    # each term's two-site (x, z) masks, as in _TEMPLATE_MASKS
    two_site: dict[tuple[int, int, str | None], complex] = {}
    for (x, z, slot), c in zip(h._keys, h._coefs):
        if (x | z) & outside:
            raise SupportError(f"{h!r} is supported outside pair {pair}")
        key = ((x >> si & 1) << 1 | x >> sj & 1, (z >> si & 1) << 1 | z >> sj & 1, slot)
        two_site[key] = two_site.get(key, 0j) + c
    slots = sorted({s for *_, s in two_site}, key=lambda s: (s is not None, s or ""))
    # trace projection onto each template: sum conj(w) c / sum |w|^2
    coeffs: dict[tuple[str, str | None], complex] = {}
    for slot in slots:
        for lab, template in _TEMPLATE_MASKS.items():
            coeffs[(lab, slot)] = sum(
                w.conjugate() * two_site.get((x, z, slot), 0j) for (x, z), w in template
            ) / _TEMPLATE_NORM[lab]
    return ErrorDecomposition(
        pair=pair, width=width,
        dfs_part=_component_sum(coeffs, DFS_LABELS, pair, width),
        leak_part=_component_sum(coeffs, LEAK_LABELS, pair, width),
        logi_part=_component_sum(coeffs, LOGI_LABELS, pair, width),
        coefficients=coeffs,
    )


def logical_error_norms(dec: ErrorDecomposition, bath_dim: int = 1,
                        bindings: dict | None = None) -> dict[str, float]:
    """Spectral norms of the Xbar/Ybar/Zbar components and the leakage part."""
    out = {}
    for lab in LOGI_LABELS:
        op = _component_sum(dec.coefficients, (lab,), dec.pair, dec.width)
        out[lab] = spectral_norm(to_dense(op, bath_dim, bindings))
    out["Leak"] = spectral_norm(to_dense(dec.leak_part, bath_dim, bindings))
    return out


# ---------------------------------------------------------------------------
# states


def code_isometry(register: DfsRegister) -> np.ndarray:
    """Columns are the encoded computational basis states, pair 0 slowest."""
    dim = 2 ** register.width
    n = register.n_logical
    v = np.zeros((dim, 2 ** n), dtype=complex)
    for b in range(2 ** n):
        bits_phys = [0] * register.width  # 0 = up, spectators stay |up>
        for ell, (i, j) in enumerate(register.pairs):
            bit = (b >> (n - 1 - ell)) & 1
            # |0_L> = |down, up>, |1_L> = |up, down>
            bits_phys[i], bits_phys[j] = (1, 0) if bit == 0 else (0, 1)
        idx = 0
        for q in range(register.width):
            idx = (idx << 1) | bits_phys[q]
        v[idx, b] = 1.0
    return v


def encode(logical_state: np.ndarray, register: DfsRegister) -> np.ndarray:
    """Map a logical state vector into the physical register (norm-preserving)."""
    return code_isometry(register) @ _matrix(logical_state, "logical_state",
                                             (2 ** register.n_logical,))


def leakage_probability(state: np.ndarray, register: DfsRegister,
                        bath_dim: int = 1) -> float:
    """1 - <P_DFS> with P_DFS projecting every pair onto its code space; the
    state is a vector or a density matrix of the register (x) bath space."""
    bath_dim = _integer(bath_dim, "bath_dim", 1)
    v = code_isometry(register)
    p_sys = v @ v.conj().T
    proj = np.kron(p_sys, np.eye(bath_dim, dtype=complex))
    state = _matrix(state, "state", (len(proj),) if np.ndim(state) == 1 else proj.shape)
    if state.ndim == 1:
        val = np.vdot(state, proj @ state).real
    else:
        val = np.trace(proj @ state).real
    return float(min(1.0, max(0.0, 1.0 - val)))


# ---------------------------------------------------------------------------
# dense generator analysis

def _bath_block(h4: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Bath factor of the system operator p in h, Tr_sys[(p^dag (x) 1) h] / Tr(p^dag p);
    h4 is h reshaped to (dim_sys, bath_dim, dim_sys, bath_dim)."""
    return np.einsum("ji,jaib->ab", p.conj(), h4) / np.vdot(p, p).real


def bucket_operators(h: np.ndarray, bath_dim: int) -> dict[str, np.ndarray]:
    """Dense DFS/Leak/Xbar/Ybar/Zbar components of a two-qubit (x) bath operator."""
    bath_dim = _integer(bath_dim, "bath_dim", 1)
    h = _matrix(h, "h", (4 * bath_dim,) * 2)
    h4 = h.reshape(4, bath_dim, 4, bath_dim)
    out = {k: np.zeros_like(h) for k in ("DFS", "Leak") + LOGI_LABELS}
    for lab in ALL_LABELS:
        b = to_dense(basis_operator(lab))
        out[lab if lab in LOGI_LABELS else _BUCKET[lab]] += np.kron(b, _bath_block(h4, b))
    return out


def bucket_norms(h: np.ndarray, bath_dim: int) -> dict[str, float]:
    """Spectral norms of the five buckets of a two-qubit (x) bath operator."""
    return {k: spectral_norm(v) for k, v in bucket_operators(h, bath_dim).items()}


def block_collective_residual(h: np.ndarray, width: int, bath_dim: int,
                              blocks: tuple[tuple[int, ...], ...]) -> float:
    """Norm of what remains after removing bath-only and per-block collective
    dephasing components from a width-qubit (x) bath operator.

    `blocks` are groups of sites, each nonempty, and no site may appear
    twice, within a group or across groups: only then are the identity and
    the Z sums of the groups trace-orthogonal, so that removing the
    projection onto each removes their whole span.  Repeated or overlapping
    sites raise ValueError, as does an h that is not (2^width * bath_dim)
    square.  h is split into its blocks and taken by `_block_residual`.
    """
    width, bath_dim = _integer(width, "width", 0), _integer(bath_dim, "bath_dim", 1)
    h = _matrix(h, "h", (2 ** width * bath_dim,) * 2)
    return _block_residual(_gather(h), width, bath_dim, blocks)


def _block_residual(hblocks: list[tuple], width: int, bath_dim: int,
                    blocks: tuple[tuple[int, ...], ...]) -> float:
    """`block_collective_residual` of the operator with [(idx, stack)] blocks.

    The identity and the Z sums p are diagonal, so p (x) B_p is p[s, s] B_p
    on the (s, s) system block and zero elsewhere, and
    B_p = sum_s conj(p[s, s]) h_ss / Tr(p^+ p) needs only those blocks h_ss.
    They are gathered from h's blocks slab by slab, every B_p is taken, and
    they are dropped.  The residual is block diagonal over the join of h's
    blocks with the system states: h is laid out over that join, each
    p[s, s] B_p is subtracted from the (s, s) sub-blocks, in the order and
    with the products of the Kronecker form, and its norm is taken slab by
    slab.  So the pass holds h, one stack of h_ss or of the residual, and
    one slab of temporaries.
    """
    _ions([q for block in blocks for q in block], "sites of disjoint site blocks", width)
    if not all(blocks):
        raise ValueError(f"site blocks {blocks} must be nonempty, disjoint groups")
    dim_sys = 2 ** width
    dim = dim_sys * bath_dim
    states = np.arange(dim_sys)
    ps = [np.ones(dim_sys, dtype=complex)] + [
        sum(1 - 2 * (states >> (width - 1 - q) & 1) for q in block).astype(complex)
        for block in blocks]
    # entry (i, k) of h lies in the (s, s) block when i and k share the state s
    hss = np.zeros((dim_sys, bath_dim, bath_dim), dtype=complex)
    for idx, stack in hblocks:
        for sl in _slabs(stack):
            sys, bath = np.divmod(idx[sl], bath_dim)
            same = sys[:, :, None] == sys[:, None, :]
            pos = (sys * bath_dim + bath)[:, :, None] * bath_dim + bath[:, None, :]
            hss.reshape(-1)[pos[same]] = stack[sl][same]
    bs = [np.einsum("s,sab->ab", p.conj(), hss) / np.vdot(p, p).real for p in ps]
    del hss
    groups = _components(_connect(dim, *_edges(
        [idx for idx, _ in hblocks] + [np.arange(dim).reshape(dim_sys, bath_dim)])))
    start, col, spans, size = _layout(groups, dim)
    flat = np.zeros(size, dtype=complex)
    for idx, stack in hblocks:
        for sl in _slabs(stack):
            ix = idx[sl]
            flat[start[ix][..., None] + col[ix][..., None, :]] = stack[sl]
    # a joined block holds m whole system states, ascending; its (j, j)
    # sub-block is the (s, s) block of its j-th state s
    for idx, (at, count, b) in zip(groups, spans):
        d = flat[at:at + count * b * b].reshape(count, b // bath_dim, bath_dim,
                                                b // bath_dim, bath_dim)
        for k, row in enumerate(idx[:, ::bath_dim] // bath_dim):
            for j, s in enumerate(row):
                for p, b_p in zip(ps, bs):
                    d[k, j, :, j, :] -= p[s] * b_p
    return _norm_blocks(flat[at:at + count * b * b].reshape(count, b, b)
                        for at, count, b in spans)
