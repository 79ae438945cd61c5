"""Decoupling pulse sequences: builders, exact propagation, serialization.

A `PulseSequence` stores events in matrix-product order: the first event in
the list is the leftmost factor of the propagator, i.e. the *last* one
applied.  This mirrors the bracket notation [tau, P, tau, Pdag], which read
right to left means "apply Pdag, evolve tau, apply P, evolve tau".

Instantaneous pulses are the idealized encoded exponentials
    P   = exp(-i pi/2 Xbar)      PDAG = exp(+i pi/2 Xbar)
    PI  = exp(+-i pi Xbar) = Z1 Z2
    Q   = exp(-i pi/2 Ybar)      QDAG = exp(+i pi/2 Ybar)
    LAM = exp(+-i pi Ybar) = Z1 Z2
Each is built in closed form as an exact monomial matrix (entries 0, +-1,
+-i), so a pulse permutes the exact block structure of a propagator
instead of filling it in with rounding-level entries.

Drives model weak continuous gate Hamiltonians that act together with the
system-bath coupling.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dfs import _checked_pair, logical_operators
from .gates import SmGateSpec, sm_gate_dense, x_phi
from .pauli import (
    OperatorSum, NonUnitaryError, _blocks, _components, _connect, _dense, _edges,
    _expm_blocks, _finite, _from_masks, _gather, _integer, _layout, _matrix, _pair, _place,
    _slabs, _stacked, _tuple, expm_i, is_unitary, to_dense,
)

_LABEL_GENERATOR = {
    # label -> (generator picker, cos t, sin t) of exp(-i t G); t is a
    # multiple of pi/2, so the exact values keep every pulse a monomial
    "P": ("Xbar", 0, 1),        # t = pi/2
    "PDAG": ("Xbar", 0, -1),    # t = -pi/2
    "PI": ("Xbar", -1, 0),      # t = pi
    "Q": ("Ybar", 0, 1),
    "QDAG": ("Ybar", 0, -1),
    "LAM": ("Ybar", -1, 0),
}
PULSE_LABELS = tuple(_LABEL_GENERATOR)


class SerializationError(ValueError):
    """Sequence contains an event without a text form."""


@dataclass(frozen=True)
class Free:
    """Free evolution under the ambient Hamiltonian for time tau."""

    tau: float

    def __post_init__(self):
        object.__setattr__(self, "tau", _checked_tau(self.tau))


def _checked_tau(tau) -> float:
    tau = _finite(tau, "tau")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return tau


@dataclass(frozen=True)
class NamedPulse:
    """Simultaneous product of named encoded pulses, one per (label, pair)."""

    ops: tuple[tuple[str, tuple[int, int]], ...]

    def __post_init__(self):
        ops = []
        for op in _tuple(self.ops, "pulse ops"):
            label, pair = _tuple(op, "pulse op")
            if label not in PULSE_LABELS:
                raise ValueError(f"unknown pulse label {label!r}")
            ops.append((label, _pair(pair, "pulse ions")))
        # stored as tuples of ints, so an event hashes as the key of its action
        object.__setattr__(self, "ops", tuple(ops))


@dataclass(frozen=True)
class SmPulse:
    """Instantaneous pulse given as an explicit gate spec."""

    spec: SmGateSpec


@dataclass(frozen=True, eq=False)
class RawPulse:
    """Instantaneous pulse given as an explicit system unitary."""

    matrix: np.ndarray

    def __post_init__(self):
        if not is_unitary(_matrix(self.matrix, "RawPulse matrix must be unitary; it",
                                  error=NonUnitaryError)):
            raise NonUnitaryError("RawPulse matrix must be unitary")


@dataclass(frozen=True)
class Drive:
    """Continuous drive: evolve under amplitude * h_sys + ambient Hamiltonian."""

    h_sys: OperatorSum
    tau: float
    amplitude: float
    axis: str | None = None      # with pair, names h_sys for serialization
    pair: tuple[int, int] | None = None
    phi: float = 0.0

    def __post_init__(self):
        if not isinstance(self.h_sys, OperatorSum):
            raise ValueError(f"drive h_sys must be an OperatorSum, got {self.h_sys!r}")
        object.__setattr__(self, "tau", _checked_tau(self.tau))
        object.__setattr__(self, "amplitude", _finite(self.amplitude, "drive amplitude"))
        object.__setattr__(self, "phi", _finite(self.phi, "drive phase"))
        if (self.axis is None) != (self.pair is None):
            raise ValueError("drive axis and pair must be set together")
        if self.pair is not None:
            object.__setattr__(self, "pair", _pair(self.pair, "drive ions"))
        if self.axis is not None and (self.axis not in ("X", "Y") or self.h_sys != (
                _drive_hamiltonian(self.axis, self.pair, self.h_sys.width, self.phi))):
            raise ValueError("drive h_sys is not the Hamiltonian of its axis, pair and phi")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse program; events in matrix-product order."""

    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        timed = [e for e in self.events if isinstance(e, (Free, Drive))]
        if timed and self.cycle_time <= 0:
            raise ValueError("sequences with timed events need cycle_time > 0")

    @property
    def cycle_time(self) -> float:
        return sum(e.tau for e in self.events if isinstance(e, (Free, Drive)))

    def pulse_count(self) -> int:
        return sum(1 for e in self.events if not isinstance(e, Free))

    def __mul__(self, other: "PulseSequence") -> "PulseSequence":
        return PulseSequence(self.events + other.events)


def named_pulse(label: str, pair: tuple[int, int] = (0, 1),
                width: int = 2) -> np.ndarray:
    """Dense system unitary of a named encoded pulse, an exact monomial.

    G = Xbar or Ybar has eigenvalues 0 and +-1, so G^3 = G and
    exp(-i t G) = 1 + (cos t - 1) G^2 - i sin t G; with the exact cos t and
    sin t of `_LABEL_GENERATOR` every entry is 0, +-1 or +-i.  A `pair` that
    is not two distinct ions of the register raises ValueError.
    """
    if label not in _LABEL_GENERATOR:
        raise KeyError(f"unknown pulse label {label!r}")
    which, cos_t, sin_t = _LABEL_GENERATOR[label]
    xb, yb, _ = logical_operators(pair, width)
    g = xb if which == "Xbar" else yb
    return (np.eye(2 ** width, dtype=complex) + (cos_t - 1) * to_dense(g @ g)
            - 1j * sin_t * to_dense(g))


# ---------------------------------------------------------------------------
# sequence builders


def parity_kick(r: np.ndarray, tau: float) -> PulseSequence:
    """[tau, R, tau, Rdag]: cancels ambient terms that anticommute with R;
    NonUnitaryError unless r is unitary."""
    r = _matrix(r, "parity_kick requires a unitary r; it", error=NonUnitaryError)
    return PulseSequence((Free(tau), RawPulse(r), Free(tau), RawPulse(r.conj().T)))


def symmetrize_pair(tau: float, pair: tuple[int, int] = (0, 1)) -> PulseSequence:
    """[tau, P, tau, PDAG]: turns general two-ion dephasing into collective
    dephasing, exactly when the bath has no free Hamiltonian."""
    return PulseSequence((
        Free(tau), NamedPulse((("P", pair),)),
        Free(tau), NamedPulse((("PDAG", pair),)),
    ))


def symmetrize_block4(tau: float, n_ions: int) -> PulseSequence:
    """Two-stage symmetrization creating block-of-4 collective dephasing.

    Stage 1 flips nearest-neighbour differentials with pair pulses; stage 2
    flips the surviving next-nearest differentials, with the nnn couplings
    restricted to each disjoint 4-ion block.
    """
    if _integer(n_ions, "n_ions", 4) % 4 != 0:
        raise ValueError("n_ions must be a multiple of 4")
    nn = tuple((2 * j, 2 * j + 1) for j in range(n_ions // 2))
    nnn = tuple(p for k in range(n_ions // 4)
                for p in ((4 * k, 4 * k + 2), (4 * k + 1, 4 * k + 3)))
    # X_nn = (x)_pairs exp(+i pi/2 Xbar) = product of PDAG pulses
    xnn = NamedPulse(tuple(("PDAG", p) for p in nn))
    xnn_d = NamedPulse(tuple(("P", p) for p in nn))
    xnnn = NamedPulse(tuple(("PDAG", p) for p in nnn))
    xnnn_d = NamedPulse(tuple(("P", p) for p in nnn))
    inner = (Free(tau), xnn, Free(tau), xnn_d)
    return PulseSequence(inner + (xnnn,) + inner + (xnnn_d,))


def leak_elim_cycle(tau: float, pair: tuple[int, int] = (0, 1)) -> PulseSequence:
    """[tau, PI, tau, PI]: the pi pulse Z1 Z2 cancels every leakage coupling."""
    pi = NamedPulse((("PI", pair),))
    return PulseSequence((Free(tau), pi, Free(tau), pi))


def four_pulse_cycle(tau: float, pair: tuple[int, int] = (0, 1)) -> PulseSequence:
    """[tau, PI, tau, P, tau, PI, tau, PDAG]: first order keeps only the DFS
    part and the Xbar coupling."""
    pi = NamedPulse((("PI", pair),))
    return PulseSequence((
        Free(tau), pi, Free(tau), NamedPulse((("P", pair),)),
        Free(tau), pi, Free(tau), NamedPulse((("PDAG", pair),)),
    ))


def ten_pulse_cycle(tau: float, pair: tuple[int, int] = (0, 1)) -> PulseSequence:
    """Q-conjugated double four-pulse cycle; first order keeps only the DFS part."""
    block = four_pulse_cycle(tau, pair).events
    return PulseSequence(
        block + (NamedPulse((("QDAG", pair),)),)
        + block + (NamedPulse((("Q", pair),)),))


def _drive_hamiltonian(axis: str, pair: tuple[int, int], width: int,
                       phi: float) -> OperatorSum:
    """X_phi (x) X_phi for axis X (encoded +Xbar); for axis Y the first ion
    gets phi + pi/2 so dphi = +pi/2 and the encoded generator is +Ybar."""
    phi = _finite(phi, "drive phase")  # before any cosine of it
    pair = _checked_pair(pair, width)
    phi_i = phi if axis == "X" else phi + np.pi / 2
    return _from_masks(width, (
        ((_place(ta.x << 1 | tb.x, pair, width), _place(ta.z << 1 | tb.z, pair, width), None),
         ta.coefficient * tb.coefficient)
        for ta in x_phi(phi_i).terms for tb in x_phi(phi).terms))


def combined_gate(axis: str, t: float, omega_drive: float,
                  pair: tuple[int, int] = (0, 1), width: int = 2,
                  phi: float = 0.0) -> PulseSequence:
    """Logic gate merged with decoupling: four weak drive quarters interleaved
    with strong pulses that commute with the drive.

    Bath off, the code-space action is exp(-i omega_drive * t * axis-bar).
    """
    if _finite(t, "t") <= 0:
        raise ValueError("t must be positive")
    if axis == "X":
        big, half = ("PI", pair), ("P", pair)
    elif axis == "Y":
        big, half = ("LAM", pair), ("Q", pair)
    else:
        raise ValueError("combined_gate supports axes X and Y; synthesize Z "
                         "via euler_rotation")
    h = _drive_hamiltonian(axis, pair, width, phi)
    drv = Drive(h, t / 4, omega_drive, axis=axis, pair=pair, phi=phi)
    half_dag = (half[0] + "DAG", pair)
    return PulseSequence((
        drv, NamedPulse((big,)), drv, NamedPulse((half,)),
        drv, NamedPulse((big,)), drv, NamedPulse((half_dag,)),
    ))


def euler_rotation(alpha: float, beta: float, gamma: float,
                   omega_drive: float, pair: tuple[int, int] = (0, 1),
                   width: int = 2) -> PulseSequence:
    """X-Y-X factor sequence: code-space action (bath off) equals
    exp(-i alpha Xbar) exp(-i beta Ybar) exp(-i gamma Xbar).

    Zero-angle factors are elided; the emitted program never exceeds
    24 pulses (8 per factor).
    """
    if _finite(omega_drive, "omega_drive") <= 0:
        raise ValueError("omega_drive must be positive")
    events: tuple = ()
    for axis, angle, what in (("X", alpha, "alpha"), ("Y", beta, "beta"), ("X", gamma, "gamma")):
        angle = math.fmod(_finite(angle, what), 2 * np.pi)
        if angle < 0:
            angle += 2 * np.pi
        if abs(angle) < 1e-15 or abs(angle - 2 * np.pi) < 1e-15:
            continue
        events += combined_gate(axis, angle / omega_drive, omega_drive,
                                pair, width).events
    return PulseSequence(events)


def euler_angles_xyx(target: np.ndarray) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma) with, up to global phase,
    target = Gx(alpha) Gy(beta) Gx(gamma), where Gx(a) = exp(-i a sigma_x)
    and Gy(b) = exp(+i b sigma_y) are the code-space pulse primitives.
    NonUnitaryError unless target is a 2 x 2 unitary."""
    u = _matrix(target, "euler_angles_xyx requires a unitary target; it", (2, 2),
                NonUnitaryError)
    if not is_unitary(u):
        raise NonUnitaryError("euler_angles_xyx requires a unitary target")
    det = np.linalg.det(u)
    u = u / np.sqrt(det)  # SU(2) up to sign
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    v = had @ u @ had  # x <-> z axis swap
    # ZYZ extraction: v = Rz(a) Ry(b) Rz(c)
    b = 2 * np.arctan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[0, 0]) > 1e-12 and abs(v[1, 0]) > 1e-12:
        a = -np.angle(v[0, 0]) + np.angle(v[1, 0])
        c = -np.angle(v[0, 0]) - np.angle(v[1, 0])
    elif abs(v[0, 0]) > 1e-12:
        a = -2 * np.angle(v[0, 0])
        c = 0.0
    else:
        a = 2 * np.angle(v[1, 0])
        c = 0.0
    # U = H V H = Rx(a) Ry(-b) Rx(c); Gx(t) = Rx(2t), Gy(t) = Ry(-2t)
    return a / 2, b / 2, c / 2


# ---------------------------------------------------------------------------
# propagation


@dataclass(frozen=True)
class EvolutionModel:
    """Ambient Hamiltonian for sequence propagation: width qubits (x) bath."""

    width: int
    bath_dim: int = 1
    h_static: np.ndarray | None = None  # full-dimension H_SB + H_B, rad/s

    def __post_init__(self):
        width, bath_dim = _integer(self.width, "width", 0), _integer(self.bath_dim, "bath_dim", 1)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "bath_dim", bath_dim)
        dim = (2 ** width) * bath_dim
        h = self.h_static
        if h is None:
            h = np.zeros((dim, dim), dtype=complex)
        object.__setattr__(self, "h_static", _matrix(h, "h_static", (dim, dim)))

    @property
    def dim(self) -> int:
        return (2 ** self.width) * self.bath_dim


def _pulse_unitary(event, width: int) -> np.ndarray:
    """System unitary S of an instantaneous pulse; it acts as S (x) I_B."""
    if isinstance(event, NamedPulse):
        sys = np.eye(2 ** width, dtype=complex)
        for label, pair in event.ops:
            sys = sys @ named_pulse(label, pair, width)
    elif isinstance(event, SmPulse):
        sys = sm_gate_dense(event.spec, width)
    elif isinstance(event, RawPulse):
        sys = _matrix(event.matrix, f"a pulse on a {width}-qubit register", (2 ** width,) * 2)
    else:
        raise TypeError(f"unknown event {event!r}")
    return sys


def _event_action(event, width: int, bath_dim: int, static: list) -> tuple:
    """(monomial, blocks) of one event's joint unitary, one of them None.

    A pulse whose system matrix has one nonzero per row and per column is
    the monomial (q, w): row r holds w[r] in column q[r].  Any other event
    is the [(idx, stack)] blocks of its unitary: a free segment's over the
    blocks `static` of the ambient Hamiltonian, a drive's over the exact
    components of the ambient Hamiltonian plus the drive.
    """
    if isinstance(event, Free):
        return None, _expm_blocks(static, event.tau)
    if isinstance(event, Drive):
        # the drive's system Hamiltonian times the bath identity
        h = (_dense(static, 2 ** width * bath_dim)
             + event.amplitude * to_dense(event.h_sys, bath_dim))
        return None, _expm_blocks(_gather(h), event.tau)
    if isinstance(event, NamedPulse):
        return _named_action(event, width, bath_dim)
    return _pulse_action(event, width, bath_dim)


def _pulse_action(event, width: int, bath_dim: int) -> tuple:
    """`_event_action` of a pulse, S (x) I_B."""
    s = _pulse_unitary(event, width)
    bath = np.arange(bath_dim)
    nz = s != 0
    if (nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all():
        q = nz.argmax(axis=1)
        mono = ((q[:, None] * bath_dim + bath).ravel(),
                np.repeat(s[np.arange(len(s)), q], bath_dim))
        for a in mono:
            a.flags.writeable = False
        return mono, None
    # each system component once per bath state
    return None, [((idx[:, None, :] * bath_dim + bath[:, None]).reshape(-1, idx.shape[1]),
                   np.repeat(s[_stacked(idx)], bath_dim, axis=0))
                  for idx in _blocks(s)]


# a named pulse is fixed by its labels and pairs, so its action is kept
# from call to call; it is read-only
_named_action = lru_cache(maxsize=256)(_pulse_action)


def propagator(seq: PulseSequence, model: EvolutionModel) -> np.ndarray:
    """Ordered product of event propagators (first event leftmost): the
    blocks of `_propagator_blocks` over the blocks of `model.h_static`,
    scattered into a zero matrix."""
    return _dense(_propagator_blocks(seq, model.width, model.bath_dim,
                                     _gather(model.h_static)), model.dim)


def _propagator_blocks(seq: PulseSequence, width: int, bath_dim: int,
                       static: list) -> list[tuple]:
    """The product of `propagator` as [(idx, stack)] blocks, on `width`
    qubits and a bath of `bath_dim`, under the ambient Hamiltonian given as
    its [(idx, stack)] blocks `static`.

    The product is taken in the toggling frame of the pulses (Viola, Knill
    and Lloyd, PRL 82, 2417 (1999)).  Walking the events from the right,
    the product so far is U = T D, with T the product of the monomial
    pulses: a permutation with phases, row r holding w[r] in column q[r].
    A monomial pulse P makes T into P T in O(dim).  Any other event F (a
    free or driven segment, or a pulse that is not a monomial) joins D on
    the left as T^-1 F T: F's own blocks relabelled through q and rescaled
    by w and 1/w, in O(sum b^2); 1/w keeps exact phases exact.

    The blocks are those of the join of every factor's partition with the
    orbits r - q[r] of the final frame.  D's factors are block diagonal
    over it, and q maps each of its blocks onto itself, so U has the same
    blocks, row r of a block being w[r] times row q[r] of D's.

    Memory: `static` is released here once every event's action is known,
    so a caller that passes it unnamed does not keep it through the
    product.  Then `_frame_product` multiplies the factors into D, which
    holds one frame per factor, the distinct factors' blocks, D and one
    slab of scratch.  U is written over D slab by slab, each slab's rows
    read from that slab alone, and D's storage is returned.
    """
    dim = 2 ** width * bath_dim
    q, w = np.arange(dim), np.ones(dim, dtype=complex)
    actions: dict = {}  # each event is its own key; a RawPulse keys by identity
    frames = []  # (blocks, q, w) of each factor T^-1 F T, rightmost first
    for event in reversed(seq.events):
        if event not in actions:
            actions[event] = _event_action(event, width, bath_dim, static)
        mono = actions[event][0]
        if mono is None:
            frames.append((actions[event][1], q, w))
        else:
            q, w = q[mono[0]], mono[1] * w[mono[0]]
    del static
    edges = [_edges([qf[idx] for idx, _ in blocks]) for blocks, qf, _ in frames]
    groups = _components(_connect(dim, *np.concatenate(
        edges + [np.stack((np.arange(dim), q))], axis=1)))
    col, ds = _frame_product(frames, groups, dim)
    del actions, frames  # the factors' blocks are no longer needed
    # index i is column col[i] of its block, so row r is row col[q[r]] of D's
    for idx, d in zip(groups, ds):
        for sl in _slabs(d):
            ix = idx[sl]
            d[sl] = w[ix][..., None] * d[sl][np.arange(len(ix))[:, None], col[q[ix]]]
    return list(zip(groups, ds))


def _frame_product(frames, groups, dim: int) -> tuple:
    """D of `_propagator_blocks` over the partition `groups`: (col, stacks),
    with D's (count, b, b) stack on each group and col[i] the place of
    index i in its block.

    D starts as the identity, which the first factor replaces; each later
    factor F makes D into F D.  The join is coarser than every factor's
    partition, so each relabelled block of a factor lies inside one block
    of D, and so inside the slab of D that holds the place of its first
    index.  A factor is scattered into one slab of scratch per slab of D,
    and that slab of D is multiplied by it there: the product holds D and
    one slab of temporaries besides the factors.
    """
    start, col, spans, size = _layout(groups, dim)
    flat = np.zeros(size, dtype=complex)
    flat[start + col] = 1
    stacks = [flat[at:at + count * b * b].reshape(count, b, b) for at, count, b in spans]
    # each slab of D with the place of its first entry in `flat`
    slabs = [(d[sl], at + sl.start * b * b)
             for d, (at, _, b) in zip(stacks, spans) for sl in _slabs(d)]
    firsts = np.array([at for _, at in slabs])
    scratch = np.empty(max(d.size for d, _ in slabs), dtype=complex)
    for k, (blocks, qf, wf) in enumerate(frames):
        inv = 1 / wf
        # each stack of the factor relabelled, and its rows in each slab of D
        parts = [(idx, stack, qf[idx], _rows_by_slab(start[qf[idx[:, 0]]], firsts))
                 for idx, stack in blocks]
        for n, (d, at) in enumerate(slabs):
            f = scratch[:d.size] if k else d.reshape(-1)
            f[:] = 0
            for idx, stack, j, rows in parts:
                ix, jx = idx[rows[n]], j[rows[n]]
                f[(start[jx] - at)[..., None] + col[jx][..., None, :]] = (
                    stack[rows[n]] * inv[ix][..., None] * wf[ix][..., None, :])
            if k:
                d[...] = f.reshape(d.shape) @ d
    return col, stacks


def _rows_by_slab(places: np.ndarray, firsts: np.ndarray) -> list:
    """The rows of a stack that lie in each slab of D, given the place of
    each row's first entry and of each slab's first entry: a slice where
    they are consecutive, so the stack is read as a view, else an array."""
    if len(firsts) == 1:  # no search for the one slab of a small propagator
        return [slice(None)]
    which = np.searchsorted(firsts, places, side="right") - 1
    order = np.argsort(which, kind="stable")
    cuts = np.searchsorted(which[order], np.arange(len(firsts) + 1))
    runs = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    # each run ascends, so it is consecutive when its ends are len - 1 apart
    return [slice(r[0], r[-1] + 1) if len(r) and r[-1] - r[0] == len(r) - 1 else r
            for r in runs]


# ---------------------------------------------------------------------------
# text form

_PULSE_RE = re.compile(r"^([A-Z]+)@(\d+):(\d+)$")


def seq_to_text(seq: PulseSequence) -> str:
    """Line-oriented text form, e.g. ``[tau=1e-07, PI@0:1, tau=1e-07, P@0:1]``."""
    parts = []
    for e in seq.events:
        if isinstance(e, Free):
            parts.append(f"tau={e.tau!r}")
        elif isinstance(e, NamedPulse):
            parts.append("*".join(f"{lab}@{i}:{j}" for lab, (i, j) in e.ops))
        elif isinstance(e, Drive):
            if e.axis is None or e.pair is None:
                raise SerializationError("generic drives have no text form")
            parts.append(
                f"DRIVE(axis={e.axis};pair={e.pair[0]}:{e.pair[1]};"
                f"tau={e.tau!r};amp={e.amplitude!r};phi={e.phi!r})")
        elif isinstance(e, SmPulse):
            s = e.spec
            phis = ",".join(repr(p) for p in s.phis)
            ions = ",".join(str(i) for i in s.ions)
            parts.append(f"SM(theta={s.theta!r};phis={phis};ions={ions})")
        else:
            raise SerializationError(f"event {type(e).__name__} has no text form")
    return "[" + ", ".join(parts) + "]"


def seq_from_text(text: str, width: int | None = None) -> PulseSequence:
    """Parse the text form produced by seq_to_text.

    `width` is the register the drives act on and every ion must lie in; by
    default it is the smallest one (at least 2 qubits) holding every ion the
    text names.  Raises ValueError for malformed text, missing fields and
    ions outside the register.
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("sequence text must be bracketed")
    body = text[1:-1].strip()
    if not body:
        return PulseSequence(())
    events = []
    for token in _split_top(body):
        token = token.strip()
        try:
            events.append(_event_from_text(token))
        except KeyError as exc:
            raise ValueError(f"{token!r} lacks the field {exc.args[0]!r}") from None
    sites = [q for e in events for q in _sites(e)]
    width = max([2] + [q + 1 for q in sites]) if width is None else _integer(width, "width", 0)
    if any(q >= width for q in sites):
        raise ValueError(f"ion {max(sites)} lies outside a {width}-qubit register")
    return PulseSequence(tuple(_text_drive(*e, width) if isinstance(e, tuple) else e
                               for e in events))


def _text_drive(axis: str, pair: tuple[int, int], tau: float, amplitude: float,
                phi: float, width: int) -> Drive:
    return Drive(_drive_hamiltonian(axis, pair, width, phi), tau, amplitude, axis, pair, phi)


def _sites(event) -> tuple[int, ...]:
    if isinstance(event, NamedPulse):
        return tuple(q for _, pair in event.ops for q in pair)
    if isinstance(event, SmPulse):
        return event.spec.ions
    if isinstance(event, tuple):  # the fields of a drive
        return event[1]
    return ()


def _event_from_text(token: str):
    if token.startswith("tau="):
        return Free(float(token[4:]))
    if token.startswith("DRIVE("):
        fields = dict(kv.split("=", 1) for kv in token[6:-1].split(";"))
        pair = _pair(map(int, fields["pair"].split(":")), "drive ions")
        axis = fields["axis"]
        if axis not in ("X", "Y"):
            raise ValueError(f"cannot parse drive {token!r}")
        # h_sys depends on the register width: the fields of `_text_drive`
        return (axis, pair, float(fields["tau"]), float(fields["amp"]),
                float(fields.get("phi", "0")))
    if token.startswith("SM("):
        fields = dict(kv.split("=", 1) for kv in token[3:-1].split(";"))
        return SmPulse(SmGateSpec(
            float(fields["theta"]),
            tuple(float(x) for x in fields["phis"].split(",")),
            tuple(int(x) for x in fields["ions"].split(","))))
    ops = []
    for factor in token.split("*"):
        m = _PULSE_RE.match(factor.strip())
        if not m:
            raise ValueError(f"cannot parse pulse token {factor!r}")
        ops.append((m.group(1), (int(m.group(2)), int(m.group(3)))))
    return NamedPulse(tuple(ops))


def _split_top(body: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out
