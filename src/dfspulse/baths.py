"""Bath models, thermal formulas, and trajectory-based decoherence metrics.

Two bath registers are kept deliberately separate:

* abstract finite-dimensional quantum baths (`DephasingBath`, `VibBath`)
  for the exactness theorems and generator analysis, and
* classical stochastic dephasing with a 1/f^alpha spectrum
  (`SpectralNoise`) for T2 scans.

The classical noise is a seeded sum of cosines with log-spaced frequencies,
Gaussian amplitudes matched to the target spectral density, and uniform
phases; free-evolution segments are integrated in closed form.

Dephasing runs use the toggling frame.  Every named pulse is monomial on the
code space: P and Q swap |0_L> and |1_L> up to a phase, PI and LAM add only
a global phase, and each swap is read from the exact pulse frame that
`sequences.propagator` carries.  The stored coherence therefore only picks up
a phase, which each swap negates, and a run reduces to a sign s_k per free
segment and one cumulative phase Phi = sum_k s_k (I1_k - I2_k) per
trajectory.  The segment integrals factor as a sin(wt + phi)/w =
sin(wt) (a cos(phi)/w) + cos(wt) (a sin(phi)/w), so Phi = [Im F | Re F] .
coef, with coef a trajectory's coefficients and F(t) = sum_k s_k
(e^{i w t_k} - e^{i w t_{k-1}}) the filter function of the sequence at each
harmonic (Cywinski et al., PRB 77, 174509 (2008)), which no trajectory
enters.  Every record sits at a cycle end, and the signs repeat every two
cycles, so F is a running sum over cycles of the one-cycle filter of each
cycle parity, each shifted by its cycle's phasor e^{i w m T}; a matmul at
the records alone applies the trajectories.  Collective noise has no rate
difference, so it has no harmonics and every coherence is exactly 1.

The engine walks the cycle ends in time order, a block at a time, and hands
back each record's trajectory phases as soon as its block is done.
`dephasing_run` reads every block; `suppression_scan` needs only T2, so each
of its runs stops after the first block whose coherence falls below 1/e.  A
scan run also skips the exponentials of each record that a lower bound from
the moments of its phases certifies to lie above 1/e; the records it does
compute are computed as `dephasing_run` computes them, so every T2 is the
full run's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dfs import CODE_ONE_INDEX, CODE_ZERO_INDEX, _checked_pair
from .pauli import (
    OperatorSum, PauliTerm, _embed, _finite, _integer, _matrix, _pair, _tuple,
    is_hermitian_matrix, spectral_norm, to_dense,
)
from .sequences import Free, NamedPulse, PulseSequence, _named_action

HBAR = 1.054571817e-34   # J s
KB = 1.380649e-23        # J / K

_TRAJ_CHUNK = 200        # trajectories per matmul; bounds memory in n_traj
_CYCLE_BLOCK = 32        # cycle ends per engine block; bounds memory in n_cycles
                         # and sets how soon a scan run stops
_T2_LEVEL = 1.0 / np.e   # T2 is the first crossing of this coherence
_CERTIFY_MARGIN = 1e-9   # a scan record whose coherence bound clears 1/e by this
                         # skips its exponentials; far above the bound's rounding
_TIMESCALE_MARGIN = 10.0  # the "much less" of dt << min(1/omega_c, t_dec)
# how the rates of the two ions relate: equal, opposite, or two processes
_NOISE_MODES = ("collective", "differential", "independent")


# ---------------------------------------------------------------------------
# quantum baths


@dataclass(frozen=True)
class DephasingBath:
    """Two-qubit dephasing bath: Z1 (x) b1 + Z2 (x) b2 (+ bath Hamiltonian).
    b1 is any Hermitian matrix, and b2 and h_bath Hermitian of its shape."""

    b1: np.ndarray
    b2: np.ndarray
    h_bath: np.ndarray | None = None

    def __post_init__(self):
        shape = None
        for name in ("b1", "b2") if self.h_bath is None else ("b1", "b2", "h_bath"):
            m = _matrix(getattr(self, name), f"{name} must be Hermitian; it", shape)
            if not is_hermitian_matrix(m):
                raise ValueError(f"{name} must be Hermitian")
            object.__setattr__(self, name, m)
            shape = m.shape

    @property
    def dim(self) -> int:
        return self.b1.shape[0]

    @property
    def b_col(self) -> np.ndarray:
        return (self.b1 + self.b2) / 2

    def hamiltonian(self, pair: tuple[int, int] = (0, 1), width: int = 2) -> np.ndarray:
        """Dense H_SB + H_B on the width-qubit (x) bath space."""
        i, j = _checked_pair(pair, width)
        op = (OperatorSum.single(width, i, "Z", 1.0, "b1")
              + OperatorSum.single(width, j, "Z", 1.0, "b2"))
        bindings = {"b1": self.b1, "b2": self.b2}
        if self.h_bath is not None:
            op = op + OperatorSum.from_label("I" * width, 1.0, "h_bath")
            bindings["h_bath"] = self.h_bath
        return to_dense(op, self.dim, bindings)


@dataclass(frozen=True)
class VibBath:
    """Damped vibrational mode: system oscillator exchanging quanta with
    bath modes.  All frequencies in rad/s; Hamiltonians carry rad/s units."""

    gamma: float
    mode_freqs: tuple[float, ...]
    omega0: float
    n_trunc: int
    temperature: float

    def __post_init__(self):
        for name in ("gamma", "omega0", "temperature"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        object.__setattr__(self, "n_trunc", _integer(self.n_trunc, "n_trunc", 2))
        object.__setattr__(self, "mode_freqs", tuple(
            _finite(w, "mode_freqs") for w in _tuple(self.mode_freqs, "mode_freqs")))
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not (self.omega0 > 0 and self.temperature > 0):
            raise ValueError("omega0 and temperature must be positive")


@dataclass(frozen=True)
class ThermalNumbers:
    n_mean: float
    t_dec: float  # infinite when gamma == 0


def thermal_numbers(v: VibBath) -> ThermalNumbers:
    """Mean occupation n(T) and thermal decoherence time 1/(gamma(1+2n))."""
    x = HBAR * v.omega0 / (KB * v.temperature)
    try:
        n = 1.0 / math.expm1(x)
    except OverflowError:  # x > 709.78; there 1/(e^x - 1) is e^-x in double precision
        n = math.exp(-x)
    t_dec = math.inf if v.gamma == 0 else 1.0 / (v.gamma * (1 + 2 * n))
    return ThermalNumbers(n_mean=n, t_dec=t_dec)


@dataclass(frozen=True)
class TimescaleCheck:
    satisfied: bool
    margin: float


def timescale_check(dt: float, omega_c: float, t_dec: float) -> TimescaleCheck:
    """Pulse-interval condition dt << min(1/omega_c, t_dec); the "much less"
    is encoded as margin >= `_TIMESCALE_MARGIN` (10).  Inputs may be
    infinite (an undamped mode has t_dec = inf); a NaN input, or a margin
    inf/inf, raises ValueError."""
    # an infinite input stays; any other must be a finite real
    dt, omega_c, t_dec = (x if x == math.inf else _finite(x, what) for x, what in
                          ((dt, "dt"), (omega_c, "omega_c"), (t_dec, "t_dec")))
    if not (dt > 0 and omega_c >= 0 and t_dec > 0):
        raise ValueError("require dt > 0, omega_c >= 0 and t_dec > 0")
    limit = t_dec if omega_c == 0 else min(1.0 / omega_c, t_dec)
    margin = limit / dt
    if math.isnan(margin):
        raise ValueError("dt and min(1/omega_c, t_dec) are both infinite")
    return TimescaleCheck(satisfied=bool(margin >= _TIMESCALE_MARGIN), margin=float(margin))


def _ladder(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    return a


def vib_hamiltonian(v: VibBath) -> OperatorSum:
    """Exchange coupling of the system mode to each bath mode, plus the mode
    energies, as an OperatorSum over oscillator slots (no qubits).

    Use vib_bindings(v) for the dense slot operators and layout.
    """
    terms = [PauliTerm((), v.omega0, "num_sys")]
    for k, w in enumerate(v.mode_freqs):
        terms.append(PauliTerm((), w, f"num_bath{k}"))
        terms.append(PauliTerm((), v.gamma, f"exchange{k}"))
    return OperatorSum(0, tuple(terms))


def vib_bindings(v: VibBath) -> tuple[tuple[int, ...], dict[str, np.ndarray]]:
    """(layout, bindings) realizing the oscillator slots on truncated Fock
    spaces, system mode first."""
    n = v.n_trunc
    layout = (n,) * (1 + len(v.mode_freqs))
    a = _ladder(n)
    num = a.conj().T @ a
    bindings = {"num_sys": _embed(num, (0,), layout)}
    for k in range(len(v.mode_freqs)):
        bindings[f"num_bath{k}"] = _embed(num, (1 + k,), layout)
        down_up = _embed(np.kron(a, a.conj().T), (0, 1 + k), layout)
        bindings[f"exchange{k}"] = down_up + down_up.conj().T
    return layout, bindings


def qubit_motional_error(pair: tuple[int, int] = (0, 1), width: int = 2,
                         bath_slot: str = "motional") -> OperatorSum:
    """(Y_i + Y_j) (x) bath slot: the leakage coupling left by a decohered
    vibrational mode during gate drive."""
    i, j = _checked_pair(pair, width)
    return (OperatorSum.single(width, i, "Y", 1.0, bath_slot)
            + OperatorSum.single(width, j, "Y", 1.0, bath_slot))


def bch_bound(h_s: np.ndarray, h_sb: np.ndarray, h_b: np.ndarray,
              t: float) -> dict[str, float]:
    """Second-order combination error bound for the weak-drive parity kick.

    bound = t^2 ||[H_SB, H_S] + [H_SB, H_B]|| / 2;
    t_max_weak = 1 / sqrt(||H_S|| ||H_SB||); the three are square, of one shape.
    """
    t = _finite(t, "t")
    h_s = _matrix(h_s, "h_s")
    h_sb, h_b = _matrix(h_sb, "h_sb", h_s.shape), _matrix(h_b, "h_b", h_s.shape)
    comm = (h_sb @ h_s - h_s @ h_sb) + (h_sb @ h_b - h_b @ h_sb)
    omega = spectral_norm(h_s)
    gamma_sb = spectral_norm(h_sb)
    t_max = math.inf if omega * gamma_sb == 0 else 1.0 / math.sqrt(omega * gamma_sb)
    return {"bound": 0.5 * t ** 2 * spectral_norm(comm), "t_max_weak": t_max}


# ---------------------------------------------------------------------------
# classical 1/f^alpha noise


@dataclass(frozen=True)
class SpectralNoise:
    """Stationary Gaussian dephasing-rate process with PSD ~ 1/omega^alpha on
    [omega_min, omega_max].  `amplitude` is the RMS rate (rad/s)."""

    alpha: float
    omega_min: float
    omega_max: float
    amplitude: float
    n_harmonics: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "omega_min", "omega_max", "amplitude"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        for name, least in (("n_harmonics", 8), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if not 0 < self.omega_min < self.omega_max:
            raise ValueError("require 0 < omega_min < omega_max")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")

    def frequencies(self) -> np.ndarray:
        """Deterministic log-spaced grid over [omega_min, omega_max]."""
        k = (np.arange(self.n_harmonics) + 0.5) / self.n_harmonics
        return self.omega_min * (self.omega_max / self.omega_min) ** k

    def variances(self) -> np.ndarray:
        """Per-harmonic amplitude variances matching PSD ~ omega^-alpha."""
        w = self.frequencies() ** (1.0 - self.alpha)
        return 2.0 * self.amplitude ** 2 * w / w.sum()

    @cached_property
    def _std(self) -> np.ndarray:
        return np.sqrt(self.variances())

    def draw(self, rng: np.random.Generator,
             out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(amplitudes, phases) for one trajectory, written into the two
        length-n_harmonics float arrays `out` when given.  The draws are
        rng.normal(size=n) and rng.uniform(0, 2 pi, size=n), bit for bit."""
        amps, phases = (np.empty(self.n_harmonics), np.empty(self.n_harmonics)) \
            if out is None else out
        rng.standard_normal(out=amps)
        amps *= self._std
        rng.random(out=phases)
        phases *= 2 * np.pi
        return amps, phases

    def trajectory_rng(self, traj_index: int, stream: int = 0) -> np.random.Generator:
        """Per-trajectory generator seeded by (seed, stream, traj_index), so
        independent of execution order: np.random.default_rng([seed, stream,
        traj_index]), with the seed words built directly."""
        words = _seed_words((self.seed, _integer(stream, "stream", 0),
                             _integer(traj_index, "traj_index", 0)))
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _seed_words(values: tuple[int, ...]) -> np.ndarray:
    """The entropy np.random.SeedSequence makes of a list of nonnegative
    ints: each int's 32-bit words, least significant first, 0 being one."""
    words = []
    for v in values:
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def sample_1f_trajectory(s: SpectralNoise, horizon: float,
                         dt_sample: float) -> tuple[np.ndarray, np.ndarray]:
    """One realization sampled on a uniform grid; deterministic given seed."""
    if not 0 < _finite(dt_sample, "dt_sample") < 2 * np.pi / s.omega_max:
        raise ValueError("dt_sample must lie in (0, 2*pi/omega_max), the Nyquist guard")
    t = np.arange(0.0, _finite(horizon, "horizon"), dt_sample)
    amps, phases = s.draw(s.trajectory_rng(0))
    values = np.cos(np.multiply.outer(t, s.frequencies()) + phases) @ amps
    return t, values


@dataclass(frozen=True)
class DephasingResult:
    times: np.ndarray
    coherence: np.ndarray
    t2: float  # inf when the curve never crosses 1/e


def _t2_from_curve(times: np.ndarray, coherence: np.ndarray) -> float:
    """First 1/e crossing, linearly interpolated."""
    below = np.nonzero(coherence < _T2_LEVEL)[0]
    if below.size == 0:
        return math.inf
    k = below[0]
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    c0, c1 = coherence[k - 1], coherence[k]
    return float(t0 + (c0 - _T2_LEVEL) / (c0 - c1) * (t1 - t0))


def dephasing_run(seq: PulseSequence, noise: SpectralNoise, n_traj: int,
                  pair: tuple[int, int] = (0, 1), n_cycles: int = 200,
                  mode: str = "differential", record_every: int = 1) -> DephasingResult:
    """Ensemble average of the encoded off-diagonal coherence under classical
    dephasing, with the pulse sequence repeated `n_cycles` >= 0 times and
    recorded every `record_every` >= 1 cycles.

    mode: "collective" (same rate on both ions), "differential" (opposite),
    or "independent" (two independent processes).  Coherence is normalized to
    its initial value; the returned t2 is the interpolated 1/e crossing.

    Toggling frame: free evolution multiplies the coherence by exp(-i dI_k),
    with dI_k the segment integral of the rate difference c1 - c2, and a
    swapping pulse, read from the exact frame of `sequences.propagator`,
    conjugates it, so after k segments its phase is Phi = sum_k s_k dI_k.
    At each record Phi is the filter F of `_record_filters` applied to the
    trajectory's coefficients.  Collective noise has no harmonics, so its
    coherence is exactly 1.  The cycle ends are processed _CYCLE_BLOCK at a
    time and the trajectories _TRAJ_CHUNK at a time, to bound peak memory;
    F carries across blocks.
    """
    n_cycles = _integer(n_cycles, "n_cycles", 0)
    record_every = _integer(record_every, "record_every", 1)
    pair = _pair(pair, "pair")
    return _toggling_run(seq, pair, n_cycles, record_every,
                         *_rate_coefficients(noise, n_traj, mode))


def _rate_coefficients(noise: SpectralNoise, n_traj: int,
                       mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The harmonic frequencies, and per trajectory the coefficients of the
    antiderivative of the rate difference c1 - c2 on [sin wt | cos wt]."""
    if mode not in _NOISE_MODES:
        raise ValueError(f"unknown noise mode {mode!r}")
    n_traj = _integer(n_traj, "n_traj", 1)
    om = noise.frequencies()

    def coefficients(stream: int) -> np.ndarray:
        # a sin(wt + phi) / w = [sin wt | cos wt] . [a cos phi | a sin phi] / w
        amps, phases = np.empty((n_traj, om.size)), np.empty((n_traj, om.size))
        for i in range(n_traj):
            noise.draw(noise.trajectory_rng(i, stream), (amps[i], phases[i]))
        weights = amps / om
        return np.hstack([weights * np.cos(phases), weights * np.sin(phases)])

    if mode == "independent":
        return om, coefficients(1) - coefficients(2)
    if mode == "differential":
        return om, 2.0 * coefficients(0)
    return om[:0], np.zeros((n_traj, 0))


def _sign_template(seq: PulseSequence, pair: tuple[int, int]) -> tuple[list, np.ndarray]:
    """The free durations of one cycle, and the toggling sign of each free
    segment over two cycles: -1 while the exact frame q of the pulses so far
    (`sequences._named_action`, each op's pair mapped onto (0, 1) by its
    orientation against `pair`) exchanges |0_L> and |1_L>.  An odd number of
    swaps per cycle flips the pattern of the next cycle, so two cycles are
    always a period."""
    orient = {pair: (0, 1), pair[::-1]: (1, 0)}
    q = np.arange(4)
    frees, swapped = [], []
    for e in seq.events:
        if isinstance(e, Free):
            frees.append(e.tau)
            swapped.append(q[CODE_ZERO_INDEX] == CODE_ONE_INDEX)
        elif isinstance(e, NamedPulse):
            if any(p not in orient for _, p in e.ops):
                raise ValueError("storage pulses must act on the stored pair")
            (frame, _), _ = _named_action(
                NamedPulse(tuple((label, orient[p]) for label, p in e.ops)), 2, 1)
            q = q[frame]
            # only a frame that keeps the code pair acts on the coherence as a sign
            if {q[CODE_ZERO_INDEX], q[CODE_ONE_INDEX]} != {CODE_ZERO_INDEX, CODE_ONE_INDEX}:
                raise ValueError("storage pulses must be monomial on the code space")
        else:
            raise ValueError("dephasing_run supports Free and named pulses only")
    if not frees:
        raise ValueError("storage sequences need at least one free segment")
    signs = np.where(swapped, -1.0, 1.0)
    flip = -1.0 if q[CODE_ZERO_INDEX] == CODE_ONE_INDEX else 1.0
    return frees, np.concatenate([signs, flip * signs])


def _cycle_filters(frees: list, period: np.ndarray, om: np.ndarray) -> np.ndarray:
    """The filter of one cycle for each cycle parity p, at each frequency:
    g_p = sum_j s_j^(p) (e^{i w tau_j} - e^{i w tau_{j-1}}), with tau_j the
    segment boundaries of a cycle that starts at 0 and s^(p) the signs of
    a cycle of parity p in the two-cycle `period` of `_sign_template`.
    Shape (2, len(om))."""
    tau = np.concatenate([[0.0], np.cumsum(frees)])
    steps = np.diff(np.exp(1j * np.multiply.outer(tau, om)), axis=0)
    return period.reshape(2, -1) @ steps


def _record_filters(seq: PulseSequence, pair: tuple[int, int], n_cycles: int,
                    record_every: int, om: np.ndarray):
    """The filter F(t) = sum_k s_k (e^{i w t_k} - e^{i w t_{k-1}}) over the
    segment boundaries up to each record, which sits at a cycle end.

    Cycle m adds e^{i w m T} g_{m mod 2} (`_cycle_filters`, T the cycle
    time), so F is one running sum over cycles.  The cycle ends 0..n_cycles
    are walked _CYCLE_BLOCK at a time; a block starting at cycle m0 takes
    its steps as e^{i w m0 T} times a per-run table of e^{i w k T} g_p, and
    its running sum continues from the F the block before ended on.  After
    each block this yields the (times, F) of the records it holds."""
    frees, period = _sign_template(seq, pair)
    g = _cycle_filters(frees, period, om)
    cycle = sum(frees)
    k = np.arange(_CYCLE_BLOCK)
    # steps[p, k]: the step of the k-th cycle of a block whose first cycle has parity p
    steps = np.exp(1j * np.multiply.outer(k * cycle, om)) * g[np.add.outer((0, 1), k) % 2]
    f_start = np.zeros(om.size, dtype=complex)
    for lo in range(0, n_cycles + 1, _CYCLE_BLOCK):
        hi = min(lo + _CYCLE_BLOCK, n_cycles + 1)
        # row j is F at cycle end lo + j; the last row starts the next block
        f = np.empty((hi - lo + 1, om.size), dtype=complex)
        f[0] = f_start
        np.multiply(np.exp(1j * om * (lo * cycle)), steps[lo % 2, :hi - lo], out=f[1:])
        np.cumsum(f, axis=0, out=f)
        f_start = f[-1]
        rec = np.arange(lo + -lo % record_every, hi, record_every)  # multiples in [lo, hi)
        yield rec * cycle, f[rec - lo]


def _block_phases(seq: PulseSequence, pair: tuple[int, int], n_cycles: int,
                  record_every: int, om: np.ndarray, coef: np.ndarray):
    """The toggling-frame engine: after each block of `_record_filters`,
    yield the times of the records it holds and their trajectory phases
    Phi = [Im F | Re F] . coef, one (records, trajectories) matmul per
    _TRAJ_CHUNK trajectories."""
    for times, f in _record_filters(seq, pair, n_cycles, record_every, om):
        table = np.hstack([f.imag, f.real])
        yield times, [table @ coef[start:start + _TRAJ_CHUNK].T
                      for start in range(0, len(coef), _TRAJ_CHUNK)]


def _coherence(phases: list, n_traj: int) -> np.ndarray:
    """|mean e^{-i Phi}| of each record from its per-chunk phases; the
    chunks are summed in a fixed order, which fixes the sum."""
    total = np.zeros(len(phases[0]), dtype=complex)
    for phase in phases:
        total += np.exp(-1j * phase).sum(axis=1)
    return np.abs(total) / n_traj


def _coherence_bound(phases: list, n_traj: int) -> np.ndarray:
    """A lower bound on each record's coherence, 1 - m2/2 + m4/24 - m6/720,
    from the central moments m2, m4, m6 of its phases.  With x = Phi - mean
    Phi, |mean e^{-i Phi}| >= mean cos x, and the degree-6 Taylor polynomial
    of cos lies below it on all of R.  A bound that overflows is -inf or NaN
    and certifies nothing."""
    mean = sum(phase.sum(axis=1) for phase in phases) / n_traj
    s2 = s4 = s6 = 0.0  # sums over the trajectories of the powers of Phi - mean
    with np.errstate(over="ignore", invalid="ignore"):
        for phase in phases:
            x2 = phase - mean[:, None]
            np.square(x2, out=x2)
            x4 = np.square(x2)
            s2, s4, s6 = s2 + x2.sum(axis=1), s4 + x4.sum(axis=1), s6 + (x4 * x2).sum(axis=1)
        m2, m4, m6 = s2 / n_traj, s4 / n_traj, s6 / n_traj
        return 1 - m2 / 2 + m4 / 24 - m6 / 720


def _toggling_run(seq: PulseSequence, pair: tuple[int, int], n_cycles: int,
                  record_every: int, om: np.ndarray, coef: np.ndarray) -> DephasingResult:
    """`dephasing_run` for drawn coefficients `coef` at frequencies `om`.
    With no harmonics (collective noise) every coherence is exactly 1, and
    no engine block is formed."""
    if om.size:
        blocks = [(t, _coherence(phases, len(coef))) for t, phases
                  in _block_phases(seq, pair, n_cycles, record_every, om, coef)]
        times = np.concatenate([t for t, _ in blocks])
        coherence = np.concatenate([c for _, c in blocks])
    else:
        cycle = sum(_sign_template(seq, pair)[0])
        times = np.arange(0, n_cycles + 1, record_every) * cycle
        coherence = np.ones(times.size)
    return DephasingResult(times=times, coherence=coherence,
                           t2=_t2_from_curve(times, coherence))


def _t2_search(seq: PulseSequence, pair: tuple[int, int], n_cycles: int,
               record_every: int, om: np.ndarray, coef: np.ndarray) -> float:
    """The t2 of `_toggling_run` with the same arguments, read only up to
    the engine block that holds the first 1/e crossing.

    A record whose `_coherence_bound` clears 1/e by `_CERTIFY_MARGIN` lies
    above 1/e, and skips its exponentials.  Every other record, and the
    record before the first crossing, is computed by `_coherence` from the
    same phases, so the crossing and its t2 are the full run's, bit for
    bit."""
    if not om.size:
        _sign_template(seq, pair)  # checks the pulses; with no harmonics nothing decays
        return math.inf
    n_traj = len(coef)
    last = None  # the time and phases of the last record read
    for times, phases in _block_phases(seq, pair, n_cycles, record_every, om, coef):
        if not times.size:
            continue
        # the records to compute: every one not certified, a NaN bound included
        rows = np.flatnonzero(~(_coherence_bound(phases, n_traj) > _T2_LEVEL + _CERTIFY_MARGIN))
        if rows.size:
            coherence = _coherence([phase[rows] for phase in phases], n_traj)
            below = np.flatnonzero(coherence < _T2_LEVEL)
            if below.size:
                k = rows[below[0]]
                # record 0 has phase 0, so it is certified and never the crossing
                t0, before = (times[k - 1], [phase[k - 1:k] for phase in phases]) if k else last
                return _t2_from_curve(np.array([t0, times[k]]),
                                      np.array([_coherence(before, n_traj)[0],
                                                coherence[below[0]]]))
        last = times[-1], [phase[-1:] for phase in phases]
    return math.inf


def _t2_gain(t2_pulsed: float, t2_base: float) -> float:
    """t2_pulsed / t2_base; an unbounded T2 on either side makes the gain inf."""
    return t2_pulsed / t2_base if math.isfinite(t2_pulsed) and math.isfinite(t2_base) else math.inf


@dataclass(frozen=True)
class ScanRow:
    dt: float
    t2_base: float
    t2_pulsed: float
    gain: float
    n_traj: int
    seed: int


def suppression_scan(seq_family, dt_grid, noise: SpectralNoise, n_traj: int,
                     t_max: float, mode: str = "differential") -> list[ScanRow]:
    """T2 gain of `seq_family(dt)` over a pulse-interval grid.

    The baseline is pulse-free storage on a fine recording grid; t_max caps
    every run's simulated horizon.  Every run sees the same `n_traj`
    trajectories, drawn once.  Each run, and each step of the baseline's
    horizon search, is a `_t2_search`: it stops at the engine block holding
    its first 1/e crossing, and reads on to t_max only if it never crosses.
    Every T2 equals the full `dephasing_run`'s, bit for bit.  t_max must be
    finite and positive.
    """
    if _finite(t_max, "t_max") <= 0:
        raise ValueError("t_max must be positive")
    dt_grid = [_finite(dt, "dt_grid") for dt in _tuple(dt_grid, "dt_grid")]
    if len(dt_grid) < 4:
        raise ValueError("dt grid needs at least 4 points")
    # every run sees the same trajectories, so they are drawn once
    om, coef = _rate_coefficients(noise, n_traj, mode)
    dt_base = min(dt_grid)
    base_seq = PulseSequence((Free(dt_base),))
    # grow the pulse-free horizon until the 1/e crossing is resolved; with no
    # harmonics there is none at any horizon
    horizon = t_max / 64
    while True:
        n_base = max(4, int(math.ceil(horizon / dt_base)))
        t2_base = _t2_search(base_seq, (0, 1), n_base, max(1, n_base // 4000), om, coef)
        if math.isfinite(t2_base) or horizon >= t_max or not om.size:
            break
        horizon = min(t_max, 4 * horizon)
    rows = []
    for dt in dt_grid:
        seq = seq_family(dt)
        n_cycles = max(4, int(math.ceil(t_max / seq.cycle_time)))
        t2 = _t2_search(seq, (0, 1), n_cycles, max(1, n_cycles // 4000), om, coef)
        rows.append(ScanRow(dt=dt, t2_base=t2_base, t2_pulsed=t2,
                            gain=_t2_gain(t2, t2_base), n_traj=n_traj, seed=noise.seed))
    return rows
