import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dfspulse.baths as baths_mod
from dfspulse.baths import (
    DephasingBath, SpectralNoise, VibBath, bch_bound, dephasing_run,
    qubit_motional_error, sample_1f_trajectory, suppression_scan, thermal_numbers,
    timescale_check, vib_bindings, vib_hamiltonian,
)
from dfspulse.dfs import (
    CODE_ONE_INDEX, CODE_ZERO_INDEX, basis_operator, bucket_norms, classify,
)
from dfspulse.gates import HardwareParams
from dfspulse.pauli import OperatorSum, SIGMA, expm_i, generator_of, kron_all, to_dense
from dfspulse.sequences import (
    PULSE_LABELS, EvolutionModel, Free, NamedPulse, PulseSequence, RawPulse,
    leak_elim_cycle, named_pulse, propagator, symmetrize_pair,
)

TWO_PI = 2 * np.pi
HBAR = 1.054571817e-34
KB = 1.380649e-23


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


# --- thermal formulas


def test_thermal_numbers_ln2_point():
    omega0 = TWO_PI * 5e6
    temp = HBAR * omega0 / (KB * math.log(2))
    tn = thermal_numbers(VibBath(gamma=2.0, mode_freqs=(), omega0=omega0,
                                 n_trunc=2, temperature=temp))
    assert tn.n_mean == pytest.approx(1.0, abs=1e-12)
    assert tn.t_dec == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_thermal_numbers_low_temperature_limit():
    tn = thermal_numbers(VibBath(gamma=5.0, mode_freqs=(), omega0=TWO_PI * 5e6,
                                 n_trunc=2, temperature=1e-6))
    assert tn.n_mean < 1e-30
    assert tn.t_dec == pytest.approx(1 / 5.0, rel=1e-9)


def test_thermal_numbers_past_the_overflow_of_expm1():
    # x = hbar omega0 / (kB T) passes log(DBL_MAX) = 709.78; below it the
    # closed form is unchanged, above it 1/(e^x - 1) is e^-x, then 0.0
    omega0 = TWO_PI * 5e6
    for x in (700.0, 709.78):
        temp = HBAR * omega0 / (KB * x)
        tn = thermal_numbers(VibBath(gamma=5.0, mode_freqs=(), omega0=omega0,
                                     n_trunc=2, temperature=temp))
        assert tn.n_mean == 1.0 / math.expm1(HBAR * omega0 / (KB * temp))
    for temp, n_mean in ((HBAR * omega0 / (KB * 720.0), math.exp(-720.0)), (1e-7, 0.0)):
        tn = thermal_numbers(VibBath(gamma=5.0, mode_freqs=(), omega0=omega0,
                                     n_trunc=2, temperature=temp))
        assert tn.n_mean == pytest.approx(n_mean, rel=1e-9, abs=0.0)  # a subnormal at 720
        assert tn.t_dec == 1 / 5.0


def test_thermal_numbers_trap_regime():
    # omega0 = 2pi*5 MHz, T = 10 mK, gamma = 1e3/s; oracle evaluated inline
    omega0, temp, gamma = TWO_PI * 5e6, 10e-3, 1e3
    x = HBAR * omega0 / (KB * temp)
    n_expect = 1.0 / (math.exp(x) - 1.0)
    tn = thermal_numbers(VibBath(gamma=gamma, mode_freqs=(), omega0=omega0,
                                 n_trunc=2, temperature=temp))
    assert tn.n_mean == pytest.approx(n_expect, rel=1e-10)
    assert tn.t_dec == pytest.approx(1 / (gamma * (1 + 2 * n_expect)), rel=1e-10)


def test_thermal_gamma_zero_flagged_infinite():
    tn = thermal_numbers(VibBath(gamma=0.0, mode_freqs=(), omega0=1e7,
                                 n_trunc=2, temperature=0.01))
    assert math.isinf(tn.t_dec)


def test_t_dec_monotone_in_temperature_and_gamma():
    def tdec(temp, gamma):
        return thermal_numbers(VibBath(gamma=gamma, mode_freqs=(), omega0=1e7,
                                       n_trunc=2, temperature=temp)).t_dec
    temps = [1e-3, 3e-3, 1e-2, 3e-2]
    vals = [tdec(t, 1e3) for t in temps]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    gammas = [1e2, 1e3, 1e4]
    vals = [tdec(1e-2, g) for g in gammas]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_timescale_check():
    ts = timescale_check(1e-9, 1e8, 1e-3)
    assert ts.margin == pytest.approx(10.0) and ts.satisfied
    ts = timescale_check(1e-6, 1e8, 1e-3)
    assert ts.margin == pytest.approx(0.01) and not ts.satisfied
    ts = timescale_check(1e-5, 0.0, 1e-3)
    assert ts.margin == pytest.approx(100.0) and ts.satisfied


NAN = float("nan")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: HardwareParams(eta=NAN), id="eta"),
    pytest.param(lambda: HardwareParams(omega_rabi=NAN), id="omega_rabi"),
    pytest.param(lambda: HardwareParams(detuning=NAN), id="detuning"),
    pytest.param(lambda: HardwareParams(n_mean=NAN), id="n_mean"),
    pytest.param(lambda: VibBath(gamma=NAN, mode_freqs=(), omega0=1e7, n_trunc=2,
                                 temperature=0.01), id="gamma"),
    pytest.param(lambda: VibBath(gamma=1.0, mode_freqs=(NAN,), omega0=1e7, n_trunc=2,
                                 temperature=0.01), id="mode_freqs"),
    pytest.param(lambda: thermal_numbers(VibBath(gamma=1.0, mode_freqs=(), omega0=NAN,
                                                 n_trunc=2, temperature=0.01)), id="omega0"),
    pytest.param(lambda: thermal_numbers(VibBath(gamma=1.0, mode_freqs=(), omega0=1e7,
                                                 n_trunc=2, temperature=NAN)),
                 id="temperature"),
    pytest.param(lambda: timescale_check(1e-3, 1.0, NAN), id="t_dec"),
    pytest.param(lambda: timescale_check(NAN, 1.0, 1e-3), id="dt"),
    pytest.param(lambda: timescale_check(1e-3, NAN, 1e-3), id="omega_c"),
    pytest.param(lambda: timescale_check(math.inf, 0.0, math.inf), id="inf-over-inf"),
])
def test_nan_at_a_formula_boundary_raises(make):
    # a NaN input makes every `x <= 0` test false, so each check is written
    # to fail on it
    with pytest.raises(ValueError):
        make()


# --- vibrational bath


def total_excitation(v: VibBath) -> np.ndarray:
    """Dense total quantum number; commutes with vib_hamiltonian exactly."""
    _, bindings = vib_bindings(v)
    out = bindings["num_sys"].copy()
    for k in range(len(v.mode_freqs)):
        out = out + bindings[f"num_bath{k}"]
    return out


def test_vib_hamiltonian_gamma_zero_decoupled():
    v = VibBath(gamma=0.0, mode_freqs=(3.0,), omega0=5.0, n_trunc=3,
                temperature=0.01)
    layout, bindings = vib_bindings(v)
    h = to_dense(vib_hamiltonian(v), bath_dim=int(np.prod(layout)),
                 bindings=bindings)
    target = 5.0 * bindings["num_sys"] + 3.0 * bindings["num_bath0"]
    np.testing.assert_allclose(h, target, atol=1e-13)


def test_vib_hamiltonian_hermitian_and_conserving():
    v = VibBath(gamma=0.7, mode_freqs=(3.0, 4.5), omega0=5.0, n_trunc=3,
                temperature=0.01)
    layout, bindings = vib_bindings(v)
    dim = int(np.prod(layout))
    h = to_dense(vib_hamiltonian(v), bath_dim=dim, bindings=bindings)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-13)
    n_tot = total_excitation(v)
    np.testing.assert_allclose(h @ n_tot, n_tot @ h, atol=1e-12)


@pytest.mark.parametrize("n, modes", [(2, 0), (2, 1), (3, 2), (2, 3)])
def test_vib_bindings_equal_the_kron_formulas(n, modes):
    v = VibBath(gamma=0.3, mode_freqs=tuple(range(1, modes + 1)), omega0=5.0,
                n_trunc=n, temperature=0.01)
    a = baths_mod._ladder(n)
    num = a.conj().T @ a

    def kron_with(placed):
        return kron_all(*(placed.get(k, np.eye(n, dtype=complex)) for k in range(1 + modes)))

    layout, bindings = vib_bindings(v)
    assert layout == (n,) * (1 + modes)
    want = {"num_sys": kron_with({0: num})}
    for k in range(modes):
        want[f"num_bath{k}"] = kron_with({1 + k: num})
        down_up = kron_with({0: a, 1 + k: a.conj().T})
        want[f"exchange{k}"] = down_up + down_up.conj().T
    assert bindings.keys() == want.keys()
    assert all(np.array_equal(bindings[key], want[key]) for key in want)


def test_vib_single_excitation_rabi():
    # one mode, detuned exchange: two-level Rabi formula on {|10>, |01>}
    omega0, omega1, g = 5.0, 4.2, 0.35
    v = VibBath(gamma=g, mode_freqs=(omega1,), omega0=omega0, n_trunc=2,
                temperature=0.01)
    layout, bindings = vib_bindings(v)
    h = to_dense(vib_hamiltonian(v), bath_dim=4, bindings=bindings)
    psi0 = np.zeros(4, dtype=complex)
    psi0[2] = 1.0  # |1>_sys |0>_bath
    delta = (omega0 - omega1) / 2
    rabi = math.sqrt(g ** 2 + delta ** 2)
    for t in np.linspace(0.1, 4.0, 7):
        psi = expm_i(h, t) @ psi0
        p_transfer = abs(psi[1]) ** 2  # |0>_sys |1>_bath
        expected = (g ** 2 / rabi ** 2) * math.sin(rabi * t) ** 2
        assert p_transfer == pytest.approx(expected, abs=1e-8)


def test_vib_requires_truncation():
    with pytest.raises(ValueError):
        VibBath(gamma=0.1, mode_freqs=(), omega0=1.0, n_trunc=1, temperature=0.01)


# --- motional error coupling


def test_qubit_motional_error_is_pure_leakage():
    op = qubit_motional_error()
    dec = classify(op)
    assert dec.leak_part == op
    assert not dec.logi_part.terms and not dec.dfs_part.terms


def test_qubit_motional_error_cancelled_by_pi_cycle_not_by_p_cycle():
    rng = np.random.default_rng(0)
    b = rand_herm(rng, 3)
    h = to_dense(qubit_motional_error(), bath_dim=3, bindings={"motional": b})
    model = EvolutionModel(2, 3, h)
    u = propagator(leak_elim_cycle(0.25), model)
    np.testing.assert_allclose(u, np.eye(12), atol=1e-10)
    u_sym = propagator(symmetrize_pair(0.25), model)
    g = generator_of(u_sym, 0.5)
    assert bucket_norms(g, 3)["Leak"] > 0.1  # symmetrization leaves leakage


# --- 1/f noise generator


def binned_periodogram(noise, n_samples=10_000, dt=1e-3):
    """Octave-binned Hann periodogram density with per-bin cell counts."""
    _, x = sample_1f_trajectory(noise, n_samples * dt, dt)
    spec = np.abs(np.fft.rfft(x * np.hanning(x.size))) ** 2
    omega = TWO_PI * np.fft.rfftfreq(x.size, dt)
    dom = omega[1] - omega[0]
    lo = max(3 * noise.omega_min, 80 * dom)
    hi = noise.omega_max / 2
    edges = lo * 2.0 ** np.arange(int(np.floor(np.log2(hi / lo))) + 1)
    centers, dens, cells = [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (omega >= a) & (omega < b)
        centers.append(math.sqrt(a * b))
        dens.append(spec[sel].sum() / (b - a))
        cells.append(sel.sum())
    return np.array(centers), np.array(dens), np.array(cells)


def psd_log_slope(alpha, seeds, n_samples=10_000, dt=1e-3):
    """Log-log slope of the realization-averaged binned periodogram.

    10^4-sample records resolve only ~omega*T spectral cells per octave, so
    single-shot slopes scatter by ~0.16; averaging a few independent
    realizations brings the estimate inside the +-0.15 window.
    """
    acc = None
    for seed in seeds:
        noise = SpectralNoise(alpha=alpha, omega_min=TWO_PI * 2.0,
                              omega_max=TWO_PI * 400.0, amplitude=1.0,
                              n_harmonics=512, seed=seed)
        centers, dens, cells = binned_periodogram(noise, n_samples, dt)
        acc = dens if acc is None else acc + dens
    return np.polyfit(np.log(centers), np.log(acc), 1, w=np.sqrt(cells))[0]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_psd_slope_matches_alpha(alpha):
    slope = psd_log_slope(alpha, seeds=range(4))
    assert abs(slope + alpha) < 0.15


def test_trajectory_determinism_and_nyquist():
    noise = SpectralNoise(alpha=1.0, omega_min=1.0, omega_max=100.0,
                          amplitude=2.0, n_harmonics=32, seed=9)
    t1, x1 = sample_1f_trajectory(noise, 1.0, 1e-3)
    t2, x2 = sample_1f_trajectory(noise, 1.0, 1e-3)
    assert np.array_equal(x1, x2)
    other = SpectralNoise(alpha=1.0, omega_min=1.0, omega_max=100.0,
                          amplitude=2.0, n_harmonics=32, seed=10)
    _, x3 = sample_1f_trajectory(other, 1.0, 1e-3)
    assert not np.array_equal(x1, x3)
    with pytest.raises(ValueError):
        sample_1f_trajectory(noise, 1.0, TWO_PI / 100.0)


def test_trajectory_rms_matches_amplitude():
    noise = SpectralNoise(alpha=1.0, omega_min=TWO_PI * 0.5,
                          omega_max=TWO_PI * 50.0, amplitude=5.0,
                          n_harmonics=128, seed=3)
    _, x = sample_1f_trajectory(noise, 40.0, 2e-3)
    assert x.std() == pytest.approx(5.0, rel=0.25)


# --- dephasing runs


def storage_noise(alpha=2.0, amplitude=TWO_PI * 200.0, seed=42, n_harmonics=48):
    return SpectralNoise(alpha=alpha, omega_min=TWO_PI * 0.05,
                         omega_max=TWO_PI * 50.0, amplitude=amplitude,
                         n_harmonics=n_harmonics, seed=seed)


def test_dephasing_zero_amplitude():
    noise = SpectralNoise(alpha=1.0, omega_min=1.0, omega_max=100.0,
                          amplitude=1e-12, n_harmonics=16, seed=1)
    res = dephasing_run(PulseSequence((Free(1e-3),)), noise, 10, n_cycles=50)
    assert np.all(res.coherence > 1 - 1e-12)
    assert math.isinf(res.t2)


def test_dephasing_collective_immunity():
    res = dephasing_run(PulseSequence((Free(1e-3),)), storage_noise(), 20,
                        n_cycles=200, mode="collective")
    assert res.coherence.min() >= 1 - 1e-10


def test_dephasing_differential_decays_and_echo_recovers():
    noise = storage_noise()
    base = dephasing_run(PulseSequence((Free(2.5e-4),)), noise, 60, n_cycles=4000)
    assert math.isfinite(base.t2)
    echo = dephasing_run(symmetrize_pair(2e-3), noise, 60, n_cycles=500)
    assert echo.t2 > 5 * base.t2


def test_dephasing_independent_mode_decays():
    res = dephasing_run(PulseSequence((Free(2.5e-4),)), storage_noise(), 40,
                        n_cycles=4000, mode="independent")
    assert math.isfinite(res.t2)


def test_dephasing_rejects_bad_input():
    noise = storage_noise()
    with pytest.raises(ValueError):
        dephasing_run(PulseSequence((Free(1e-3),)), noise, 10, mode="sideways")
    with pytest.raises(ValueError):
        dephasing_run(PulseSequence((Free(1e-3),)), noise, 0)


_BAD_RUNS = {
    dephasing_run: dict(seq=PulseSequence((Free(1e-3),)), n_traj=5, n_cycles=3),
    suppression_scan: dict(seq_family=symmetrize_pair, dt_grid=[8e-3, 4e-3, 2e-3, 1e-3],
                           n_traj=5, t_max=0.1),
}


@pytest.mark.parametrize("run, bad, match", [
    (dephasing_run, {"record_every": 0}, "record_every"),
    (dephasing_run, {"record_every": -1}, "record_every"),
    (dephasing_run, {"n_cycles": -3}, "n_cycles"),
    (dephasing_run, {"n_cycles": math.nan}, "n_cycles"),
    (dephasing_run, {"seq": PulseSequence((NamedPulse((("P", (0, 1)),)),))},
     "free segment"),
    (dephasing_run, {"seq": symmetrize_pair(1e-3, (1, 2))}, "stored pair"),
    (dephasing_run, {"seq": PulseSequence((Free(1e-3), RawPulse(np.eye(4))))},
     "named pulses only"),
    (suppression_scan, {"t_max": -1.0}, "t_max"),
    (suppression_scan, {"t_max": 0.0}, "t_max"),
    (suppression_scan, {"t_max": math.nan}, "t_max"),
    (suppression_scan, {"t_max": math.inf}, "t_max"),
])
def test_bath_runs_reject_bad_input(run, bad, match):
    with pytest.raises(ValueError, match=match):
        run(noise=storage_noise(n_harmonics=8), **{**_BAD_RUNS[run], **bad})


def test_alpha_one_gain_persists_at_moderate_interval():
    # no sharp cutoff needed: with a 1/f spectrum the echo still helps even
    # when dt * omega_max = 0.5
    noise = storage_noise(alpha=1.0, seed=7)
    base = dephasing_run(PulseSequence((Free(2.5e-4),)), noise, 60, n_cycles=3000)
    dt = 0.5 / noise.omega_max
    echo = dephasing_run(symmetrize_pair(dt), noise, 60,
                         n_cycles=int(1.0 / (2 * dt)), record_every=2)
    assert echo.t2 > base.t2


def test_suppression_scan_monotone_and_baseline():
    noise = storage_noise(n_harmonics=48)
    rows = suppression_scan(symmetrize_pair, [8e-3, 4e-3, 2e-3, 1e-3], noise,
                            n_traj=40, t_max=3.0)
    assert len(rows) == 4
    gains = [r.gain for r in rows]  # ordered by decreasing dt
    assert all(b > a for a, b in zip(gains, gains[1:]))
    # pulse-free family: gain 1 (grid fine enough to resolve the crossing)
    weak = storage_noise(amplitude=TWO_PI * 10.0, n_harmonics=48)
    base_rows = suppression_scan(lambda dt: PulseSequence((Free(dt),)),
                                 [2e-3, 1e-3, 5e-4, 2.5e-4], weak,
                                 n_traj=20, t_max=0.2)
    for r in base_rows:
        assert r.gain == pytest.approx(1.0, rel=0.15)
    with pytest.raises(ValueError):
        suppression_scan(symmetrize_pair, [1e-3, 2e-3], noise, 10, 1.0)


@pytest.mark.parametrize("mode, streams", [("differential", 1), ("independent", 2),
                                           ("collective", 0)])
def test_suppression_scan_draws_once_and_matches_single_runs(monkeypatch, mode, streams):
    noise = storage_noise(n_harmonics=16)
    dt_grid, n_traj, t_max = [8e-3, 4e-3, 2e-3, 1e-3], 12, 0.6
    draws = []
    draw = SpectralNoise.draw
    monkeypatch.setattr(SpectralNoise, "draw",
                        lambda self, rng, out=None: draws.append(1) or draw(self, rng, out))
    rows = suppression_scan(symmetrize_pair, dt_grid, noise, n_traj, t_max, mode=mode)
    assert len(draws) == streams * n_traj
    for dt, row in zip(dt_grid, rows):
        n_cycles = max(4, math.ceil(t_max / (2 * dt)))
        res = dephasing_run(symmetrize_pair(dt), noise, n_traj, n_cycles=n_cycles,
                            mode=mode, record_every=max(1, n_cycles // 4000))
        assert row.t2_pulsed == res.t2


SCAN_GRID = [8e-3, 4e-3, 2e-3, 1e-3]


def _full_runs(noise, n_traj, t_max):
    """The whole `dephasing_run` behind each `suppression_scan` row."""
    runs = []
    for dt in SCAN_GRID:
        n_cycles = max(4, math.ceil(t_max / (2 * dt)))
        runs.append(dephasing_run(symmetrize_pair(dt), noise, n_traj, n_cycles=n_cycles,
                                  record_every=max(1, n_cycles // 4000)))
    return runs


def _crossing_cycles(res):
    """Cycle ends of the record before the first 1/e crossing and of the
    crossing record (every cycle recorded)."""
    k = np.nonzero(res.coherence < 1 / np.e)[0][0]
    return k - 1, k


def test_suppression_scan_t2_is_the_full_run_t2():
    noise = storage_noise(n_harmonics=16)
    rows = suppression_scan(symmetrize_pair, SCAN_GRID, noise, 12, 0.6)
    full = _full_runs(noise, 12, 0.6)
    # 8 ms crosses inside the first engine block; 2 ms and 1 ms never cross
    assert _crossing_cycles(full[0])[1] < baths_mod._CYCLE_BLOCK
    assert math.isinf(full[2].t2) and math.isinf(full[3].t2)
    for row, res in zip(rows, full):
        assert row.t2_pulsed == res.t2


def test_suppression_scan_t2_when_the_crossing_follows_a_block_seam(monkeypatch):
    monkeypatch.setattr(baths_mod, "_CYCLE_BLOCK", 3)
    noise = storage_noise(amplitude=TWO_PI * 800.0, n_harmonics=16)
    rows = suppression_scan(symmetrize_pair, SCAN_GRID, noise, 12, 0.6)
    full = _full_runs(noise, 12, 0.6)
    # at 1 ms the crossing record opens a block; the record before closes the last
    before, at = _crossing_cycles(full[3])
    assert before // 3 < at // 3 and at > 3
    for row, res in zip(rows, full):
        assert row.t2_pulsed == res.t2


def test_suppression_scan_stops_each_run_after_its_crossing_block(monkeypatch):
    noise = storage_noise(amplitude=TWO_PI * 400.0, n_harmonics=16)
    calls = []
    filters = baths_mod._record_filters

    def counting(*args):
        calls.append(0)
        for block in filters(*args):
            calls[-1] += 1
            yield block

    monkeypatch.setattr(baths_mod, "_record_filters", counting)
    rows = suppression_scan(symmetrize_pair, SCAN_GRID, noise, 12, 6.0)
    monkeypatch.setattr(baths_mod, "_record_filters", filters)
    block = baths_mod._CYCLE_BLOCK
    full = _full_runs(noise, 12, 6.0)
    # the baseline crosses in its first horizon step, then one run per dt
    assert len(calls) == 1 + len(SCAN_GRID)
    want = [_crossing_cycles(res)[1] // block + 1 for res in full]
    assert calls[1:] == want
    assert want[0] == 1  # a crossing in the first block evaluates that block only
    for res, n in zip(full, want):  # each full run has more blocks than were read
        assert math.ceil(res.times.size / block) > n
    for row, res in zip(rows, full):
        assert row.t2_pulsed == res.t2


@pytest.mark.parametrize("name, period", [
    ("pair", [1, -1, 1, -1]),
    ("odd_swap", [1, -1]),
    ("q_lam_pi", [1, -1, -1, 1, -1, -1]),
])
def test_sign_template(name, period):
    seq = ORACLE_SEQUENCES[name]
    frees, signs = baths_mod._sign_template(seq, (0, 1))
    assert frees == [e.tau for e in seq.events if isinstance(e, Free)]
    assert signs.tolist() == period


def _dense_swaps(ops) -> bool:
    """Reference for the exact frame: whether the dense named-pulse product
    exchanges |0_L> and |1_L>, read from its code-space block."""
    mat = reduce(np.matmul, [named_pulse(label, pair, 2) for label, pair in ops])
    code = [CODE_ZERO_INDEX, CODE_ONE_INDEX]
    mag = np.abs(mat[np.ix_(code, code)])
    for swap, perm in ((False, np.eye(2)), (True, np.eye(2)[::-1])):
        if np.allclose(mag, perm, rtol=0.0, atol=1e-9):
            return swap
    raise AssertionError(f"{ops} is not monomial on the code space")


def test_sign_template_matches_the_dense_code_block():
    # every label in both orientations, alone and in every ordered pair
    ops1 = [((label, pair),) for label in PULSE_LABELS for pair in ((0, 1), (1, 0))]
    relabel = {0: 2, 1: 0}
    for ops in ops1 + [a + b for a in ops1 for b in ops1]:
        s = -1 if _dense_swaps(ops) else 1
        seq = PulseSequence((Free(1e-3), NamedPulse(ops), Free(2e-3)))
        frees, signs = baths_mod._sign_template(seq, (0, 1))
        assert frees == [1e-3, 2e-3] and signs.tolist() == [1, s, s, 1], ops
        # the same pulse stored on another pair of a wider register
        moved = tuple((label, (relabel[i], relabel[j])) for label, (i, j) in ops)
        seq = PulseSequence((Free(1e-3), NamedPulse(moved), Free(2e-3)))
        assert baths_mod._sign_template(seq, (2, 0))[1].tolist() == [1, s, s, 1], ops


def test_dephasing_bath_hamiltonian_is_the_kron_sum():
    rng = np.random.default_rng(8)
    b1, b2, hb = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    b1, b2, hb = ((m + m.conj().T) / 2 for m in (b1, b2, hb))
    z0, z2 = (to_dense(OperatorSum.single(3, q, "Z")) for q in (0, 2))
    want = np.kron(z0, b1) + np.kron(z2, b2) + np.kron(np.eye(8), hb)
    got = DephasingBath(b1, b2, hb).hamiltonian((0, 2), 3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)  # a few ulps; the sum order differs
    assert np.array_equal(DephasingBath(b1, b2).hamiltonian((0, 2), 3),
                          np.kron(z0, b1) + np.kron(z2, b2))


@pytest.mark.parametrize("bad", [[[0, 1], [0, 0]], [[1, 1j], [1j, 1]], [[np.nan, 0], [0, 1]],
                                 [[1, np.inf], [0, 1]]])
def test_dephasing_bath_rejects_a_bad_bath_operator(bad):
    with pytest.raises(ValueError, match="h_bath must be Hermitian"):
        DephasingBath(SIGMA["Z"], SIGMA["X"], np.array(bad))
    with pytest.raises(ValueError, match="b2 must be Hermitian"):
        DephasingBath(SIGMA["Z"], np.array(bad))


@pytest.mark.parametrize("mode", ["differential", "collective", "independent"])
def test_rate_coefficients_are_the_draws_of_the_noise_seed(mode):
    noise = storage_noise(n_harmonics=16, seed=7)
    om, coef = baths_mod._rate_coefficients(noise, 5, mode)

    def stream(s):
        draws = [noise.draw(np.random.default_rng([7, s, i])) for i in range(5)]
        weights = np.array([d[0] for d in draws]) / noise.frequencies()
        phases = np.array([d[1] for d in draws])
        return np.hstack([weights * np.cos(phases), weights * np.sin(phases)])

    want = {"differential": lambda: 2.0 * stream(0),
            "independent": lambda: stream(1) - stream(2),
            "collective": lambda: np.zeros((5, 0))}[mode]()
    assert np.array_equal(coef, want)
    assert np.array_equal(om, noise.frequencies()[:want.shape[1] // 2])
    rows = suppression_scan(symmetrize_pair, [8e-3, 4e-3, 2e-3, 1e-3], noise, 5, 0.1,
                            mode=mode)
    assert {r.seed for r in rows} == {7}


def test_spectral_noise_draw_streams_unchanged():
    # the per-harmonic standard deviation is computed once per noise model;
    # every draw must still be bit-identical to normal * sqrt(variances)
    noise = storage_noise(n_harmonics=24)
    amps, phases = noise.draw(noise.trajectory_rng(4, 2))
    rng = np.random.default_rng([noise.seed, 2, 4])
    assert np.array_equal(amps, rng.normal(size=24) * np.sqrt(noise.variances()))
    assert np.array_equal(phases, rng.uniform(0.0, 2 * np.pi, size=24))


@pytest.mark.parametrize("mode", ["differential", "collective", "independent"])
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3])
def test_rate_coefficients_rows_are_the_trajectory_draws(seed, mode):
    # seeds on both sides of a 32-bit word, and one of three words
    noise = storage_noise(n_harmonics=16, seed=seed)
    om, coef = baths_mod._rate_coefficients(noise, 7, mode)

    def stream(s):
        draws = [noise.draw(noise.trajectory_rng(i, s)) for i in range(7)]
        weights = np.array([a for a, _ in draws]) / noise.frequencies()
        phases = np.array([p for _, p in draws])
        return np.hstack([weights * np.cos(phases), weights * np.sin(phases)])

    want = {"differential": lambda: 2.0 * stream(0),
            "independent": lambda: stream(1) - stream(2),
            "collective": lambda: np.zeros((7, 0))}[mode]()
    assert np.array_equal(coef, want)
    # each generator is default_rng([seed, stream, index]), its draws normal and uniform
    for i, s in ((0, 0), (6, 2), (2 ** 33 + 1, 2 ** 40)):
        rng = np.random.default_rng([seed, s, i])
        amps, phases = noise.draw(noise.trajectory_rng(i, s))
        assert np.array_equal(amps, rng.normal(size=16) * np.sqrt(noise.variances()))
        assert np.array_equal(phases, rng.uniform(0.0, 2 * np.pi, size=16))
    for i, s in ((-1, 0), (0, -1), (1.0, 0)):
        with pytest.raises(ValueError, match="traj_index|stream"):
            noise.trajectory_rng(i, s)


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("alpha", math.inf), ("amplitude", -1.0),
    ("amplitude", math.nan), ("amplitude", math.inf), ("omega_max", math.inf),
])
def test_spectral_noise_rejects_non_finite_or_negative(field, value):
    kw = dict(alpha=1.0, omega_min=1.0, omega_max=100.0, amplitude=1.0)
    kw[field] = value
    with pytest.raises(ValueError):
        SpectralNoise(**kw)


# --- toggling-frame engine against the 4-dim state evolution

MODES = ("differential", "collective", "independent")
_Z1_DIAG = np.array([1.0, 1.0, -1.0, -1.0])  # basis (uu, ud, du, dd)
_Z2_DIAG = np.array([1.0, -1.0, 1.0, -1.0])


def reference_coherence(seq, noise, n_traj, n_cycles, mode, record_every=1):
    """Every trajectory's pair state evolved event by event: exact segment
    integrals of each cosine, Z1/Z2 phases, dense named-pulse matrices."""
    om = noise.frequencies()
    frees = [e.tau for e in seq.events if isinstance(e, Free)]
    bounds = np.concatenate([[0.0], np.tile(frees, n_cycles)]).cumsum()

    def integrals(stream):
        rows = []
        for i in range(n_traj):
            amps, phases = noise.draw(noise.trajectory_rng(i, stream))
            anti = np.sin(np.multiply.outer(bounds, om) + phases) @ (amps / om)
            rows.append(np.diff(anti))
        return np.array(rows)

    if mode == "independent":
        int1, int2 = integrals(1), integrals(2)
    else:
        int1 = integrals(0)
        int2 = int1 if mode == "collective" else -int1
    psi = np.zeros((n_traj, 4), dtype=complex)
    psi[:, [CODE_ZERO_INDEX, CODE_ONE_INDEX]] = 1 / np.sqrt(2)

    def off_diagonal():
        return abs((psi[:, CODE_ZERO_INDEX] * psi[:, CODE_ONE_INDEX].conj()).sum())

    curve = [off_diagonal()]
    seg = 0
    for cyc in range(n_cycles):
        for e in seq.events:
            if isinstance(e, Free):
                phase = (np.outer(int1[:, seg], _Z1_DIAG)
                         + np.outer(int2[:, seg], _Z2_DIAG)) / 2
                psi = psi * np.exp(-1j * phase)
                seg += 1
            else:
                mat = reduce(np.matmul, [named_pulse(label) for label, _ in e.ops])
                psi = psi @ mat.T
        if (cyc + 1) % record_every == 0:
            curve.append(off_diagonal())
    return np.array(curve) / curve[0]


def _pulse(*labels, pair=(0, 1)):
    return NamedPulse(tuple((label, pair) for label in labels))


ORACLE_SEQUENCES = {
    "free": PulseSequence((Free(1e-3),)),
    "pair": symmetrize_pair(1e-3),
    "odd_swap": PulseSequence((Free(1e-3), _pulse("P"))),
    "q_lam_pi": PulseSequence((Free(7e-4), _pulse("Q"), Free(3e-4),
                               _pulse("LAM", "PI", pair=(1, 0)), Free(1e-3),
                               _pulse("QDAG"))),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ORACLE_SEQUENCES)
def test_dephasing_matches_state_evolution(name, mode):
    noise = storage_noise(alpha=1.0, amplitude=TWO_PI * 50.0, n_harmonics=16)
    seq = ORACLE_SEQUENCES[name]
    for n_traj, n_cycles, record_every in ((37, 120, 3), (25, 40, 1)):
        got = dephasing_run(seq, noise, n_traj, n_cycles=n_cycles, mode=mode,
                            record_every=record_every)
        want = reference_coherence(seq, noise, n_traj, n_cycles, mode, record_every)
        np.testing.assert_allclose(got.coherence, want, rtol=0, atol=1e-9)


_events = st.one_of(
    st.sampled_from([2e-4, 5e-4, 1e-3]).map(Free),
    st.lists(st.tuples(st.sampled_from(PULSE_LABELS), st.sampled_from([(0, 1), (1, 0)])),
             min_size=1, max_size=2).map(lambda ops: NamedPulse(tuple(ops))),
)


@settings(max_examples=40, deadline=None)
@given(events=st.lists(_events, min_size=1, max_size=6).filter(
           lambda evs: any(isinstance(e, Free) for e in evs)),
       mode=st.sampled_from(MODES), n_traj=st.integers(1, 30),
       n_cycles=st.integers(0, 40), record_every=st.integers(1, 4))
def test_dephasing_matches_state_evolution_on_random_sequences(
        events, mode, n_traj, n_cycles, record_every):
    noise = storage_noise(amplitude=TWO_PI * 50.0, n_harmonics=8)
    seq = PulseSequence(tuple(events))
    got = dephasing_run(seq, noise, n_traj, n_cycles=n_cycles, mode=mode,
                        record_every=record_every)
    want = reference_coherence(seq, noise, n_traj, n_cycles, mode, record_every)
    np.testing.assert_allclose(got.coherence, want, rtol=0, atol=1e-9)
    assert baths_mod._t2_search(seq, (0, 1), n_cycles, record_every,
                                *baths_mod._rate_coefficients(noise, n_traj, mode)) == got.t2


@pytest.mark.parametrize("name", ["pair", "odd_swap"])
def test_dephasing_carries_phase_across_boundary_blocks(name, monkeypatch):
    # blocks of 1 cycle end put a block seam at every cycle end, and blocks
    # of 5 start on cycles of either parity
    noise = storage_noise(alpha=1.0, amplitude=TWO_PI * 50.0, n_harmonics=16)
    seq = ORACLE_SEQUENCES[name]
    want = reference_coherence(seq, noise, 30, 60, "differential", 3)
    for block in (1, 5):
        monkeypatch.setattr(baths_mod, "_CYCLE_BLOCK", block)
        got = dephasing_run(seq, noise, 30, n_cycles=60, record_every=3)
        np.testing.assert_allclose(got.coherence, want, rtol=0, atol=1e-9)


def test_dephasing_collective_is_exactly_immune(monkeypatch):
    # the default blocks, then a block seam at every cycle end
    for block, record_every in ((baths_mod._CYCLE_BLOCK, 1), (1, 3)):
        monkeypatch.setattr(baths_mod, "_CYCLE_BLOCK", block)
        res = dephasing_run(symmetrize_pair(1e-3), storage_noise(), 30,
                            n_cycles=200, mode="collective", record_every=record_every)
        assert np.all(res.coherence == 1.0) and math.isinf(res.t2)


@pytest.mark.parametrize("mode", MODES)
def test_dephasing_run_of_no_cycles_is_its_start(mode):
    res = dephasing_run(ORACLE_SEQUENCES["pair"], storage_noise(n_harmonics=8), 5,
                        n_cycles=0, mode=mode)
    assert res.times.tolist() == [0.0] and res.coherence.tolist() == [1.0]
    assert math.isinf(res.t2)


@pytest.mark.parametrize("block, chunk, record_every", [(32, 200, 1), (1, 7, 1), (3, 7, 2),
                                                       (3, 200, 5)])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["pair", "odd_swap", "q_lam_pi"])
def test_t2_search_is_the_full_run_t2(name, mode, block, chunk, record_every, monkeypatch):
    # blocks of 1 and 3 cycle ends put crossings at a block's first record,
    # and chunks of 7 split the 20 trajectories at two seams
    monkeypatch.setattr(baths_mod, "_CYCLE_BLOCK", block)
    monkeypatch.setattr(baths_mod, "_TRAJ_CHUNK", chunk)
    noise = storage_noise(amplitude=TWO_PI * 800.0, n_harmonics=16)
    seq = ORACLE_SEQUENCES[name]
    full = dephasing_run(seq, noise, 20, n_cycles=150, mode=mode, record_every=record_every)
    t2 = baths_mod._t2_search(seq, (0, 1), 150, record_every,
                              *baths_mod._rate_coefficients(noise, 20, mode))
    assert t2 == full.t2
    if name == "pair":  # the echo decays over tens of records, past block seams
        assert math.isinf(t2) == (mode == "collective")


def _phase_table(n_traj, center, spread, shape, seed):
    rng = np.random.default_rng(seed)
    x = {"normal": lambda: rng.standard_normal((3, n_traj)),
         "uniform": lambda: rng.uniform(-1.0, 1.0, (3, n_traj)),
         "two-point": lambda: rng.choice([-1.0, 1.0], (3, n_traj))}[shape]()
    return np.clip(center + spread * x, -50.0, 50.0)


_PHASE_TABLES = st.one_of(
    st.builds(_phase_table, n_traj=st.integers(1, 300), center=st.floats(-50.0, 50.0),
              spread=st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 50.0)),
              shape=st.sampled_from(["normal", "uniform", "two-point"]),
              seed=st.integers(0, 2 ** 32 - 1)),
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=300).map(lambda v: np.array([v])),
)


@settings(max_examples=200, deadline=None)
@given(phases=_PHASE_TABLES, chunk=st.integers(1, 300))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coherence_bound_never_exceeds_the_coherence(phases, chunk):
    # 1e-12 is rounding, far below the certification margin
    n_traj = phases.shape[1]
    chunks = [phases[:, i:i + chunk] for i in range(0, n_traj, chunk)]
    bound = baths_mod._coherence_bound(chunks, n_traj)
    exact = np.abs(np.exp(-1j * phases).mean(axis=1))
    assert (bound <= exact + 1e-12).all()
    assert 1e-12 < baths_mod._CERTIFY_MARGIN


def boundary_filter(seq, n_cycles, om):
    """F at every cycle end, summed boundary by boundary over the run's
    segment boundaries t_k, and the sum of the magnitudes of its terms so
    far."""
    frees, period = baths_mod._sign_template(seq, (0, 1))
    t = np.concatenate([[0.0], np.tile(frees, n_cycles)]).cumsum()
    steps = np.diff(np.exp(1j * np.multiply.outer(t, om)), axis=0)
    steps *= np.resize(period, len(steps))[:, None]
    f, scale = (np.concatenate([np.zeros((1, om.size)), x.cumsum(axis=0)])[::len(frees)]
                for x in (steps, np.abs(steps)))
    return f, scale


@pytest.mark.parametrize("name", ["pair", "odd_swap", "q_lam_pi"])
def test_engine_filter_is_the_boundary_sum(name, monkeypatch):
    # relative to the sum of the magnitudes of its terms, per harmonic: the
    # scale of a sum's rounding, since an echo cancels F far below its terms
    om = storage_noise(alpha=1.0, n_harmonics=16).frequencies()
    seq = ORACLE_SEQUENCES[name]
    want, scale = boundary_filter(seq, 60, om)
    for block in (baths_mod._CYCLE_BLOCK, 1):
        monkeypatch.setattr(baths_mod, "_CYCLE_BLOCK", block)
        for record_every in (1, 3):
            blocks = list(baths_mod._record_filters(seq, (0, 1), 60, record_every, om))
            assert len(blocks) == math.ceil(61 / block)
            times = np.concatenate([t for t, _ in blocks])
            f = np.concatenate([f for _, f in blocks])
            np.testing.assert_allclose(times, np.arange(0, 61, record_every) * seq.cycle_time,
                                       rtol=1e-15, atol=0)
            assert (np.abs(f - want[::record_every]) <= 1e-12 * scale[::record_every]).all()
    # one cycle of each parity: F after the first cycle, and what the second adds
    frees, period = baths_mod._sign_template(seq, (0, 1))
    g = baths_mod._cycle_filters(frees, period, om)
    assert (np.abs(g[0] - want[1]) <= 1e-12 * scale[1]).all()
    shifted = g[1] * np.exp(1j * om * seq.cycle_time)
    assert (np.abs(shifted - (want[2] - want[1])) <= 1e-12 * scale[2]).all()


def test_dephasing_rejects_non_monomial_pulse(monkeypatch):
    # a pulse frame that moves |1_L> onto |uu>, out of the code pair
    moved = (np.array([1, 0, 2, 3]), np.ones(4, dtype=complex))
    assert moved[0][CODE_ONE_INDEX] not in (CODE_ZERO_INDEX, CODE_ONE_INDEX)
    monkeypatch.setattr(baths_mod, "_named_action", lambda *args: (moved, None))
    with pytest.raises(ValueError, match="monomial"):
        dephasing_run(symmetrize_pair(1e-3), storage_noise(), 5, n_cycles=3)


def test_collective_runs_form_no_engine_block(monkeypatch):
    # no harmonics: every coherence is exactly 1 without an engine block,
    # the pulses are still checked, and the scan baseline takes one step
    def no_block(*args):
        raise AssertionError("a run without harmonics formed an engine block")

    monkeypatch.setattr(baths_mod, "_record_filters", no_block)
    noise = storage_noise()
    drawn = baths_mod._rate_coefficients(noise, 5, "collective")
    res = baths_mod._toggling_run(symmetrize_pair(1e-3), (0, 1), 10, 3, *drawn)
    assert np.array_equal(res.times, np.arange(0, 11, 3) * 2e-3)
    assert res.coherence.tolist() == [1.0] * 4 and math.isinf(res.t2)
    assert math.isinf(baths_mod._t2_search(symmetrize_pair(1e-3), (0, 1), 10, 3, *drawn))
    elsewhere = PulseSequence((Free(1e-3), _pulse("P", pair=(0, 2))))
    for run in (baths_mod._toggling_run, baths_mod._t2_search):
        with pytest.raises(ValueError, match="stored pair"):
            run(elsewhere, (0, 1), 10, 1, *drawn)
    searches = []
    search = baths_mod._t2_search
    monkeypatch.setattr(baths_mod, "_t2_search", lambda *a: searches.append(1) or search(*a))
    rows = suppression_scan(symmetrize_pair, SCAN_GRID, noise, 5, 3.0, mode="collective")
    assert len(searches) == 1 + len(SCAN_GRID)
    assert all(math.isinf(r.t2_base) and math.isinf(r.t2_pulsed) for r in rows)


def test_dephasing_peak_memory_bounded_in_cycles():
    # 100001 cycle ends x 64 complex filters would take 102 MB unblocked
    noise = storage_noise(n_harmonics=64)
    tracemalloc.start()
    try:
        dephasing_run(symmetrize_pair(1e-4), noise, 50, n_cycles=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


# --- BCH bound


def test_bch_bound_commuting_is_zero():
    z = np.kron(SIGMA["Z"], np.eye(2))
    res = bch_bound(z, 2 * z, np.kron(np.eye(2), SIGMA["Z"]) * 0.0, 0.3)
    assert res["bound"] == pytest.approx(0.0, abs=1e-14)


def test_bch_t_max_weak_value():
    h_s = TWO_PI * 1e6 * np.kron(SIGMA["X"], np.eye(2))
    h_sb = TWO_PI * 1e4 * np.kron(SIGMA["Z"], SIGMA["X"])
    res = bch_bound(h_s, h_sb, np.zeros((4, 4)), 1e-7)
    assert res["t_max_weak"] == pytest.approx(1 / math.sqrt(TWO_PI * 1e6 * TWO_PI * 1e4),
                                              rel=1e-9)


def test_bch_residual_scaling():
    rng = np.random.default_rng(7)
    xb = to_dense(basis_operator("Xbar")) + to_dense(basis_operator("Xtilde"))
    h_s = np.kron(xb, np.eye(2))
    h_sb = 0.15 * np.kron(to_dense(basis_operator("ZY")), rand_herm(rng, 2))
    h_b = 0.25 * np.kron(np.eye(4), rand_herm(rng, 2))
    pulse = np.kron(expm_i(to_dense(basis_operator("Xbar")), np.pi), np.eye(2))
    diffs = []
    for t in (0.4, 0.2, 0.1):
        u = (expm_i(h_s + h_sb + h_b, t) @ pulse
             @ expm_i(h_s + h_sb + h_b, t) @ pulse)
        ideal = expm_i(h_s + h_b, 2 * t)
        diff = np.linalg.norm(u - ideal, 2)
        bound = bch_bound(h_s, h_sb, h_b, t)["bound"]
        assert diff <= 2.5 * bound
        # fitted constant diff / (t^2 ||[H_SB,H_S]+[H_SB,H_B]||) of order one
        c_fit = diff / (2 * bound)
        assert 0.1 <= c_fit <= 1.25
        diffs.append(diff)
    # quadratic in t: halving t cuts the residual by ~4
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.35)
    assert diffs[1] / diffs[2] == pytest.approx(4.0, rel=0.35)
