"""Deterministic algebra checks shared by the CLI verify command.

Each check returns a measured scalar (usually a worst-case error), the
expectation it is held against, and a tolerance; each bound is a named
module constant.  The suite is fast and fully seeded; it mirrors the
library's property tests so a broken build fails loudly from the command
line as well.

The sampled gate and Pauli checks build all their samples as (n, d, d)
stacks and call each kernel once per stage: `gates._sm_stack` for the
gates, one `pauli._expm_blocks` call for their exponentials,
`gates._restrict_stack` for their code-space blocks, and one stacked
matmul for the 256 Pauli products.  The generator round trip, BCH and
pair-symmetrization checks scale each sample's generator by its own time
and take all of them as the blocks of one direct sum at unit time: one
`pauli._expm_blocks` call for every exponential of a check, one
`pauli._log_blocks` call for the round trip's logs, and one
`sequences._propagator_blocks` call for the 20 symmetrized baths, whose
target is exponentiated on the propagator's own blocks.  Their cost is then
a fixed number of numpy calls, not a number per sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dfs, gates, pauli, sequences
from .baths import bch_bound
from .pauli import OperatorSum, to_dense


# The bound of each check, defined once and listed in the README's Conventions
_EXACT_TOL = 1e-12         # a closed form or algebraic identity, largest entry error
_PAULI_TOL = 1e-14         # a product or (anti)commutator of Pauli strings
_PROPAGATOR_TOL = 1e-10    # a propagator or code-space block against its closed form
_ROUNDTRIP_TOL = 1e-8      # a generator recovered by the log of its exponential
_DIFFERENTIAL_FLOOR = 0.1  # least u4 commutator that shows differential dephasing
_TAU_SM_TOL = 1e-8         # tau_sm of the reference drive against 1 us
_PENALTY_TOL = 1e-15       # the off-resonant penalty at Omega/delta = 0.1 against 0.01
_BCH_FACTOR = 2.5          # multiple of the BCH bound a residual may reach


@dataclass(frozen=True)
class CheckResult:
    """One check, built by the constructor of its pass rule: `error_below`
    (measured <= tol), `at_least` (measured >= expected), `near`
    (|measured - expected| <= tol) or `flag` (measured is 1, a true flag)."""
    name: str
    measured: float
    expected: float
    tol: float
    passed: bool

    @classmethod
    def error_below(cls, name: str, measured: float, bound: float) -> "CheckResult":
        return cls(name, float(measured), 0.0, bound, bool(measured <= bound))

    @classmethod
    def at_least(cls, name: str, measured: float, floor: float) -> "CheckResult":
        return cls(name, float(measured), floor, 0.0, bool(measured >= floor))

    @classmethod
    def near(cls, name: str, measured: float, expected: float, tol: float) -> "CheckResult":
        return cls(name, float(measured), expected, tol,
                   bool(abs(measured - expected) <= tol))

    @classmethod
    def flag(cls, name: str, ok: bool) -> "CheckResult":
        return cls(name, float(bool(ok)), 1.0, 0.0, bool(ok))


def _rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def check_su2_algebra() -> list[CheckResult]:
    xb, yb, zb = (to_dense(op) for op in dfs.logical_operators((0, 1), 2))
    worst = max(
        np.abs(xb @ yb - yb @ xb - 2j * zb).max(),
        np.abs(yb @ zb - zb @ yb - 2j * xb).max(),
        np.abs(zb @ xb - xb @ zb - 2j * yb).max(),
    )
    return [CheckResult.error_below("su2_cyclic_commutators", worst, _EXACT_TOL)]


def check_pauli_products() -> list[CheckResult]:
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    terms = [pauli.PauliTerm.from_label(lab) for lab in labels]
    mats = np.stack([to_dense(OperatorSum(2, (t,))) for t in terms])
    # ab[i, j] = mats[i] @ mats[j], so ba[i, j] = ab[j, i]
    ab = mats[:, None] @ mats[None, :]
    ba = ab.swapaxes(0, 1)
    # each symbolic product is its phase times the matrix of its basis string
    prods = [pauli.pauli_mul(ta, tb) for ta in terms for tb in terms]
    phase = np.array([p.coefficient for p in prods]).reshape(16, 16, 1, 1)
    string = np.array([labels.index(p.label) for p in prods]).reshape(16, 16)
    worst = np.abs(phase * mats[string] - ab).max()
    comm = np.array([[pauli.commutes(ta, tb) for tb in terms] for ta in terms])
    resid = np.abs(np.where(comm[..., None, None], ab - ba, ab + ba)).max(axis=(2, 3))
    return [
        CheckResult.error_below("pauli_mul_dense_oracle_256", worst, _PAULI_TOL),
        CheckResult.flag("commutes_xor_anticommutes_256", (resid <= _PAULI_TOL).all()),
    ]


def check_sm_closed_form() -> list[CheckResult]:
    th, p1, p2, c = np.random.default_rng(11).uniform(-np.pi, np.pi, size=(100, 4)).T
    xb, yb, _ = (to_dense(op) for op in dfs.logical_operators((0, 1), 2))
    v = dfs.code_isometry(dfs.DfsRegister(((0, 1),), 2))
    u = gates._sm_stack(th, p1, p2)
    # exp(i th gen) of every sample: the blocks of one direct sum, each
    # generator scaled by its own angle and taken at t = -1
    gen = th[:, None, None] * gates._xx_stack(p1, p2)
    [(_, expm)] = pauli._expm_blocks([(np.arange(4 * len(th)).reshape(-1, 4), gen)], -1.0)
    blk = gates._restrict_stack(u, v)
    xbar_d = v.conj().T @ gates._encoded_axis(p1 - p2, xb, yb) @ v
    target = (np.cos(th)[:, None, None] * np.eye(2)
              + 1j * np.sin(th)[:, None, None] * xbar_d)
    shifted = gates._restrict_stack(gates._sm_stack(th, p1 + c, p2 + c), v)
    return [
        CheckResult.error_below("sm_closed_form_vs_expm", np.abs(u - expm).max(), _EXACT_TOL),
        CheckResult.error_below("sm_dfs_block_form", np.abs(blk - target).max(), _EXACT_TOL),
        CheckResult.error_below("sm_common_phase_invariance",
                                np.abs(blk - shifted).max(), _EXACT_TOL),
    ]


def check_pulse_identities() -> list[CheckResult]:
    z1z2 = to_dense(OperatorSum.from_label("ZZ"))
    pi = sequences.named_pulse("PI")
    p = sequences.named_pulse("P")
    q = sequences.named_pulse("Q")
    lam = sequences.named_pulse("LAM")
    return [
        CheckResult.error_below("pi_equals_z1z2", np.abs(pi - z1z2).max(), _EXACT_TOL),
        CheckResult.error_below("p_squared_is_pi", np.abs(p @ p - pi).max(), _EXACT_TOL),
        CheckResult.error_below("q_squared_is_lambda", np.abs(q @ q - lam).max(), _EXACT_TOL),
        CheckResult.error_below("p_fourth_is_identity",
                                np.abs(np.linalg.matrix_power(p, 4) - np.eye(4)).max(),
                                _EXACT_TOL),
    ]


def check_classification() -> list[CheckResult]:
    ops = np.stack([to_dense(dfs.basis_operator(lab)) for lab in dfs.ALL_LABELS])
    flat = ops.reshape(len(ops), -1)
    gram = flat.conj() @ flat.T  # Tr(a^+ b) of every pair
    gram_off = np.abs(gram - np.diag(np.diag(gram))).max()
    rank = np.linalg.matrix_rank(gram)
    pi = to_dense(OperatorSum.from_label("ZZ"))
    by_label = dict(zip(dfs.ALL_LABELS, ops))
    anti_ok = all(np.abs(pi @ by_label[l] + by_label[l] @ pi).max() < _PAULI_TOL
                  for l in dfs.LEAK_LABELS)
    comm_ok = all(np.abs(pi @ by_label[l] - by_label[l] @ pi).max() < _PAULI_TOL
                  for l in dfs.DFS_LABELS + dfs.LOGI_LABELS)
    # classify is linear, so recomposing each basis string, bare and
    # tensored with a bath slot, checks it on every input
    worst = 0.0
    for lab in (a + b for a in "IXYZ" for b in "IXYZ"):
        for slot in (None, "B"):
            h = OperatorSum.from_label(lab, 1.0, slot)
            diff = dfs.classify(h).recomposed() - h
            worst = max(worst, max((abs(t.coefficient) for t in diff.terms), default=0.0))
    return [
        CheckResult.error_below("basis_trace_orthogonality", gram_off, _EXACT_TOL),
        CheckResult.near("basis_spans_16", rank, 16.0, 0.0),
        CheckResult.flag("pi_anticommutes_with_leak", anti_ok),
        CheckResult.flag("pi_commutes_with_dfs_and_logi", comm_ok),
        CheckResult.error_below("classify_recompose_basis", worst, 0.0),
    ]


def check_symmetrization() -> list[CheckResult]:
    # exp(-i H tau) = exp(-i (tau H) 1): the 20 sampled baths, each scaled by
    # its tau, are the blocks of one bath under a unit interval.  Index
    # 80 s + 4 k + j is bath state j of sample k beside system state s, and
    # the model's (s, k) block is z1(s) b1_k + z2(s) b2_k
    rng = np.random.default_rng(13)
    samples = [(_rand_herm(rng, 4), _rand_herm(rng, 4), rng.uniform(0.05, 0.4))
               for _ in range(20)]
    b1, b2, tau = (np.array(x) for x in zip(*samples))
    b1, b2 = b1 * tau[:, None, None], b2 * tau[:, None, None]
    z1, z2 = (np.diagonal(to_dense(OperatorSum.single(2, q, "Z")))[:, None, None, None]
              for q in (0, 1))
    h = (z1 * b1 + z2 * b2).reshape(80, 4, 4)
    u = sequences._propagator_blocks(sequences.symmetrize_pair(1.0), 2, 80,
                                     [(np.arange(320).reshape(80, 4), h)])
    # the target exp(-2i Zsum (x) b_col) on the propagator's blocks, which
    # join the blocks of states 01 and 10: each entry of a generator's block
    # is its (s, k) block's entry, and zero between those blocks
    col = ((z1 + z2) * ((b1 + b2) / 2)).reshape(80, 4, 4)
    gen = []
    for idx, _ in u:
        cell, j = np.divmod(idx, 4)
        same = cell[:, :, None] == cell[:, None, :]
        gen.append((idx, np.where(same, col[cell[:, :, None], j[:, :, None], j[:, None, :]], 0)))
    target = pauli._expm_blocks(gen, 2.0)
    worst = max(np.abs(us - ts).max() for (_, us), (_, ts) in zip(u, target))
    return [CheckResult.error_below("pair_symmetrization_exact_20", worst, _PROPAGATOR_TOL)]


def check_leak_elimination() -> list[CheckResult]:
    rng = np.random.default_rng(17)
    b = _rand_herm(rng, 3)
    h = to_dense(
        OperatorSum.single(2, 0, "Y", 1.0, "B") + OperatorSum.single(2, 1, "Y", 1.0, "B"),
        bath_dim=3, bindings={"B": b})
    model = sequences.EvolutionModel(2, 3, h)
    u = sequences.propagator(sequences.leak_elim_cycle(0.2), model)
    return [CheckResult.error_below("motional_leakage_cancelled",
                                    np.abs(u - np.eye(12)).max(), _PROPAGATOR_TOL)]


def check_u4() -> list[CheckResult]:
    rng = np.random.default_rng(19)
    phi = rng.uniform(-1, 1)
    spec = gates.SmGateSpec(np.pi / 4, (phi,) * 4, (0, 1, 2, 3))
    u = gates.u4(spec)
    u_enc = gates.u4_encoded(spec)
    b = _rand_herm(rng, 3)
    b = b / pauli.spectral_norm(b)
    zsum = to_dense(sum((OperatorSum.single(4, q, "Z") for q in range(4)),
                        OperatorSum.zero(4)))
    zdif = to_dense(OperatorSum.single(4, 0, "Z") - OperatorSum.single(4, 2, "Z"))
    reg = dfs.DfsRegister(((0, 1), (2, 3)), 4)
    v = np.kron(dfs.code_isometry(reg), np.eye(3))

    def comm(g, h):
        gf = np.kron(g, np.eye(3))
        return gf @ h - h @ gf

    # the bare product gate preserves the code space under collective
    # dephasing (commutator vanishes there); the encoded-generator form
    # commutes on the whole space
    c_code = pauli.spectral_norm(comm(u, np.kron(zsum, b)) @ v)
    c_enc = pauli.spectral_norm(comm(u_enc, np.kron(zsum, b)))
    c_dif = pauli.spectral_norm(comm(u, np.kron(zdif, b)) @ v)
    blk = gates.dfs_restrict(u, reg)
    target = gates.u4_dfs_target(spec)
    return [
        CheckResult.error_below("u4_collective_commutes_on_code", c_code, _EXACT_TOL),
        CheckResult.error_below("u4_encoded_commutes_with_collective", c_enc, _EXACT_TOL),
        CheckResult.at_least("u4_breaks_differential", c_dif, _DIFFERENTIAL_FLOOR),
        CheckResult.error_below("u4_dfs_restriction", np.abs(blk - target).max(),
                                _PROPAGATOR_TOL),
    ]


def check_formulas() -> list[CheckResult]:
    p = gates.HardwareParams(eta=0.1, omega_rabi=2 * np.pi * 5e6, k_int=1, n_ions=2,
                             detuning=2 * np.pi * 50e6)
    t = gates.tau_sm(p)
    pen = gates.off_resonant_penalty(gates.HardwareParams(
        eta=0.1, omega_rabi=1.0, detuning=10.0, n_ions=2))
    con = gates.cancellation_constraints(1, p)
    return [
        CheckResult.near("tau_sm_1us", t, 1.0e-6, _TAU_SM_TOL),
        CheckResult.near("off_resonant_penalty", pen, 0.01, _PENALTY_TOL),
        CheckResult.flag("cancellation_incompatible", not con.lamb_dicke_compatible),
    ]


def check_generator_roundtrip() -> list[CheckResult]:
    rng = np.random.default_rng(23)
    samples = [(_rand_herm(rng, 6), rng.uniform(0.05, 2.5)) for _ in range(20)]
    h, scale = (np.array(x) for x in zip(*samples))
    # each h is exactly Hermitian, so its spectral norm is its largest |eigenvalue|
    t = scale / np.maximum(1.0, np.abs(np.linalg.eigvalsh(h)).max(axis=1))
    # exp(-i h t) = exp(-i (t h) 1): every generator, scaled by its own t, is
    # a block of one direct sum, exponentiated and taken back at unit time
    blocks = [(np.arange(6 * len(h)).reshape(-1, 6), t[:, None, None] * h)]
    [(_, g)] = pauli._log_blocks(pauli._expm_blocks(blocks, 1.0), 1.0, overwrite=True)[0]
    worst = np.abs(g / t[:, None, None] - h).max()
    return [CheckResult.error_below("generator_roundtrip_20", worst, _ROUNDTRIP_TOL)]


def check_bch() -> list[CheckResult]:
    rng = np.random.default_rng(29)
    xb, _, _ = (to_dense(op) for op in dfs.logical_operators((0, 1), 2))
    h_s = np.kron(xb + to_dense(dfs.basis_operator("Xtilde")), np.eye(2))
    b = _rand_herm(rng, 2)
    h_sb = np.kron(to_dense(dfs.basis_operator("ZY")), b) * 0.2
    h_b = np.kron(np.eye(4), _rand_herm(rng, 2)) * 0.3
    pi = np.kron(sequences.named_pulse("PI"), np.eye(2))
    ts = (0.2, 0.1, 0.05)
    t = np.array(ts)[:, None, None]
    # each interval's exp(-i H t) and its ideal exp(-i (h_s + h_b) 2t): six
    # blocks of one direct sum at unit time
    gen = np.concatenate((t * (h_s + h_sb + h_b), 2 * t * (h_s + h_b)))
    [(_, e)] = pauli._expm_blocks([(np.arange(8 * len(gen)).reshape(-1, 8), gen)], 1.0)
    u = e[:3] @ pi @ e[:3] @ pi
    diff = np.linalg.svd(u - e[3:], compute_uv=False)[:, 0]
    bnd = np.array([bch_bound(h_s, h_sb, h_b, ti)["bound"] for ti in ts])
    return [CheckResult.flag("bch_residual_within_bound", (diff <= _BCH_FACTOR * bnd).all())]


SUITES = {
    "su2": check_su2_algebra,
    "pauli": check_pauli_products,
    "sm_gates": check_sm_closed_form,
    "pulses": check_pulse_identities,
    "classification": check_classification,
    "symmetrization": check_symmetrization,
    "leakage": check_leak_elimination,
    "u4": check_u4,
    "formulas": check_formulas,
    "generator": check_generator_roundtrip,
    "bch": check_bch,
}


def run_all() -> list[CheckResult]:
    out: list[CheckResult] = []
    for fn in SUITES.values():
        out.extend(fn())
    return out
