"""The one number rule at every input boundary: `pauli._finite` for real
numbers, `pauli._complex` for the coefficients and scalars of the Pauli
algebra, `pauli._integer` for integers with their lower bounds, `pauli._ions`
and `pauli._pair` for ion lists, `pauli._matrix` for every matrix or state
argument, and one square, Hermitian and unitary test for matrices.  A bad value raises ValueError (or a documented subclass); it
never raises a stray TypeError or a RuntimeWarning, and no bool, string, None
or non-finite value is read as a number."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfspulse.baths import (
    DephasingBath, SpectralNoise, VibBath, bch_bound, dephasing_run, qubit_motional_error,
    sample_1f_trajectory, suppression_scan, timescale_check,
)
from dfspulse.dfs import (
    DfsRegister, basis_operator, block_collective_residual, bucket_norms, bucket_operators,
    classify, encode, leakage_probability, logical_operators,
)
from dfspulse.gates import (
    HardwareParams, SmGateSpec, cancellation_constraints, dfs_restrict, logical_gate,
    sm_decompose, sm_unitary, u4, u4_encoded, x_phi, x_phi_dense,
)
from dfspulse.pauli import (
    BathSlotError, NonHermitianError, NonUnitaryError, OperatorSum, PauliTerm, commutes,
    embed_sites, expm_i, generator_of, is_hermitian_matrix, is_unitary, pauli_mul, to_dense,
)
from dfspulse.sequences import (
    Drive, EvolutionModel, Free, NamedPulse, PulseSequence, RawPulse, _drive_hamiltonian,
    combined_gate, euler_angles_xyx, euler_rotation, named_pulse, parity_kick, seq_from_text,
    seq_to_text, symmetrize_block4, symmetrize_pair,
)

BAD = [math.nan, math.inf, -math.inf, -1, 0, 2.5, "1", None, [1, 2], True, np.bool_(True)]
_BAD_IDS = ["nan", "inf", "-inf", "-1", "0", "2.5", "str", "None", "list", "True", "np.True_"]

_DRIVE = dict(h_sys=OperatorSum.from_label("XX"), tau=0.1, amplitude=1.0, phi=0.0)
_NAMED_DRIVE = dict(_DRIVE, h_sys=_drive_hamiltonian("X", (0, 1), 2, 0.0), axis="X",
                    pair=(0, 1))
_GATE = dict(theta=0.3, phis=(0.1, 0.2), ions=(0, 1))
_VIB = dict(gamma=1.0, mode_freqs=(3.0,), omega0=1e7, n_trunc=2, temperature=0.01)
_NOISE = dict(alpha=2.0, omega_min=1.0, omega_max=100.0, amplitude=10.0, n_harmonics=8,
              seed=0)


def _same(bad):
    return bad


# the bad values a field may take: a real, an integer, a sequence or none
REAL, INT, SEQ, NONE = (-1, 0, 2.5), (-1, 0), ([1, 2],), ()

# (constructor, valid arguments, field, the field's value holding `bad`,
# declared type, the bad values it may accept); a declared type is a type,
# [spec] for a tuple of any length, or a tuple of specs for one of that length
FIELDS = [
    (Free, dict(tau=0.1), "tau", _same, float, REAL),
    *[(Drive, _DRIVE, f, _same, float, REAL) for f in ("tau", "amplitude", "phi")],
    (Drive, _NAMED_DRIVE, "pair", _same, (int, int), SEQ),
    (Drive, _NAMED_DRIVE, "pair", lambda b: (b, 1), (int, int), INT),
    (NamedPulse, dict(ops=(("P", (0, 1)),)), "ops", _same, [(str, (int, int))], NONE),
    (NamedPulse, dict(ops=(("P", (0, 1)),)), "ops", lambda b: (("P", (0, b)),),
     [(str, (int, int))], INT),
    (SmGateSpec, _GATE, "theta", _same, float, REAL),
    (SmGateSpec, _GATE, "phis", _same, [float], SEQ),
    (SmGateSpec, _GATE, "phis", lambda b: (0.1, b), [float], REAL),
    (SmGateSpec, _GATE, "ions", _same, [int], SEQ),
    (SmGateSpec, _GATE, "ions", lambda b: (b, 1), [int], INT),
    *[(HardwareParams, {}, f, _same, float, REAL)
      for f in ("eta", "omega_rabi", "detuning", "n_mean")],
    *[(HardwareParams, {}, f, _same, int, INT) for f in ("k_int", "n_ions")],
    *[(VibBath, _VIB, f, _same, float, REAL) for f in ("gamma", "omega0", "temperature")],
    (VibBath, _VIB, "n_trunc", _same, int, INT),
    (VibBath, _VIB, "mode_freqs", _same, [float], SEQ),
    (VibBath, _VIB, "mode_freqs", lambda b: (3.0, b), [float], REAL),
    *[(SpectralNoise, _NOISE, f, _same, float, REAL)
      for f in ("alpha", "omega_min", "omega_max", "amplitude")],
    *[(SpectralNoise, _NOISE, f, _same, int, INT) for f in ("n_harmonics", "seed")],
    *[(EvolutionModel, dict(width=2, bath_dim=1), f, _same, int, INT)
      for f in ("width", "bath_dim")],
    (DfsRegister, dict(pairs=((0, 1),), width=3), "width", _same, int, INT),
    (DfsRegister, dict(pairs=((0, 1),), width=3), "pairs", _same, [(int, int)], NONE),
    (DfsRegister, dict(pairs=((0, 1),), width=3), "pairs", lambda b: ((0, b),),
     [(int, int)], INT),
]


def _typed(value, spec) -> bool:
    if isinstance(spec, type):
        return type(value) is spec
    if isinstance(spec, list):
        return type(value) is tuple and all(_typed(v, spec[0]) for v in value)
    return (type(value) is tuple and len(value) == len(spec)
            and all(map(_typed, value, spec)))


@pytest.mark.parametrize("bad", BAD, ids=_BAD_IDS)
@pytest.mark.parametrize("make, valid, field, put, spec, ok", FIELDS,
                         ids=[f"{c.__name__}.{f}{'' if p is _same else '-entry'}"
                              for c, _, f, p, *_ in FIELDS])
def test_a_bad_field_raises_value_error_or_is_stored_as_declared(make, valid, field, put,
                                                                  spec, ok, bad):
    try:
        obj = make(**{**valid, field: put(bad)})
    except ValueError:
        return
    # type() first, so that True is not taken for 1
    assert any(type(bad) is type(a) and bad == a for a in ok), (
        f"{bad!r} was read as {getattr(obj, field)!r}")
    assert _typed(getattr(obj, field), spec)


_NOISE8 = SpectralNoise(**_NOISE)
_FREE = PulseSequence((Free(1e-3),))
_XZ = OperatorSum.from_label("XZ")
_GRID = [8e-3, 4e-3, 2e-3, 1e-3]
_REG = DfsRegister(((0, 1),), 2)
_CODE_STATE = np.eye(4)[2]
_NAN4 = np.full((4, 4), math.nan)
_GATE2, _GATE4 = SmGateSpec(**_GATE), SmGateSpec(0.3, (0.1, 0.2, 0.3, 0.4), (0, 1, 2, 3))


@pytest.mark.parametrize("call, what", [
    (lambda: dephasing_run(_FREE, _NOISE8, 3, n_cycles=2.5), "n_cycles"),
    (lambda: dephasing_run(_FREE, _NOISE8, 3, n_cycles=3, record_every=1.5), "record_every"),
    (lambda: dephasing_run(_FREE, _NOISE8, "3", n_cycles=3), "n_traj"),
    (lambda: embed_sites(np.eye(2), (0.0,), 2), "sites"),
    (lambda: symmetrize_block4(0.1, 4.0), "n_ions"),
    (lambda: to_dense(_XZ, 1.5), "bath_dim"),
    (lambda: to_dense(_XZ, 0), "bath_dim"),
    (lambda: seq_from_text("[tau=0.1, P@0:1]", width=2.5), "width"),
    (lambda: cancellation_constraints(1.5, HardwareParams()), "m"),
    (lambda: cancellation_constraints(math.nan, HardwareParams()), "m"),
    (lambda: cancellation_constraints(True, HardwareParams()), "m"),
    (lambda: cancellation_constraints(1, HardwareParams(), k_prime=-1), "k_prime"),
    (lambda: sample_1f_trajectory(_NOISE8, 1.0, 0), "dt_sample"),
    (lambda: sample_1f_trajectory(_NOISE8, 1.0, -1e-3), "dt_sample"),
    (lambda: expm_i(np.eye(2), "1"), "^t:"),
    (lambda: expm_i(np.eye(2), True), "^t:"),
    (lambda: generator_of(np.eye(2), "1"), "total_time"),
    (lambda: combined_gate("X", "1", 1.0), "^t:"),
    (lambda: euler_rotation("1", 0.1, 0.1, 1.0), "alpha"),
    (lambda: euler_rotation(0.1, 0.1, 0.1, "1"), "omega_drive"),
    (lambda: suppression_scan(symmetrize_pair, _GRID, _NOISE8, 3, "1"), "t_max"),
    (lambda: suppression_scan(symmetrize_pair, _GRID[:3] + ["1"], _NOISE8, 3, 3.0),
     "dt_grid"),
    *[(lambda w=w: OperatorSum(w, ()), "width")
      for w in ("1", None, True, math.nan, math.inf, [1, 2])],
    (lambda: OperatorSum.single("1", 0, "Z"), "width"),
    (lambda: basis_operator("II", (0, 1), "1"), "width"),
    (lambda: logical_operators((0, 1), "1"), "width"),
    (lambda: named_pulse("P", (0, 1), "1"), "width"),
    (lambda: combined_gate("X", 1.0, 1.0, (0, 1), "1"), "width"),
    (lambda: qubit_motional_error((0, 1), "1"), "width"),
    (lambda: DephasingBath(np.eye(2), np.eye(2)).hamiltonian((0, 1), "1"), "width"),
    (lambda: leakage_probability(_CODE_STATE, _REG, "1"), "bath_dim"),
    (lambda: leakage_probability(_CODE_STATE, _REG, True), "bath_dim"),
    (lambda: bucket_operators(np.eye(4), None), "bath_dim"),
    (lambda: block_collective_residual(np.eye(4), "1", 1, ((0, 1),)), "width"),
    (lambda: block_collective_residual(np.eye(4), 2, None, ((0, 1),)), "bath_dim"),
    (lambda: dephasing_run(_FREE, _NOISE8, 3, None), "pair"),
    (lambda: x_phi("1"), "phi"),
    (lambda: x_phi_dense("1"), "phi"),
    (lambda: x_phi(math.nan), "phi"),
    (lambda: bch_bound(np.eye(2), np.eye(2), np.eye(2), "1"), "^t:"),
    (lambda: bch_bound(np.eye(2), np.eye(2), np.eye(2), math.nan), "^t:"),
    (lambda: timescale_check("1", 1.0, 1.0), "^dt:"),
    (lambda: timescale_check(1e-9, "1", 1.0), "^omega_c:"),
    (lambda: timescale_check(1e-9, 1.0, "1"), "^t_dec:"),
    (lambda: Drive(np.eye(4), 0.1, 1.0), "h_sys"),
    (lambda: Drive("1", 0.1, 1.0), "h_sys"),
    (lambda: expm_i([[1, math.inf], [0, 1]], 1.0), "generator h"),
    *[(lambda h=h: expm_i(h, 1.0), "generator h")
      for h in (np.ones(3), np.array(1.0), np.ones((2, 3)))],
    (lambda: DephasingBath(np.ones(3), np.ones(3)), "b1"),
    (lambda: generator_of([[1, math.inf], [0, 1]], 1.0), "input u"),
    *[(lambda p=p: qubit_motional_error(p), "pair") for p in ((0, 0), None)],
    *[(lambda p=p: DephasingBath(np.eye(2), np.eye(2)).hamiltonian(p), "pair")
      for p in ((0, 0), None)],
    *[(lambda p=p: dephasing_run(_FREE, _NOISE8, 3, p, n_cycles=3), "pair")
      for p in ((0,), (0, 1, 2), (0, 0), (-1, 0))],
    (lambda: dfs_restrict(np.eye(4), None), "register"),
    (lambda: SpectralNoise(**{**_NOISE, "seed": -1}), "seed"),
    *[(lambda n=n: symmetrize_block4(0.1, n), "n_ions") for n in (0, -4)],
    (lambda: embed_sites(np.eye(1), (), -2), "width"),
    (lambda: DfsRegister((), -1), "width"),
    *[(lambda slot=slot: PauliTerm("XY", 1.0, slot), "bath_slot") for slot in (5, ["a"])],
    *[(lambda slot=slot: OperatorSum.single(2, 0, "X", 1.0, slot), "bath_slot")
      for slot in (3, ["a"])],
    (lambda: OperatorSum.from_label("XY", 1.0, ["a"]), "bath_slot"),
    *[(lambda terms=terms: OperatorSum(2, terms), "terms") for terms in (["XX"], 5)],
    *[(lambda c=c: PauliTerm("XY", c), "coefficient")
      for c in ("1", math.nan, complex(0, math.inf), True, None)],
    (lambda: OperatorSum.single(2, 0, "X", "2j"), "coefficient"),
    (lambda: OperatorSum.from_label("XY", "3"), "coefficient"),
    (lambda: _XZ * "2", "scalar"),
    (lambda: "2" * _XZ, "scalar"),
    (lambda: _XZ * math.nan, "scalar"),
    (lambda: 10 ** 400 * _XZ, "scalar"),
    (lambda: pauli_mul(PauliTerm("XY"), 1), "^b:"),
    (lambda: commutes(PauliTerm("XY"), "XY"), "^b:"),
    (lambda: OperatorSum.from_label("XY").isclose(1), "^other:"),
    (lambda: PauliTerm(5), "^factors:"),
    (lambda: OperatorSum.from_label(5), "^factors:"),
    (lambda: to_dense("x"), "^op:"),
    (lambda: leakage_probability(_CODE_STATE[:, None], _REG), "^state "),
    (lambda: leakage_probability(np.ones((4, 3)), _REG), "^state "),
    (lambda: bch_bound(np.ones(4), np.eye(4), np.eye(4), 0.1), "^h_s "),
    (lambda: bch_bound(_NAN4, np.eye(4), np.eye(4), 0.1), "^h_s "),
    (lambda: bucket_norms(_NAN4, 1), "^h "),
    (lambda: block_collective_residual(_NAN4, 2, 1, ((0, 1),)), "^h "),
    (lambda: DephasingBath(np.eye(2), np.eye(3)), "^b2 "),
    (lambda: encode([math.nan, 1], _REG), "^logical_state "),
    (lambda: embed_sites(None, (0, 1), 3), "^mat "),
    (lambda: euler_angles_xyx(np.zeros((2, 2))), "unitary target"),
    (lambda: PulseSequence(5), "^events:"),
    (lambda: PulseSequence(("x",)), "^events:"),
    (lambda: seq_from_text("[DRIVE(axisX)]"), "'axisX'"),
    (lambda: named_pulse("Z"), "unknown pulse label"),
    (lambda: basis_operator("QQ"), "unknown basis label"),
    (lambda: timescale_check(-1e-9, 1.0, 1.0), "^require dt > 0"),
    (lambda: DfsRegister(((1, 0),), 2), "ordered"),
    (lambda: classify(OperatorSum.from_label("XXX")), "cannot infer the pair"),
    (lambda: SmGateSpec(0.1, (0.0,) * 3, (0, 1, 2)), "2 or 4 ions"),
    (lambda: SmGateSpec(0.1, (0.0,), (0, 1)), "one phase per ion"),
    (lambda: _GATE2.delta_phi_34, "second pair"),
    (lambda: sm_unitary(_GATE4), "two-ion gate"),
    (lambda: sm_decompose(_GATE4), "two-ion gate"),
    (lambda: u4(_GATE2), "u4 needs 4 ions"),
    (lambda: u4_encoded(_GATE2), "u4_encoded needs 4 ions"),
    (lambda: logical_gate("W", 0.1), "axis must be X, Y, or Z"),
    (lambda: PauliTerm("XQ"), "unknown Pauli label 'Q'"),
    (lambda: PauliTerm(("X", "YZ")), "unknown Pauli label in"),
    (lambda: OperatorSum(3, (PauliTerm("XX"),)), "term width 2"),
    *[(lambda t=t: combined_gate("X", t, 1.0), "t must be positive") for t in (0.0, -1.0)],
    (lambda: seq_to_text(PulseSequence((Drive(**_DRIVE),))), "generic drives"),
], ids=["n_cycles", "record_every", "n_traj", "embed_sites", "symmetrize_block4",
        "to_dense-1.5", "to_dense-0", "seq_from_text", "m-1.5", "m-nan", "m-True",
        "k_prime", "dt_sample-0", "dt_sample-negative",
        "expm_i-str", "expm_i-True", "generator_of", "combined_gate-t", "euler-alpha",
        "euler-omega_drive", "scan-t_max", "scan-dt_grid",
        *[f"OperatorSum-{w}" for w in ("str", "None", "True", "nan", "inf", "list")],
        "single", "basis_operator", "logical_operators", "named_pulse",
        "combined_gate-width", "qubit_motional_error", "DephasingBath.hamiltonian",
        "leakage-str", "leakage-True", "bucket_operators",
        "block_residual-width", "block_residual-bath_dim", "dephasing_run-pair",
        "x_phi", "x_phi_dense", "x_phi-nan", "bch_bound", "bch_bound-nan",
        "timescale-dt", "timescale-omega_c", "timescale-t_dec", "Drive-array", "Drive-str",
        "expm_i-inf", "expm_i-vector", "expm_i-scalar", "expm_i-2x3", "DephasingBath-vector",
        "generator_of-inf", "qubit_motional_error-(0,0)", "qubit_motional_error-None",
        "hamiltonian-(0,0)", "hamiltonian-None",
        *[f"dephasing_run-{p}" for p in ("(0,)", "(0,1,2)", "(0,0)", "(-1,0)")],
        "dfs_restrict-None", "SpectralNoise-seed", "symmetrize_block4-0",
        "symmetrize_block4-negative", "embed_sites-width", "DfsRegister-width",
        "PauliTerm-slot-int", "PauliTerm-slot-list", "single-slot-int", "single-slot-list",
        "from_label-slot-list", "OperatorSum-terms-str", "OperatorSum-terms-int",
        *[f"PauliTerm-coefficient-{c}" for c in ("str", "nan", "inf-imag", "True", "None")],
        "single-coefficient-str", "from_label-coefficient-str", "scalar-str-right",
        "scalar-str-left", "scalar-nan", "scalar-overflow", "pauli_mul-int",
        "commutes-str", "isclose-int", "PauliTerm-int", "from_label-int", "to_dense-str",
        "leakage-column", "leakage-4x3", "bch_bound-vector", "bch_bound-nan-matrix",
        "bucket_norms-nan", "block_residual-nan", "DephasingBath-shapes", "encode-nan",
        "embed_sites-None", "euler-zeros", "PulseSequence-int", "PulseSequence-str-event",
        "seq_from_text-field", "named_pulse-label", "basis_operator-label", "timescale-range",
        "DfsRegister-unordered", "classify-no-pair", "SmGateSpec-3-ions",
        "SmGateSpec-phase-count", "delta_phi_34-2-ions", "sm_unitary-4-ions",
        "sm_decompose-4-ions", "u4-2-ions", "u4_encoded-2-ions", "logical_gate-axis",
        "PauliTerm-letter", "PauliTerm-factor", "OperatorSum-term-width",
        "combined_gate-t-0", "combined_gate-t-negative", "seq_to_text-generic-drive"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_bad_function_argument_raises_value_error(call, what):
    with pytest.raises(ValueError, match=what):
        call()


_I2 = np.eye(2)

# every matrix or state argument read through `pauli._matrix`: (call on the
# argument, a valid value, the error the call raises, its name in the message)
MATRIX_ARGUMENTS = {
    "embed_sites": (lambda m: embed_sites(m, (0, 1), 3), np.eye(4), ValueError, "^mat "),
    "expm_i": (lambda m: expm_i(m, 1.0), _I2, NonHermitianError, "generator h"),
    "generator_of": (lambda m: generator_of(m, 1.0), _I2, NonUnitaryError, "input u"),
    "binding": (lambda m: to_dense(OperatorSum.single(1, 0, "Z", 1.0, "b"), 2, {"b": m}),
                _I2, BathSlotError, "^binding for 'b' "),
    "encode": (lambda m: encode(m, _REG), np.eye(2)[0], ValueError, "^logical_state "),
    "leakage_probability": (lambda m: leakage_probability(m, _REG), _CODE_STATE, ValueError,
                            "^state "),
    "bucket_norms": (lambda m: bucket_norms(m, 1), np.eye(4), ValueError, "^h "),
    "block_collective_residual": (lambda m: block_collective_residual(m, 2, 1, ((0, 1),)),
                                  np.eye(4), ValueError, "^h "),
    "dfs_restrict": (lambda m: dfs_restrict(m, (0, 1)), np.eye(4), ValueError, "^u "),
    "EvolutionModel": (lambda m: EvolutionModel(2, 1, m), np.eye(4), ValueError, "^h_static "),
    "RawPulse": (RawPulse, _I2, NonUnitaryError, "^RawPulse matrix "),
    "parity_kick": (lambda m: parity_kick(m, 0.1), _I2, NonUnitaryError, "unitary r"),
    "euler_angles_xyx": (euler_angles_xyx, _I2, NonUnitaryError, "unitary target"),
    "DephasingBath.b1": (lambda m: DephasingBath(m, _I2), _I2, ValueError, "^b1 "),
    "DephasingBath.b2": (lambda m: DephasingBath(_I2, m), _I2, ValueError, "^b2 "),
    "DephasingBath.h_bath": (lambda m: DephasingBath(_I2, _I2, m), _I2, ValueError,
                             "^h_bath "),
    "bch_bound.h_s": (lambda m: bch_bound(m, _I2, _I2, 0.1), _I2, ValueError, "^h_s "),
    "bch_bound.h_sb": (lambda m: bch_bound(_I2, m, _I2, 0.1), _I2, ValueError, "^h_sb "),
    "bch_bound.h_b": (lambda m: bch_bound(_I2, _I2, m, 0.1), _I2, ValueError, "^h_b "),
}


def _bad_matrices(valid: np.ndarray) -> dict:
    """Inputs that no matrix argument accepts, given a valid one: a wrong
    shape, a 1-D array (a wrong length where a vector is valid), a NaN entry,
    None and a string."""
    nan = valid.astype(complex)
    nan.flat[0] = math.nan
    return {"shape": np.ones((len(valid), len(valid) + 1)), "1-D": np.ones(valid.size + 1),
            "nan": nan, "None": None, "str": "1"}


# None is the default of h_static and h_bath, no ambient or bath Hamiltonian
@pytest.mark.parametrize("site, bad", [
    (site, bad) for site in MATRIX_ARGUMENTS for bad in ("shape", "1-D", "nan", "None", "str")
    if (site, bad) not in (("EvolutionModel", "None"), ("DephasingBath.h_bath", "None"))])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_matrix_argument_takes_a_nested_list_and_rejects_a_bad_matrix(site, bad):
    call, valid, error, what = MATRIX_ARGUMENTS[site]
    call(valid.tolist())
    with pytest.raises(error, match=what):
        call(_bad_matrices(valid)[bad])


@pytest.mark.parametrize("call", [
    lambda: _XZ + 1, lambda: _XZ - 1, lambda: _XZ @ 1, lambda: _XZ + "XZ",
    lambda: _XZ @ PauliTerm("XZ"), lambda: _FREE * 5,
], ids=["add-int", "sub-int", "matmul-int", "add-str", "matmul-term", "sequence-mul-int"])
def test_an_operand_that_is_not_an_operator_sum_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("obj, field", [
    (PauliTerm("XY"), "x"), (PauliTerm("XY"), "coefficient"), (_XZ, "width"), (_XZ, "_coefs"),
], ids=["PauliTerm.x", "PauliTerm.coefficient", "OperatorSum.width", "OperatorSum._coefs"])
def test_a_pauli_term_or_sum_rejects_assignment(obj, field):
    with pytest.raises(AttributeError, match="immutable"):
        setattr(obj, field, 0)


def _matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A random matrix of the given kind; a square one is sometimes a direct
    sum, so that the kernels split it into blocks."""
    if kind == "non-square":
        return (np.ones(n), np.array(1.0), np.ones((n, n + 1)), np.ones((1, n, n)))[n % 4]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    base = rng.choice(["hermitian", "unitary"]) if kind == "non-finite" else kind
    m = {"general": g, "hermitian": (g + g.conj().T) / 2, "unitary": np.linalg.qr(g)[0]}[base]
    if rng.random() < 0.5:
        m = np.kron(np.eye(2), m)
    if kind == "non-finite":  # a Hermitian or unitary matrix with one bad entry
        m[tuple(rng.integers(len(m), size=2))] = rng.choice([math.nan, math.inf, -math.inf])
    return m


def _rejects(call, error) -> bool:
    try:
        call()
    except error:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["general", "hermitian", "unitary", "non-finite", "non-square"]),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_kernels_accept_exactly_what_the_matrix_tests_accept(kind, n, seed):
    m = _matrix(kind, n, np.random.default_rng(seed))
    assert is_hermitian_matrix(m) != _rejects(lambda: expm_i(m, 1.0), NonHermitianError)
    assert is_unitary(m) != _rejects(lambda: generator_of(m, 1.0), NonUnitaryError)
