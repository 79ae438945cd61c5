"""Two- and four-ion entangling gate family and hardware scalar formulas.

The two-ion gate is U_ij(theta, phi_i, phi_j) = exp(i theta X_phi_i (x) X_phi_j)
with X_phi = X cos(phi) + Y sin(phi).  Restricted to the pair's code space it
depends on the phases only through dphi = phi_i - phi_j.  The four-ion variant
U4 = exp(-i theta X^(x4)) entangles two encoded qubits.

Hardware formulas are pure scalar functions; frequencies in rad/s, times in
seconds, everything else dimensionless.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dfs import DfsRegister, _pair_register, code_isometry, logical_operators
from .pauli import (
    SIGMA, _CHECK_TOL, OperatorSum, PauliTerm, _finite, _integer, _ions, _matrix, _tuple,
    embed_sites, expm_i, kron_all, to_dense,
)


class LeakageError(ValueError):
    """A unitary expected to preserve the code space does not."""

    def __init__(self, off_block_norm: float):
        super().__init__(
            f"input does not preserve the code space (off-block norm {off_block_norm:.3e})")
        self.off_block_norm = off_block_norm


@dataclass(frozen=True)
class SmGateSpec:
    """Rotation angle and per-ion laser phases for a 2- or 4-ion gate."""

    theta: float
    phis: tuple[float, ...]
    ions: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        ions = _ions(self.ions, "gate ions")
        angles = tuple(_finite(a, "gate angle and phases")
                       for a in (self.theta, *_tuple(self.phis, "gate angle and phases")))
        if len(ions) not in (2, 4):
            raise ValueError("gate acts on 2 or 4 ions")
        if len(angles) != 1 + len(ions):
            raise ValueError("one phase per ion required")
        object.__setattr__(self, "theta", angles[0])
        object.__setattr__(self, "phis", angles[1:])
        object.__setattr__(self, "ions", ions)

    @property
    def delta_phi(self) -> float:
        """phi_i - phi_j of the first pair."""
        return self.phis[0] - self.phis[1]

    @property
    def delta_phi_34(self) -> float:
        if len(self.ions) != 4:
            raise ValueError("second pair only exists for 4-ion gates")
        return self.phis[2] - self.phis[3]


def x_phi(phi: float) -> OperatorSum:
    """Single-qubit X cos(phi) + Y sin(phi); Hermitian and involutory."""
    phi = _finite(phi, "phi")
    return OperatorSum(1, (
        PauliTerm(("X",), np.cos(phi)),
        PauliTerm(("Y",), np.sin(phi)),
    ))


def x_phi_dense(phi: float) -> np.ndarray:
    return _x_phi_stack(np.array([_finite(phi, "phi")]))[0]


def _x_phi_stack(phis: np.ndarray) -> np.ndarray:
    """X_phi of each of a 1-D array of phases, as an (n, 2, 2) stack."""
    phis = phis[:, None, None]
    return np.cos(phis) * SIGMA["X"] + np.sin(phis) * SIGMA["Y"]


def _xx_stack(phi_i: np.ndarray, phi_j: np.ndarray) -> np.ndarray:
    """X_phi_i (x) X_phi_j of 1-D arrays of phases, as an (n, 4, 4) stack;
    each entry is the single product `np.kron` takes for it."""
    a, b = _x_phi_stack(phi_i), _x_phi_stack(phi_j)
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, 4, 4)


def _sm_stack(theta: np.ndarray, phi_i: np.ndarray, phi_j: np.ndarray) -> np.ndarray:
    """The two-ion gate cos(theta) I + i sin(theta) X_phi_i (x) X_phi_j of
    1-D arrays of angles, as one (n, 4, 4) stack.  Every entry is computed
    on its own, so each matrix is the one its angles give in a stack of one."""
    theta = theta[:, None, None]
    return (np.cos(theta) * np.eye(4, dtype=complex)
            + 1j * np.sin(theta) * _xx_stack(phi_i, phi_j))


def sm_unitary(spec: SmGateSpec) -> np.ndarray:
    """Closed form cos(theta) I + i sin(theta) X_phi_i (x) X_phi_j (4x4)."""
    if len(spec.ions) != 2:
        raise ValueError("sm_unitary is the two-ion gate; use u4 for four ions")
    return _sm_stack(*np.array([spec.theta, *spec.phis])[:, None])[0]


def sm_gate_dense(spec: SmGateSpec, width: int) -> np.ndarray:
    """The gate embedded into a width-qubit register at its ion indices."""
    mat = sm_unitary(spec) if len(spec.ions) == 2 else u4(spec)
    return embed_sites(mat, spec.ions, width)


def sm_decompose(spec: SmGateSpec) -> dict[str, complex]:
    """Coefficients of the two-ion gate on {I, Xbar, Ybar, Xtilde, Ytilde}."""
    if len(spec.ions) != 2:
        raise ValueError("decomposition applies to the two-ion gate")
    th, d, s = spec.theta, spec.delta_phi, spec.phis[0] + spec.phis[1]
    return {
        "I": complex(np.cos(th)),
        "Xbar": 1j * np.sin(th) * np.cos(d),
        "Ybar": 1j * np.sin(th) * np.sin(d),
        "Xtilde": 1j * np.sin(th) * np.cos(s),
        "Ytilde": 1j * np.sin(th) * np.sin(s),
    }


def dfs_restrict(u: np.ndarray, register: DfsRegister | tuple[int, int]) -> np.ndarray:
    """Code-space block of a register unitary, in the encoded basis.

    Raises LeakageError when the unitary does not block-preserve the code
    space: when the spectral norm of its off-block part exceeds
    `pauli._CHECK_TOL` (1e-10); ValueError for a wrong shape or an entry
    that is not finite.
    """
    if not isinstance(register, DfsRegister):
        register = _pair_register(register)
    u = _matrix(u, "u", (2 ** register.width,) * 2)
    return _restrict_stack(u[None], code_isometry(register))[0]


def _restrict_stack(us: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Code-space blocks v^+ u v of an (n, d, d) stack of finite unitaries,
    given the code isometry v, as an (n, k, k) stack.

    Raises LeakageError, carrying the largest of the spectral norms of the
    off-block parts u v - v (v^+ u v), when that norm exceeds
    `pauli._CHECK_TOL`.
    """
    blocks = v.conj().T @ us @ v
    off = us @ v - v @ blocks
    off_norm = float(np.linalg.svd(off, compute_uv=False).max())
    if off_norm > _CHECK_TOL:
        raise LeakageError(off_norm)
    return blocks


def logical_gate(axis: str, theta: float,
                 pair: tuple[int, int] = (0, 1)) -> list[SmGateSpec]:
    """Gate program (matrix-product order) whose code-space action is
    exp(i theta axis-bar)."""
    def gate(th, dphi):
        return SmGateSpec(th, (dphi, 0.0), pair)

    if axis == "X":
        return [gate(theta, 0.0)]
    if axis == "Y":
        return [gate(theta, np.pi / 2)]
    if axis == "Z":
        return [gate(np.pi / 4, np.pi / 2), gate(theta, 0.0), gate(-np.pi / 4, np.pi / 2)]
    raise ValueError(f"axis must be X, Y, or Z, got {axis!r}")


def u4(spec: SmGateSpec) -> np.ndarray:
    """Four-ion gate exp(-i theta X_phi1 (x) ... (x) X_phi4), 16x16.

    theta = pi/4 is the standard entangling choice; other values are allowed
    (non-standard generalization).
    """
    if len(spec.ions) != 4:
        raise ValueError("u4 needs 4 ions")
    m = kron_all(*(x_phi_dense(p) for p in spec.phis))
    return np.cos(spec.theta) * np.eye(16, dtype=complex) - 1j * np.sin(spec.theta) * m


def _encoded_axis(dphi, xbar: np.ndarray, ybar: np.ndarray) -> np.ndarray:
    """cos(dphi) Xbar + sin(dphi) Ybar from the dense Xbar and Ybar of one
    pair: the axis about which a gate with phase difference dphi rotates
    the pair's code space.  An array of dphi gives a stack of axes."""
    dphi = np.asarray(dphi)[..., None, None]
    return np.cos(dphi) * xbar + np.sin(dphi) * ybar


def u4_dfs_target(spec: SmGateSpec) -> np.ndarray:
    """Expected code-space block of u4: exp(-i theta Xbar_d12 (x) Xbar_d34)."""
    xb, yb, _ = (to_dense(op) for op in logical_operators((0, 1), 2))
    v = code_isometry(DfsRegister(((0, 1),), 2))
    a12, a34 = (v.conj().T @ _encoded_axis(d, xb, yb) @ v
                for d in (spec.delta_phi, spec.delta_phi_34))
    return expm_i(np.kron(a12, a34), spec.theta)


def u4_encoded(spec: SmGateSpec) -> np.ndarray:
    """Encoded-generator variant exp(-i theta Xbar_d12 (x) Xbar_d34), 16x16.

    Unlike the bare product gate this commutes with Sum_i Z_i on the whole
    space (and the two agree on the code space); it is the form the
    decoupling analysis assumes.
    """
    if len(spec.ions) != 4:
        raise ValueError("u4_encoded needs 4 ions")

    x12, y12, _ = (to_dense(op) for op in logical_operators((0, 1), 4))
    x34, y34, _ = (to_dense(op) for op in logical_operators((2, 3), 4))
    gen = _encoded_axis(spec.delta_phi, x12, y12) @ _encoded_axis(spec.delta_phi_34, x34, y34)
    mat = expm_i(gen, spec.theta)
    if spec.ions != (0, 1, 2, 3):
        mat = embed_sites(mat, spec.ions, max(spec.ions) + 1)
    return mat


# ---------------------------------------------------------------------------
# hardware scalar formulas


@dataclass(frozen=True)
class HardwareParams:
    """Ion-trap drive parameters. Frequencies in rad/s."""

    eta: float = 0.1
    omega_rabi: float = 2 * np.pi * 5e6
    detuning: float = 2 * np.pi * 50e6
    n_mean: float = 0.0
    k_int: int = 1
    n_ions: int = 2

    def __post_init__(self):
        for name in ("eta", "omega_rabi", "detuning", "n_mean"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        for name in ("k_int", "n_ions"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        if not (self.eta > 0 and self.omega_rabi > 0 and self.n_mean >= 0):
            raise ValueError("require eta > 0, omega_rabi > 0, n_mean >= 0")


def tau_sm(p: HardwareParams) -> float:
    """Time to prepare a maximally entangled pair: pi sqrt(K) / (eta Omega)."""
    return np.pi * np.sqrt(p.k_int) / (p.eta * p.omega_rabi)


@dataclass(frozen=True)
class LambDickeCheck:
    product: float            # (n+1) eta^2, must be << 1
    infidelity_scale: float   # eta^4


def lamb_dicke_margin(p: HardwareParams) -> LambDickeCheck:
    return LambDickeCheck(product=(p.n_mean + 1) * p.eta ** 2,
                          infidelity_scale=p.eta ** 4)


def off_resonant_penalty(p: HardwareParams) -> float:
    """Fidelity loss (N/2)(Omega/delta)^2 from direct off-resonant coupling."""
    if p.detuning == 0:
        raise ValueError("detuning must be nonzero")
    if p.omega_rabi >= abs(p.detuning):
        warnings.warn("Omega >= delta: outside the perturbative regime",
                      stacklevel=2)
    return (p.n_ions / 2) * (p.omega_rabi / p.detuning) ** 2


@dataclass(frozen=True)
class CancellationCheck:
    delta_required: float
    eta_required: float
    lamb_dicke_compatible: bool


def cancellation_constraints(m: int, p: HardwareParams,
                             k_prime: int = 1) -> CancellationCheck:
    """Joint pulse-duration constraints for exact off-resonant cancellation.

    delta = m K' Omega is harmless, but eta = m sqrt(K) >= 1 for any
    m, K >= 1, which breaks the Lamb-Dicke requirement; the two conditions
    are incompatible.
    """
    m, k_prime = _integer(m, "m", 1), _integer(k_prime, "k_prime", 1)
    eta_req = m * np.sqrt(p.k_int)
    return CancellationCheck(
        delta_required=m * k_prime * p.omega_rabi,
        eta_required=eta_req,
        lamb_dicke_compatible=bool(eta_req < 1),
    )
