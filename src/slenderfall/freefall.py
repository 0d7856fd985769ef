"""Steady free-fall states: the 3x3 eigenproblem for spin and orientation.

Eliminating xi from the steady force/torque balance leaves a 3x3 real matrix
F whose real eigenpairs (lambda, g) give every steady state:

    F = (K_rt K_tt^-1 K_tr - K_rr)^-1 (m_e K_rt K_tt^-1 + m_c [r x])
    omega = lambda g,   xi = K_tt^-1 (m_e g - lambda K_tr g).

A real 3x3 matrix always has a real eigenvalue, so at least one steady state
exists. The Schur factor is the negative of a Schur complement of the
positive-definite grand resistance matrix, hence invertible, except for
straight bodies whose axial rotation generates no boundary data; that null
direction is detected and removed by a restricted pseudo-inverse.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneracyError, InternalConsistencyError, SolverError

_SIGN_TOL = 1e-8
# a singular value of the Schur factor below this share of |K_rr| is null
_DEGENERACY_RTOL = 1e-10
# eigenvalues of F closer than this share of max(|F|, 1) are one cluster
_CLUSTER_RTOL = 1e-7
# largest momentum residual of a steady state, relative to its load
_RESIDUAL_RTOL = 1e-8


def cross_matrix(v):
    """Matrix [v x] such that [v x] w = v x w."""
    v = np.asarray(v, dtype=float)
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


@dataclass(frozen=True)
class FallOperator:
    matrix: np.ndarray        # (3,3) F
    schur: np.ndarray         # (3,3) K_rt K_tt^-1 K_tr - K_rr
    degenerate: bool
    null_direction: Optional[np.ndarray]
    schur_condition: float


@dataclass(frozen=True)
class SteadyState:
    lam: float
    g: np.ndarray             # unit orientation (sign convention applied)
    xi: np.ndarray
    omega: np.ndarray         # lambda * g
    multiplicity: int
    degenerate: bool
    eigen_residual: float
    momentum_residual: float
    eigenbasis: Optional[np.ndarray] = None   # (mult,3) when multiplicity > 1

    def to_dict(self):
        d = {
            "lambda": self.lam,
            "g": self.g.tolist(),
            "xi": self.xi.tolist(),
            "omega": self.omega.tolist(),
            "multiplicity": self.multiplicity,
            "degenerate": self.degenerate,
            "eigen_residual": self.eigen_residual,
            "momentum_residual": self.momentum_residual,
            "mirror_note": "(-g, -xi, -omega) is also steady",
        }
        if self.eigenbasis is not None:
            d["eigenbasis"] = self.eigenbasis.tolist()
        return d


def fall_operator(resistance, mass_props):
    """Build F from a resistance set and mass properties.

    Straight bodies have a rotational null direction; there the Schur factor
    is inverted on the non-null subspace and the degeneracy is flagged. A
    rank deficiency of more than one direction has no consistent restriction
    and raises.
    """
    Ktt, Ktr = resistance.k_tt, resistance.k_tr
    Krt, Krr = resistance.k_rt, resistance.k_rr
    krt_kttinv = Krt @ np.linalg.inv(Ktt)
    schur = krt_kttinv @ Ktr - Krr
    rhs = mass_props.m_e * krt_kttinv + mass_props.m_c * cross_matrix(mass_props.r)

    u, sv, vt = np.linalg.svd(schur)
    top = np.abs(Krr).max() or 1.0   # scaled: |Krr|^2 may overflow
    scale = max(top * np.linalg.norm(Krr / top), np.finfo(float).tiny)
    small = sv < _DEGENERACY_RTOL * scale
    if small.sum() == 0:
        F = np.linalg.solve(schur, rhs)
        return FallOperator(matrix=F, schur=schur, degenerate=False,
                            null_direction=None,
                            schur_condition=float(sv[0] / sv[-1]))
    if small.sum() > 1:
        raise DegeneracyError(
            "freefall.fall_operator: Schur factor rank-deficient in more than "
            "one direction; no consistent restriction",
            null_direction=vt[small])
    null = vt[-1]
    # consistency: the load must not drive the null direction; a load norm
    # that overflows passes here, and real_eigenpairs refuses the F it gives
    with np.errstate(over="ignore"):
        driven = np.linalg.norm(null @ rhs) > _DEGENERACY_RTOL * max(np.linalg.norm(rhs), 1.0)
    if driven:
        raise DegeneracyError(
            "freefall.fall_operator: load has a component along the degenerate "
            "rotation direction", null_direction=null)
    inv_sv = np.where(small, 0.0, 1.0 / np.where(small, 1.0, sv))
    pinv = (vt.T * inv_sv) @ u.T
    F = pinv @ rhs
    return FallOperator(matrix=F, schur=schur, degenerate=True,
                        null_direction=null,
                        schur_condition=float(sv[0] / max(sv[~small][-1], np.finfo(float).tiny)))


def _apply_sign_convention(g):
    """First component with magnitude above 1e-8 is made positive."""
    for comp in g:
        if abs(comp) > _SIGN_TOL:
            return g if comp > 0 else -g
    return g


@np.errstate(over="ignore", invalid="ignore")
def real_eigenpairs(F):
    """All real eigenpairs of a 3x3 matrix via the characteristic cubic.

    The depressed cubic is solved in closed form (Cardano / trigonometric
    branch), each real root is polished by Newton iteration on the
    characteristic polynomial, and eigenvectors come from the SVD null space
    of F - lambda I. Repeated roots are clustered and reported once with
    their multiplicity and an orthonormal eigenspace basis. A polynomial
    that overflows leaves no finite root and raises SolverError, without a
    floating-point warning.
    """
    F = np.asarray(F, dtype=float)
    norm_f = float(np.linalg.norm(F))
    # absolute floor of 1: symmetric bodies produce F = O(roundoff) whose
    # eigenvalues must collapse to a single zero of multiplicity 3
    eig_tol = _CLUSTER_RTOL * max(norm_f, 1.0)
    c2 = -np.trace(F)
    c1 = 0.5 * (np.trace(F) ** 2 - np.trace(F @ F))
    c0 = -np.linalg.det(F)
    # lambda^3 + c2 lambda^2 + c1 lambda + c0; depressed: y^3 + p y + q
    p = c1 - c2 ** 2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0

    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    if abs(p) <= eig_tol ** 2 and abs(q) <= eig_tol ** 3:
        roots = [shift, shift, shift]
    elif disc >= 0.0:
        # three real roots (possibly repeated): trigonometric form
        m = 2.0 * np.sqrt(max(-p, 0.0) / 3.0)
        arg = np.clip(3.0 * q / (p * m) if p * m != 0 else 0.0, -1.0, 1.0)
        theta = np.arccos(arg) / 3.0
        roots = [shift + m * np.cos(theta - 2.0 * np.pi * k / 3.0)
                 for k in range(3)]
    else:
        # one real root (Cardano); the complex pair is kept when its
        # imaginary part is at roundoff scale (near-multiple roots)
        half_q = -q / 2.0
        root_disc = np.sqrt(q ** 2 / 4.0 + p ** 3 / 27.0)
        u = np.cbrt(half_q + root_disc)
        v = np.cbrt(half_q - root_disc)
        roots = [shift + u + v]
        imag_pair = 0.5 * np.sqrt(3.0) * abs(u - v)
        if imag_pair <= eig_tol:
            roots += [shift - 0.5 * (u + v)] * 2

    # Newton polish on the original cubic
    def poly(x):
        return ((x + c2) * x + c1) * x + c0

    def dpoly(x):
        return (3.0 * x + 2.0 * c2) * x + c1

    polished = []
    for lam in roots:
        for _ in range(3):
            d = dpoly(lam)
            if abs(d) < 1e-30:
                break
            step = poly(lam) / d
            if not np.isfinite(step):
                break
            lam -= step
        polished.append(lam)
    if not np.all(np.isfinite(polished)):
        # e.g. |F| ~ 1e280, whose characteristic polynomial overflows
        raise SolverError(f"freefall.real_eigenpairs: the characteristic polynomial "
                          f"of F (max |F_ij| = {np.abs(F).max():.3e}) has no "
                          f"finite roots")
    polished.sort()

    # cluster repeated roots
    clusters = []
    for lam in polished:
        if clusters and abs(lam - clusters[-1][0]) <= eig_tol:
            group = clusters[-1][1] + [lam]
            clusters[-1] = (float(np.mean(group)), group)
        else:
            clusters.append((lam, [lam]))

    pairs = []
    for lam, group in clusters:
        mult = len(group)
        _, sv, vt = np.linalg.svd(F - lam * np.eye(3))
        null_dim = max(1, int(np.sum(sv < max(1e-10 * norm_f, 1e-14))))
        take = min(null_dim, mult)
        if take == 3:
            basis = np.eye(3)  # whole space: canonical axes, deterministic
        else:
            basis = vt[3 - take:][::-1]  # smallest singular directions first
        basis = np.array([_apply_sign_convention(b / np.linalg.norm(b))
                          for b in basis])
        pairs.append((float(lam), basis, mult))
    return pairs


def steady_states(resistance, mass_props):
    """Enumerate steady free-fall states (lambda, g, xi, omega).

    Each real eigenpair of the fall operator yields one state (the mirrored
    state with -g is the same solution and is reported via the sign
    convention note). States failing the momentum-balance gate raise.
    """
    op = fall_operator(resistance, mass_props)
    F = op.matrix
    states = []
    for lam, basis, mult in real_eigenpairs(F):
        g = basis[0]
        xi = np.linalg.solve(resistance.k_tt,
                             mass_props.m_e * g - lam * resistance.k_tr @ g)
        omega = lam * g
        force, torque = _balance(xi, omega, g, resistance, mass_props)
        mom = max(force, torque)
        # hypot: |K_tt| or |xi| alone may under- or overflow as a sum of squares
        scale = max(abs(mass_props.m_e),
                    math.hypot(*resistance.k_tt.ravel()) * math.hypot(*xi), 1e-300)
        if mom > _RESIDUAL_RTOL * scale:
            over = [name for name, value in (("force", force), ("torque", torque))
                    if value > _RESIDUAL_RTOL * scale]
            raise InternalConsistencyError(
                f"freefall.steady_states: {' and '.join(over)} residual exceeds "
                f"{_RESIDUAL_RTOL:.1e} * scale ({scale:.3e}): force residual "
                f"{force:.3e}, torque residual {torque:.3e}")
        states.append(SteadyState(
            lam=lam, g=g, xi=xi, omega=omega, multiplicity=mult,
            degenerate=op.degenerate,
            eigen_residual=float(np.linalg.norm(F @ g - lam * g)),
            momentum_residual=mom, eigenbasis=basis if mult > 1 else None))
    return states


def residual(xi, omega, g, resistance, mass_props):
    """Momentum-balance residual of the motion (xi, omega) under gravity g.

    Recomputes f and t from the resistance relation and returns
    max(|m_e g + f|, |m_c r x g - t|).
    """
    return max(_balance(xi, omega, g, resistance, mass_props))


def _balance(xi, omega, g, resistance, mass_props):
    """The force and torque residuals |m_e g + f| and |m_c r x g - t| of
    the motion (xi, omega) under gravity g."""
    f = -(resistance.k_tt @ xi + resistance.k_tr @ omega)
    t = -(resistance.k_rt @ xi + resistance.k_rr @ omega)
    res_force = math.hypot(*(mass_props.m_e * g + f))   # hypot: no overflow
    res_torque = math.hypot(*(mass_props.m_c * np.cross(mass_props.r, g) - t))
    return res_force, res_torque
