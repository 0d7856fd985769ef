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
# eigenvalues of F closer than this share of F's size are one cluster
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
    scale: float              # the size of F from |K_tt|, |K_rr| and the masses


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

    `scale` is the size F has from the magnitudes of the resistance and the
    masses, |m_e| / sqrt(|K_tt| |K_rr|) + m_c |r| / |K_rr|: the bound
    |K_rt| <= sqrt(|K_tt| |K_rr|) of a positive definite grand matrix stands
    in for K_rt, which is roundoff on a symmetric body. It scales like F,
    as 1/mu.
    """
    Ktt, Ktr = resistance.k_tt, resistance.k_tr
    Krt, Krr = resistance.k_rt, resistance.k_rr
    # hypot: a sum of squares of the entries may under- or overflow; numpy
    # floats: an overflow or a K_rr of 0 gives inf, which raises nothing
    ktt_norm, krr_norm = (np.float64(math.hypot(*K.ravel())) for K in (Ktt, Krr))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = float(abs(mass_props.m_e) / np.sqrt(ktt_norm) / np.sqrt(krr_norm)
                      + mass_props.m_c * math.hypot(*mass_props.r) / krr_norm)
    krt_kttinv = Krt @ np.linalg.inv(Ktt)
    schur = krt_kttinv @ Ktr - Krr
    rhs = mass_props.m_e * krt_kttinv + mass_props.m_c * cross_matrix(mass_props.r)

    u, sv, vt = np.linalg.svd(schur)
    small = sv < _DEGENERACY_RTOL * max(krr_norm, np.finfo(float).tiny)
    if small.sum() == 0:
        F = np.linalg.solve(schur, rhs)
        return FallOperator(matrix=F, schur=schur, degenerate=False,
                            null_direction=None,
                            schur_condition=float(sv[0] / sv[-1]), scale=scale)
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
    with np.errstate(over="ignore", invalid="ignore"):   # real_eigenpairs refuses it
        F = pinv @ rhs
    return FallOperator(matrix=F, schur=schur, degenerate=True,
                        null_direction=null,
                        schur_condition=float(sv[0] / max(sv[~small][-1], np.finfo(float).tiny)),
                        scale=scale)


def _apply_sign_convention(g):
    """First component with magnitude above 1e-8 is made positive."""
    for comp in g:
        if abs(comp) > _SIGN_TOL:
            return g if comp > 0 else -g
    return g


def real_eigenpairs(op):
    """All real eigenpairs of a fall operator's 3x3 matrix F.

    The eigenvalues are LAPACK's (dgeev through numpy.linalg.eigvals,
    backward stable) for F / 2^e, 2^e the power of two at max(|F|,
    op.scale); those with an imaginary part at most the clustering
    tolerance are real, and a real one within that tolerance of zero is
    0.0. The scaling is exact, so F 2^k gives lambda 2^k and the same
    eigenvectors bit for bit, at any size of F. Eigenvectors
    come from the SVD null space of F - lambda I. Repeated eigenvalues are
    clustered and reported once with their multiplicity and an orthonormal
    eigenspace basis. A non-finite F, or an op.scale that overflowed,
    raises SolverError.

    The clustering and null-space tolerances are relative to
    max(|F|, op.scale), the size F would have from the resistance and the
    masses, with no absolute floor: a symmetric body, whose F is roundoff of
    that size, collapses to a single zero of multiplicity 3, exactly 0.0
    whatever the roundoff, and F / mu gives the same clusters at every mu.
    """
    F = np.asarray(op.matrix, dtype=float)
    if not (np.all(np.isfinite(F)) and math.isfinite(op.scale)):
        raise SolverError(f"freefall.real_eigenpairs: the fall operator F or its size "
                          f"is not finite (max |F_ij| = {np.abs(F).max():.3e}, size "
                          f"from the resistance and the masses {op.scale:.3e})")
    e = math.frexp(max(float(np.abs(F).max()), op.scale))[1]
    F, scale = np.ldexp(F, -e), math.ldexp(op.scale, -e)
    norm_f = float(np.linalg.norm(F))
    # tiny: F = 0 without a load
    size = max(norm_f, scale, np.finfo(float).tiny)
    eig_tol = _CLUSTER_RTOL * size
    eigs = np.linalg.eigvals(F)
    roots = eigs.real[np.abs(eigs.imag) <= eig_tol]
    roots = sorted(np.where(np.abs(roots) <= eig_tol, 0.0, roots).tolist())

    # cluster repeated roots
    clusters = []
    for lam in roots:
        if clusters and abs(lam - clusters[-1][0]) <= eig_tol:
            group = clusters[-1][1] + [lam]
            clusters[-1] = (float(np.mean(group)), group)
        else:
            clusters.append((lam, [lam]))

    pairs = []
    for lam, group in clusters:
        mult = len(group)
        _, sv, vt = np.linalg.svd(F - lam * np.eye(3))
        null_dim = max(1, int(np.sum(sv < max(1e-10 * norm_f, 1e-14 * size))))
        take = min(null_dim, mult)
        if take == 3:
            basis = np.eye(3)  # whole space: canonical axes, deterministic
        else:
            basis = vt[3 - take:][::-1]  # smallest singular directions first
        basis = np.array([_apply_sign_convention(b / np.linalg.norm(b))
                          for b in basis])
        pairs.append((math.ldexp(float(lam), e), basis, mult))
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
    for lam, basis, mult in real_eigenpairs(op):
        g = basis[0]
        xi = np.linalg.solve(resistance.k_tt,
                             mass_props.m_e * g - lam * resistance.k_tr @ g)
        if not np.all(np.isfinite(xi)):
            # the momentum gate below scales with |xi| and would pass it
            raise SolverError(f"freefall.steady_states: the steady velocity of "
                              f"lambda = {lam:.3e} is not finite")
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
            eigen_residual=math.hypot(*(F @ g - lam * g)),   # hypot: no overflow
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
