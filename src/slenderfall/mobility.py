"""Adherence boundary-integral solver and resistance matrices.

The flow generated by a rigid motion of the body is represented as a single
layer of point forces along the curve, u(x) = sum_q w_q G(x - x_q) phi_q,
collocated at the quadrature nodes (Nystrom). The kernel is bounded on the
diagonal, so no singular quadrature is needed. With the nodal point forces
psi_q = w_q phi_q the collocation system is

    G psi = u,    psi = W phi,

where G is the symmetric 3N x 3N Green matrix, block (p,q) = G(x_p - x_q).
It is assembled in row strips of nodes over one triangle and mirrored, so the
kernel is evaluated once per node pair and the pairwise temporaries stay one
strip in size at any N. The hyperviscous symbol is positive, so G is positive
definite and is factored once by Cholesky, G = L L^T. The quadrature weights
cancel from the resistance: with U the 3N x 6 matrix of the six unit rigid
motions, the grand resistance matrix is A6 = U^T G^-1 U = Y^T Y with
Y = L^-1 U, and

    f = -(K_tt xi + K_tr omega),   t = -(K_rt xi + K_rr omega),

torque and rotation referenced to the center of mass.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (AssemblyError, ConfigError, ConvergenceError,
                     SingularEvaluationError, SolverError)
from .geometry import _STRIP_PAIRS, pair_strips
from .kernel import kernel_scalars

_ZERO_DATA_TOL = 1e-12
# strip-sized float64 arrays alive next to the (3N)^2 matrix at the peak of
# assembly (the strip's differences and distances, A, B and kernel_scalars'
# own temporaries)
_STRIP_TEMPORARIES = 16


def _check_fits(n):
    """Refuse an assembly whose peak memory exceeds the physical RAM."""
    need = 8 * (9 * n * n + _STRIP_TEMPORARIES * max(_STRIP_PAIRS, n))
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise ConfigError(f"mobility.assemble_system: N = {n} nodes need about "
                          f"{need / 2**30:.1f} GiB for the dense system, more than "
                          f"the {ram / 2**30:.1f} GiB of physical memory")


def assemble_system(body, params):
    """Symmetric 3N x 3N Green matrix, block (p,q) = G(x_p - x_q), no weights.

    Component (a,b) of every block is A(r) delta_ab + B(r) d_a d_b / r^2 with
    d = x_p - x_q. The kernel is evaluated on one triangle only, in row
    strips of nodes p0 <= p < p1 against q >= p0: each strip is written
    through the (N,3,N,3) view of the matrix, component (a,b) also to (b,a),
    and its part right of the strip's own square block is mirrored into the
    column strip below. The diagonal blocks are A(0) I.
    """
    x = body.nodes
    n = body.n_nodes
    _check_fits(n)
    G = np.empty((3 * n, 3 * n))
    G4 = G.reshape(n, 3, n, 3)
    for p0, p1, d, r2 in pair_strips(x):
        r = np.sqrt(r2)
        np.fill_diagonal(r2, np.inf)  # B(0) = 0, so the diagonal of B / r^2 is 0
        if r2.min() == 0.0:
            raise AssemblyError("mobility.assemble_system: duplicate nodes make "
                                "the collocation system singular")
        A, B = kernel_scalars(r, params)
        B /= r2
        gab = r2  # the component buffer of this strip
        for a in range(3):
            for b in range(a, 3):
                np.multiply(B, d[a], out=gab)
                gab *= d[b]
                if a == b:
                    gab += A
                G4[p0:p1, a, p0:, b] = gab
                if a != b:
                    G4[p0:p1, b, p0:, a] = gab
        G[3 * p1:, 3 * p0:3 * p1] = G[3 * p0:3 * p1, 3 * p1:].T
    return G


def _factorize(G):
    """Cholesky factor (c, lower) of the Green matrix, computed in place.

    G is symmetric, so G.T is the same matrix in Fortran order, which LAPACK
    factors without a copy. G is overwritten.
    """
    try:
        factor = sla.cho_factor(G.T, lower=True, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise SolverError(f"mobility: Green matrix is not positive definite: {exc}")
    if not np.all(np.isfinite(np.diagonal(factor[0]))):
        raise SolverError("mobility: Cholesky factor has non-finite entries")
    return factor


def rigid_data(body, xi, omega):
    """Collocation right-hand side xi + omega x x_q, flattened to 3N."""
    return (np.asarray(xi, float)[None, :]
            + np.cross(np.asarray(omega, float), body.nodes)).ravel()


def solve_rigid_problem(body, params, xi, omega):
    """Line force density and total force/torque for a prescribed rigid motion.

    Returns (phi, f, t) with phi of shape (N,3), phi = G^-1 u / w. Rigid
    data that vanishes on the whole body (e.g. rotation of a straight rod
    about its own axis) is mapped to phi = 0 exactly rather than amplifying
    roundoff.
    """
    u = rigid_data(body, xi, omega)
    scale = max(np.linalg.norm(xi), np.linalg.norm(omega) * (1 + body.length), 1.0)
    if np.linalg.norm(u) < _ZERO_DATA_TOL * scale:
        phi = np.zeros((body.n_nodes, 3))
        return phi, np.zeros(3), np.zeros(3)
    psi = sla.cho_solve(_factorize(assemble_system(body, params)), u,
                        check_finite=False)
    phi = psi.reshape(body.n_nodes, 3) / body.weights[:, None]
    f, t = force_torque(body, phi)
    return phi, f, t


def force_torque(body, phi):
    """Total hydrodynamic force and torque from a line force density.

    The stress divergence is minus the line measure with density phi, so the
    force on the body is f = -sum w_q phi_q and the torque about the center
    of mass is t = -sum w_q x_q x phi_q.
    """
    w = body.weights[:, None]
    f = -(w * phi).sum(axis=0)
    t = -(w * np.cross(body.nodes, phi)).sum(axis=0)
    return f, t


@dataclass(frozen=True)
class ResistanceSet:
    """The four 3x3 resistance blocks and their 6x6 grand matrix."""

    k_tt: np.ndarray
    k_tr: np.ndarray
    k_rt: np.ndarray
    k_rr: np.ndarray
    grand: np.ndarray        # (6,6) symmetrized
    asymmetry: float         # relative asymmetry before symmetrization
    ell: float
    mu: float
    n_nodes: int
    shape_hash: str

    def to_dict(self):
        return {
            "k_tt": self.k_tt.tolist(),
            "k_tr": self.k_tr.tolist(),
            "k_rt": self.k_rt.tolist(),
            "k_rr": self.k_rr.tolist(),
            "asymmetry": self.asymmetry,
            "ell": self.ell,
            "mu": self.mu,
            "n_nodes": self.n_nodes,
            "shape_hash": self.shape_hash,
        }


def resistance_set(body, params, asymmetry_tol=1e-6):
    """The grand resistance matrix A6 = U^T G^-1 U from one Cholesky factor.

    U holds the six unit rigid motions (three translations, three rotations
    about the center of mass) as columns of nodal velocities; with G = L L^T,
    Y = L^-1 U and A6 = Y^T Y. Column j of A6 is the force and torque of the
    nodal point forces G^-1 U_j, the weights having cancelled. The axial
    rotation of a straight body generates no boundary data and gives an
    exact zero row and column. The reciprocity gate below compares A6 with
    its transpose; as Y^T Y is symmetric by construction, it can no longer
    fail.
    """
    G = assemble_system(body, params)
    factor = _factorize(G)
    n = body.n_nodes
    eye = np.eye(3)

    U = np.zeros((3 * n, 6))
    for j in range(6):
        if j < 3:
            U[:, j] = rigid_data(body, eye[j], np.zeros(3))
        else:
            u = rigid_data(body, np.zeros(3), eye[j - 3])
            if np.linalg.norm(u) >= _ZERO_DATA_TOL * (1 + body.length):
                U[:, j] = u  # else straight-body axial rotation: zero column
    Y = sla.solve_triangular(factor[0], U, lower=factor[1], check_finite=False)
    A6 = Y.T @ Y

    norm = np.linalg.norm(A6)
    asym = float(np.linalg.norm(A6 - A6.T) / norm) if norm > 0 else 0.0
    if asym > asymmetry_tol:
        raise ConvergenceError(
            f"mobility.resistance_set: grand matrix asymmetry {asym:.3e} exceeds "
            f"{asymmetry_tol:.1e}; discretization too coarse")
    A6 = 0.5 * (A6 + A6.T)
    return ResistanceSet(k_tt=A6[:3, :3], k_tr=A6[:3, 3:], k_rt=A6[3:, :3],
                         k_rr=A6[3:, 3:], grand=A6, asymmetry=asym,
                         ell=params.ell, mu=params.mu, n_nodes=n,
                         shape_hash=body.shape_hash())


def evaluate_flow(body, phi, x, params, with_pressure=True):
    """Velocity and pressure of the single-layer field at a point x.

    The velocity is defined everywhere (the kernel is bounded); the pressure
    kernel is singular on the curve, so requesting the pressure at a
    collocation node raises. Pass ``with_pressure=False`` to evaluate only
    the velocity, e.g. on the body itself.
    """
    x = np.asarray(x, dtype=float)
    d = x[None, :] - body.nodes
    r = np.linalg.norm(d, axis=1)
    A, B = kernel_scalars(r, params)
    rsafe = np.where(r == 0.0, 1.0, r)
    xh = d / rsafe[:, None]
    wphi = body.weights[:, None] * phi
    u = (A[:, None] * wphi).sum(axis=0) + xh.T @ (B * (xh * wphi).sum(axis=1))
    if not with_pressure:
        return u, None
    if np.any(r == 0.0):
        raise SingularEvaluationError("mobility.evaluate_flow: pressure evaluation "
                                      "at a collocation node")
    p = float((body.weights * (d * phi).sum(axis=1) / (4.0 * np.pi * r ** 3)).sum())
    return u, p


def energy_dissipation(zeta6, resistance):
    """Instantaneous dissipation rate of the rigid motion (xi, omega)."""
    z = np.asarray(zeta6, dtype=float)
    return float(z @ resistance.grand @ z)
