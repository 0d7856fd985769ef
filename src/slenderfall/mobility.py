"""Adherence boundary-integral solver and resistance matrices.

The flow generated by a rigid motion of the body is represented as a single
layer of point forces along the curve, u(x) = sum_q w_q G(x - x_q) phi_q,
collocated at the quadrature nodes (Nystrom). The kernel is bounded on the
diagonal, so no singular quadrature is needed. With the nodal point forces
psi_q = w_q phi_q the collocation system is

    G psi = u,    psi = W phi,

where G is the symmetric 3N x 3N Green matrix, block (p,q) = G(x_p - x_q).
Only one triangle of G is stored, in LAPACK's rectangular full packed (RFP)
format: m(m+1)/2 doubles for m = 3N, half the square (Gustavson, Wasniewski,
Dongarra & Langou, ACM TOMS 2010). It is assembled straight into that array
in row strips of nodes, so the kernel is evaluated once per node pair and the
pairwise temporaries stay one strip in size at any N. The hyperviscous
symbol is positive, so G is positive definite and is factored once, in
place, by the RFP Cholesky dpftrf, G = L L^T. The quadrature weights cancel
from the resistance: with U the 3N x 6 matrix of the six unit rigid motions,
the grand resistance matrix is A6 = U^T G^-1 U = Y^T Y with Y = L^-1 U (the
RFP triangular solve dtfsm), and

    f = -(K_tt xi + K_tr omega),   t = -(K_rt xi + K_rr omega),

torque and rotation referenced to the center of mass. One more triangular
solve on the same factor gives the six basis force densities
Phi = W^-1 L^-T Y = W^-1 G^-1 U, so the line force density of any rigid
motion z = (xi, omega) is Phi z.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import AssemblyError, ConfigError, ConvergenceError, SolverError
from .geometry import _STRIP_PAIRS, pair_strips
from .kernel import kernel_scalars

_ZERO_DATA_TOL = 1e-12
# strip-sized float64 arrays alive next to the packed matrix at the peak of
# assembly (the strip's differences and distances, A, B, kernel_scalars' own
# temporaries and the nine components of the strip's block rows)
_STRIP_TEMPORARIES = 25


def _check_fits(n):
    """Refuse an assembly whose peak memory exceeds the physical RAM."""
    m = 3 * n
    need = 8 * (m * (m + 1) // 2 + _STRIP_TEMPORARIES * max(_STRIP_PAIRS, n))
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise ConfigError(f"mobility.assemble_system: N = {n} nodes need about "
                          f"{need / 2**30:.1f} GiB for the packed system, more "
                          f"than the {ram / 2**30:.1f} GiB of physical memory")


def _rfp_diagonal(m):
    """Flat positions of the diagonal entries G[i, i] in the RFP array of
    an m x m matrix (the index map is in assemble_system)."""
    h, s = (m + 1) // 2, 1 - m % 2
    i = np.arange(m)
    return np.where(i < h, i * (m + s) + i + s, (i - h + 1 - s) * (m + s) + i - h)


def assemble_system(body, params):
    """Green matrix G, block (p,q) = G(x_p - x_q), no weights, packed RFP.

    Component (a,b) of every block is A(r) delta_ab + B(r) d_a d_b / r^2 with
    d = x_p - x_q. Returns LAPACK's rectangular full packed array of the
    lower triangle (TRANSR='N', UPLO='L') of the symmetric m x m matrix,
    m = 3N, as its C-order transpose R of shape (h, m + s), h = ceil(m/2),
    s = 1 if m is even else 0: the upper entry G[i, c], c >= i, is

        R[i, c + s]              for i < h,
        R[c - h + 1 - s, i - h]  for i >= h.

    The kernel is evaluated once per node pair, in row strips of nodes
    p0 <= p < p1 against q >= p0 (rows i0 <= i < i1 of G). Each strip is
    written as one slice right of its own square block, plainly for rows
    above h and transposed for rows below it, plus the upper triangle of
    the square block, whose lower entries would overwrite the other half of
    the RFP array; a strip that straddles row h is written in two parts.
    The diagonal blocks are A(0) I.
    """
    x = body.nodes
    n = body.n_nodes
    _check_fits(n)
    m = 3 * n
    h, s = (m + 1) // 2, 1 - m % 2
    R = np.empty((h, m + s))
    buf = upper = None
    for p0, p1, d, r2 in pair_strips(x):
        r = np.sqrt(r2)
        np.fill_diagonal(r2, np.inf)  # B(0) = 0, so the diagonal of B / r^2 is 0
        if r2.min() == 0.0:
            raise AssemblyError("mobility.assemble_system: duplicate nodes make "
                                "the collocation system singular")
        A, B = kernel_scalars(r, params)
        B /= r2
        if buf is None:  # the first strip is the largest
            buf = np.empty(9 * r2.size)
            upper = np.triu(np.ones((3 * (p1 - p0),) * 2, dtype=bool))
        S4 = buf[:9 * r2.size].reshape(p1 - p0, 3, n - p0, 3)
        gab = r2  # the component buffer of this strip
        for a in range(3):
            for b in range(a, 3):
                np.multiply(B, d[a], out=gab)
                gab *= d[b]
                if a == b:
                    gab += A
                S4[:, a, :, b] = gab
                if a != b:
                    S4[:, b, :, a] = gab
        S = S4.reshape(3 * (p1 - p0), 3 * (n - p0))
        i0, i1 = 3 * p0, 3 * p1
        for lo, hi in ((i0, min(i1, h)), (max(i0, h), i1)):
            if lo >= hi:
                continue
            right = S[lo - i0:hi - i0, hi - i0:]
            square = S[lo - i0:hi - i0, lo - i0:hi - i0]
            if hi <= h:
                R[lo:hi, hi + s:] = right
                dst = R[lo:hi, lo + s:hi + s]
            else:
                R[hi - h + 1 - s:, lo - h:hi - h] = right.T
                dst = R[lo - h + 1 - s:hi - h + 1 - s, lo - h:hi - h].T
            np.copyto(dst, square, where=upper[:hi - lo, :hi - lo])
    return R


def _factorize(packed):
    """Cholesky factor L of the Green matrix, computed in place by dpftrf.

    `packed` is the RFP array of `assemble_system` (any shape with that
    memory order); it is overwritten by L in the same RFP layout, which
    dtfsm and dpftrs read.
    """
    m = (math.isqrt(8 * packed.size + 1) - 1) // 2   # packed.size = m(m+1)/2
    L, info = lapack.dpftrf(m, packed.reshape(-1), transr="N", uplo="L",
                            overwrite_a=1)
    if info != 0:
        raise SolverError(f"mobility: Green matrix is not positive definite "
                          f"(dpftrf info {info})")
    if not np.all(np.isfinite(L[_rfp_diagonal(m)])):
        raise SolverError("mobility: Cholesky factor has non-finite entries")
    return L


def rigid_data(body, xi, omega):
    """Collocation right-hand side xi + omega x x_q, flattened to 3N."""
    return (np.asarray(xi, float)[None, :]
            + np.cross(np.asarray(omega, float), body.nodes)).ravel()


@dataclass(frozen=True)
class ResistanceSet:
    """The four 3x3 resistance blocks, their 6x6 grand matrix and the
    line force densities of the six unit rigid motions."""

    k_tt: np.ndarray
    k_tr: np.ndarray
    k_rt: np.ndarray
    k_rr: np.ndarray
    grand: np.ndarray        # (6,6) symmetrized
    densities: np.ndarray    # (N,3,6) column j: density of unit motion j
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
    """The grand resistance matrix A6 = U^T G^-1 U and the basis force
    densities Phi = W^-1 G^-1 U from one Cholesky factor.

    U holds the six unit rigid motions (three translations, three rotations
    about the center of mass) as columns of nodal velocities; with G = L L^T,
    Y = L^-1 U, A6 = Y^T Y and Phi = W^-1 L^-T Y. Column j of A6 is the force
    and torque of the nodal point forces G^-1 U_j, the weights having
    cancelled: sum_q w_q Phi_qj and sum_q w_q x_q x Phi_qj. The axial
    rotation of a straight body generates no boundary data and gives an
    exact zero row and column of A6 and an exact zero density. The
    reciprocity gate below compares A6 with its transpose; as Y^T Y is
    symmetric by construction, it can no longer fail.
    """
    L = _factorize(assemble_system(body, params))
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
    Y = lapack.dtfsm(1.0, L, U, transr="N", side="L", uplo="L", trans="N")
    A6 = Y.T @ Y
    psi = lapack.dtfsm(1.0, L, Y, transr="N", side="L", uplo="L", trans="T")
    densities = psi.reshape(n, 3, 6) / body.weights[:, None, None]

    norm = np.linalg.norm(A6)
    asym = float(np.linalg.norm(A6 - A6.T) / norm) if norm > 0 else 0.0
    if asym > asymmetry_tol:
        raise ConvergenceError(
            f"mobility.resistance_set: grand matrix asymmetry {asym:.3e} exceeds "
            f"{asymmetry_tol:.1e}; discretization too coarse")
    A6 = 0.5 * (A6 + A6.T)
    return ResistanceSet(k_tt=A6[:3, :3], k_tr=A6[:3, 3:], k_rt=A6[3:, :3],
                         k_rr=A6[3:, 3:], grand=A6, densities=densities,
                         asymmetry=asym, ell=params.ell, mu=params.mu, n_nodes=n,
                         shape_hash=body.shape_hash())
