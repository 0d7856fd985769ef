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
pairwise temporaries stay one strip in size at any N. That pass is the only
one over the node pairs: its squared distances also give the smallest node
separation (ResistanceSet.min_separation). The hyperviscous symbol is
positive, so G is positive definite and is factored once, in place, by the
RFP Cholesky dpftrf, G = L L^T. The quadrature weights cancel from the
resistance: with U the 3N x 6 matrix of the six unit rigid motions,
the grand resistance matrix is A6 = U^T G^-1 U = Y^T Y with Y = L^-1 U (the
RFP triangular solve dtfsm), and

    f = -(K_tt xi + K_tr omega),   t = -(K_rt xi + K_rr omega),

torque and rotation referenced to the center of mass. One more triangular
solve on the same factor gives the six basis force densities
Phi = W^-1 L^-T Y = W^-1 G^-1 U, so the line force density of any rigid
motion z = (xi, omega) is Phi z.

The Green tensor is isotropic, G(R d) = R G(d) R^T for every orthogonal R.
Rods, rings and helices (and their composite Gauss nodes) are mapped onto
themselves by reversing the node order and applying a symmetric orthogonal
R, R^2 = I: x_{N-1-p} - c = R (x_p - c). The Green matrix then commutes
with that node map, and in the basis of its even and odd vectors it is
block diagonal (Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal.
1992). For such a body of even N, the two diagonal blocks of order 3N/2,

    G+-(p, q) = G(x_p - x_q) +- G(x_p - x_{N-1-q}) R,    p, q < N/2,

are assembled, factored and solved one at a time, in place of G: a quarter
of the factor's work and a quarter of its memory. Any other body takes the
one-block path. R = Q diag(eps) Q^T has the eigenvalues eps_a = +-1, so in
the eigenframe of R, on the rotated nodes (x - c) Q, the mirror is a sign
per axis: the far term's component (a,b) is the near term's formula at
d = x_p - x_{N-1-q} times +-eps_b, written with the near term in one pass.
The rigid motions are rotated into that frame by Q^T, and the point forces
back by Q.
"""

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np
from scipy.linalg import lapack

from .errors import AssemblyError, ConfigError, ConvergenceError, SolverError
from .geometry import _STRIP_PAIRS, pair_strips
from .kernel import kernel_scalars

_ZERO_DATA_TOL = 1e-12
# largest distance of a node from the image of its mirror node, relative to
# the body's extent, for the two-block path
_SYMMETRY_RTOL = 1e-12
# strip-sized float64 arrays alive at the peak of assembly, inside
# kernel_scalars: the strip's differences and squared distances (4), its
# nine components (9), the distances and kernel_scalars' own arrays with its
# near-field mask (7) and the square blocks' triangle mask (1)
_STRIP_TEMPORARIES = 21
# and, with the mirror term, the far differences and squared distances (4)
# and the near term's A and B kept while the far kernel runs (2), plus one
# for the near-field subsets
_MIRROR_TEMPORARIES = 7


def require_memory(m, where, temporaries=0):
    """Raise ConfigError, naming `where`, when a packed m x m Green matrix
    plus `temporaries` doubles exceeds the physical RAM."""
    need = 8 * (m * (m + 1) // 2 + temporaries)
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise ConfigError(f"{where}: a packed Green matrix of order {m} needs "
                          f"about {need / 2**30:.1f} GiB, more than the "
                          f"{ram / 2**30:.1f} GiB of physical memory")


def _check_fits(n, mirrored=False):
    """Refuse an assembly whose peak memory exceeds the physical RAM: the
    packed 3n x 3n matrix and one strip's temporaries, more of them when
    the blocks carry the mirror term."""
    strip = _STRIP_TEMPORARIES + mirrored * _MIRROR_TEMPORARIES
    require_memory(3 * n, "mobility.assemble_system", strip * max(_STRIP_PAIRS, n))


def _rfp_diagonal(m):
    """Flat positions of the diagonal entries G[i, i] in the RFP array of
    an m x m matrix (the index map is in assemble_system)."""
    h, s = (m + 1) // 2, 1 - m % 2
    i = np.arange(m)
    return np.where(i < h, i * (m + s) + i + s, (i - h + 1 - s) * (m + s) + i - h)


@np.errstate(over="ignore", invalid="ignore")
def assemble_system(body, params, mirror=None):
    """Green matrix G, block (p,q) = G(x_p - x_q), no weights, packed RFP,
    and the smallest distance between two distinct nodes.

    Component (a,b) of every block is A(r) delta_ab + B(r) d_a d_b / r^2 with
    d = x_p - x_q. Returns LAPACK's rectangular full packed array of the
    lower triangle (TRANSR='N', UPLO='L') of the symmetric m x m matrix,
    m = 3N, as its C-order transpose P of shape (h, m + s), h = ceil(m/2),
    s = 1 if m is even else 0: the upper entry G[i, c], c >= i, is

        P[i, c + s]              for i < h,
        P[c - h + 1 - s, i - h]  for i >= h.

    The kernel is evaluated once per node pair, in row strips of nodes
    p0 <= p < p1 against q >= p0 (rows i0 <= i < i1 of G). Each strip is
    written as one slice right of its own square block, plainly for rows
    above h and transposed for rows below it, plus the upper triangle of
    the square block, whose lower entries would overwrite the other half of
    the RFP array; a strip that straddles row h is written in two parts.
    The diagonal blocks are A(0) I. The strips' squared distances also give
    the smallest node separation, and a zero one is refused. An entry that
    overflows stays inf or NaN, without a floating-point warning;
    _factorize refuses its factor.

    With mirror = (eps, sign), the body's nodes given in the eigenframe of
    its reversal involution (see the module docstring), so that node N-1-p
    is node p with its coordinates times eps, the result is instead the
    diagonal block G+ (sign 1) or G- (sign -1) of order 3N/2, in the same
    layout: block (p,q), p, q < N/2, gains sign G(x_p - x_{N-1-q}) diag(eps),
    whose component (a,b) is the near term's formula at d = x_p - x_{N-1-q}
    times sign eps_b. The strips pair the first N/2 nodes with the first
    N/2 and with the last N/2 in reverse order; the separation covers both.
    """
    x, far, flip = body.nodes, repeat(None), None
    if mirror is not None:
        eps, sign = mirror
        flip = sign * np.asarray(eps) > 0   # the far term's sign, per column b
        half = body.n_nodes // 2
        x, far = x[:half], pair_strips(x[:half], x[half:][::-1])
    n = x.shape[0]
    _check_fits(n, mirror is not None)
    m = 3 * n
    h, s = (m + 1) // 2, 1 - m % 2
    P = np.empty((h, m + s))
    buf = np.empty(9 * min(max(_STRIP_PAIRS, n), n * n))   # the largest strip
    # a strip of k rows and at least k columns holds at most _STRIP_PAIRS
    # pairs unless k = 1, so k <= isqrt(_STRIP_PAIRS)
    tall = 3 * min(n, math.isqrt(_STRIP_PAIRS))
    upper = np.triu(np.ones((tall, tall), dtype=bool))
    sep2 = np.inf
    for (p0, p1, d, r2), far_strip in zip(pair_strips(x), far):
        k = p1 - p0
        S4 = buf[:9 * r2.size].reshape(k, 3, n - p0, 3)
        sep2 = min(sep2, _block_rows(S4, d, r2, far_strip, flip, params))
        S = S4.reshape(3 * k, 3 * (n - p0))
        i0, i1 = 3 * p0, 3 * p1
        for lo, hi in ((i0, min(i1, h)), (max(i0, h), i1)):
            if lo >= hi:
                continue
            right = S[lo - i0:hi - i0, hi - i0:]
            square = S[lo - i0:hi - i0, lo - i0:hi - i0]
            if hi <= h:
                P[lo:hi, hi + s:] = right
                dst = P[lo:hi, lo + s:hi + s]
            else:
                P[hi - h + 1 - s:, lo - h:hi - h] = right.T
                dst = P[lo - h + 1 - s:hi - h + 1 - s, lo - h:hi - h].T
            np.copyto(dst, square, where=upper[:hi - lo, :hi - lo])
    return P, float(np.sqrt(sep2))


def _block_rows(S4, d, r2, far, flip, params):
    """Write a strip's block rows into S4, each component once, its far
    term (if any) added or subtracted as flip says; return the strip's
    least squared distance between two distinct nodes. Once the kernel has
    run, r2 and f2 serve as the component buffers; the kernel values are
    dropped on return, before the next strip is formed."""
    A, B = kernel_scalars(np.sqrt(r2), params)
    np.fill_diagonal(r2, np.inf)  # B(0) = 0, so the diagonal of B / r^2 is 0
    least = _least(r2)
    B /= r2
    if far is not None:
        _, _, e, f2 = far
        least = min(least, _least(f2))
        Af, Bf = kernel_scalars(np.sqrt(f2), params)
        Bf /= f2
    for a in range(3):
        for b in range(a, 3):
            _component(A, B, d, a, b, r2)
            if far is not None:
                _component(Af, Bf, e, a, b, f2)
            for i, j in ((a, b), (b, a)) if a != b else ((a, b),):
                if far is None:
                    S4[:, i, :, j] = r2
                else:
                    (np.add if flip[j] else np.subtract)(r2, f2, out=S4[:, i, :, j])
    return least


def _least(r2):
    """The least of a strip's squared distances; zero is refused."""
    least = r2.min()
    if least == 0.0:
        raise AssemblyError("mobility.assemble_system: duplicate nodes make "
                            "the collocation system singular")
    return least


def _component(A, B, d, a, b, out):
    """Component (a,b) of a strip's blocks, B d_a d_b (+ A if a == b), into
    out; B is B(r) / r^2."""
    np.multiply(B, d[a], out=out)
    out *= d[b]
    if a == b:
        out += A


def _factorize(packed):
    """Cholesky factor L of the Green matrix, computed in place by dpftrf.

    `packed` is the RFP array of `assemble_system` (any shape with that
    memory order); it is overwritten by L in the same RFP layout, which
    dtfsm and dpftrs read. A NaN pivot stops dpftrf and is left on the
    diagonal, so the diagonal is checked first: an overflowed matrix is
    reported as such, not as indefinite.
    """
    m = (math.isqrt(8 * packed.size + 1) - 1) // 2   # packed.size = m(m+1)/2
    L, info = lapack.dpftrf(m, packed.reshape(-1), transr="N", uplo="L",
                            overwrite_a=1)
    if not np.all(np.isfinite(L[_rfp_diagonal(m)])):
        raise SolverError("mobility: Cholesky factor has non-finite entries")
    if info != 0:
        raise SolverError(f"mobility: Green matrix is not positive definite "
                          f"(dpftrf info {info})")
    return L


def rigid_data(body, xi, omega):
    """Collocation right-hand side xi + omega x x_q, flattened to 3N."""
    return (np.asarray(xi, float)[None, :]
            + np.cross(np.asarray(omega, float), body.nodes)).ravel()


def _reversal_symmetry(x):
    """The eigenframe of the involution R with x_{N-1-p} - c = R (x_p - c)
    for every node, c the node centroid, to _SYMMETRY_RTOL of the body's
    extent: (c, Q, eps) with R = Q diag(eps) Q^T, Q orthogonal and eps
    signs, so that the rotated nodes (x_p - c) Q of nodes N-1-p and p differ
    by the factor eps per axis; None if N is odd or there is no such R.

    With y_p = x_p - c, M = sum_p y_{N-1-p} y_p^T is symmetric (reversing
    the sum transposes it), and the orthogonal R closest to mapping each
    y_p onto y_{N-1-p} (Procrustes) is its polar factor Q sign(Lambda) Q^T,
    from M = Q Lambda Q^T: symmetric, so R^2 = I. A null direction of M (a
    straight or planar body) holds no node coordinate, and either sign maps
    the nodes there; the sign of its roundoff eigenvalue picks one, +1 for
    an exact zero.
    """
    n = x.shape[0]
    if n % 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):   # inf or NaN: no symmetry
        c = x.mean(axis=0)
        y = x - c
        extent = np.abs(y).max()
    if not 0.0 < extent < np.inf:
        return None
    y = y / extent
    lam, Q = np.linalg.eigh(y[::-1].T @ y)
    eps = np.where(lam < 0.0, -1.0, 1.0)
    w = y @ Q
    if np.linalg.norm(w[::-1] - w * eps, axis=1).max() > _SYMMETRY_RTOL:
        return None
    return c, Q, eps


def _solve(packed, U):
    """Y^T Y and L^-T Y for Y = L^-1 U, L the Cholesky factor of the packed
    matrix, which it overwrites."""
    L = _factorize(packed)
    Y = lapack.dtfsm(1.0, L, U, transr="N", side="L", uplo="L", trans="N")
    return Y.T @ Y, lapack.dtfsm(1.0, L, Y, transr="N", side="L", uplo="L", trans="T")


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
    blocks: tuple            # orders of the factored diagonal blocks of G
    asymmetry: float         # relative asymmetry before symmetrization
    min_separation: float    # smallest distance between two distinct nodes
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
            "blocks": list(self.blocks),
            "asymmetry": self.asymmetry,
            "ell": self.ell,
            "mu": self.mu,
            "n_nodes": self.n_nodes,
            "shape_hash": self.shape_hash,
        }


def resistance_set(body, params, asymmetry_tol=1e-6):
    """The grand resistance matrix A6 = U^T G^-1 U and the basis force
    densities Phi = W^-1 G^-1 U from one Cholesky factor per diagonal block.

    U holds the six unit rigid motions (three translations, three rotations
    about the center of mass) as columns of nodal velocities; with G = L L^T,
    Y = L^-1 U, A6 = Y^T Y and Phi = W^-1 L^-T Y. Column j of A6 is the force
    and torque of the nodal point forces G^-1 U_j, the weights having
    cancelled: sum_q w_q Phi_qj and sum_q w_q x_q x Phi_qj. The axial
    rotation of a straight body generates no boundary data and gives an
    exact zero row and column of A6 and an exact zero density. The
    reciprocity gate below compares A6 with its transpose, both scaled by
    the largest entry; as Y^T Y is symmetric by construction, it can no
    longer fail.

    A reversal-symmetric body is solved on the two blocks G+- of the module
    docstring instead, in the eigenframe of R, where R = diag(eps): with
    U_p rotated by Q^T, U+-_p = U_p +- eps U_{N-1-p} and psi+- = G+-^-1 U+-,
    A6 = (Y+^T Y+ + Y-^T Y-) / 2, and the nodal point forces are
    (psi+_p + psi-_p) / 2 at node p and eps (psi+_p - psi-_p) / 2 at N-1-p,
    rotated back by Q.

    `min_separation` is the smallest distance between two distinct nodes,
    found by the assembly; on the two-block path it covers the pairs within
    the first N/2 nodes and between the halves, and the others are their
    mirror images.
    """
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

    sym = _reversal_symmetry(body.nodes)
    if sym is None:
        packed, sep = assemble_system(body, params)
        A6, psi = _solve(packed, U)
        blocks = (3 * n,)
    else:
        c, Q, eps = sym
        h = n // 2
        frame = replace(body, nodes=(body.nodes - c) @ Q)
        U3 = Q.T @ U.reshape(n, 3, 6)
        near, far = U3[:h], eps[:, None] * U3[h:][::-1]
        A6, parts = np.zeros((6, 6)), []
        for sign in (1.0, -1.0):
            packed, sep = assemble_system(frame, params, (eps, sign))
            A, p = _solve(packed, (near + sign * far).reshape(3 * h, 6))
            del packed   # one block alive at a time
            A6 += 0.5 * A
            parts.append(p.reshape(h, 3, 6))
        plus, minus = parts
        psi = Q @ (0.5 * np.concatenate([plus + minus,
                                         (eps[:, None] * (plus - minus))[::-1]]))
        blocks = (3 * h, 3 * h)
    densities = psi.reshape(n, 3, 6) / body.weights[:, None, None]

    scaled = A6 / (np.abs(A6).max() or 1.0)   # |A6|^2 may overflow
    norm = np.linalg.norm(scaled)
    asym = float(np.linalg.norm(scaled - scaled.T) / norm) if norm > 0 else 0.0
    if asym > asymmetry_tol:
        raise ConvergenceError(
            f"mobility.resistance_set: grand matrix asymmetry {asym:.3e} exceeds "
            f"{asymmetry_tol:.1e}; discretization too coarse")
    A6 = 0.5 * (A6 + A6.T)
    return ResistanceSet(k_tt=A6[:3, :3], k_tr=A6[:3, 3:], k_rt=A6[3:, :3],
                         k_rr=A6[3:, 3:], grand=A6, densities=densities,
                         blocks=blocks, asymmetry=asym, min_separation=sep,
                         ell=params.ell,
                         mu=params.mu, n_nodes=n, shape_hash=body.shape_hash())
