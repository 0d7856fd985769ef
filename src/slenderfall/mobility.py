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
Dongarra & Langou, ACM TOMS 2010). It is assembled straight into that
array, in row strips of nodes, so the kernel is evaluated once per node
pair and the pairwise temporaries stay one strip in size at any N. That
pass is the only one over the node pairs: its squared distances also give
the smallest node separation (ResistanceSet.min_separation). The
hyperviscous symbol is positive, so G is positive definite and is factored
once, in place, by the RFP Cholesky dpftrf, G = L L^T; the RFP solve
dpftrs then gives G^-1 B for right-hand sides B of any number of columns.
The quadrature weights cancel from the resistance: with U the 3N x 6 matrix
of the six unit rigid motions and psi = G^-1 U their nodal point forces,
the grand resistance matrix is A6 = U^T psi, and

    f = -(K_tt xi + K_tr omega),   t = -(K_rt xi + K_rr omega),

torque and rotation referenced to the center of mass. The six basis force
densities are Phi = W^-1 psi, so the line force density of any rigid
motion z = (xi, omega) is Phi z.

The Green tensor is isotropic, G(R d) = R G(d) R^T for every orthogonal R,
and resistance_set uses that on the bodies geometry.discretize makes of
rods, rings, helices and one-edge polylines. Two identities hold for
them. First, reversing the node order and applying a symmetric
orthogonal R, R^2 = I, maps the body onto itself: x_{N-1-p} - c =
R (x_p - c). The Green matrix then commutes with that node map, and in
the basis of its even and odd vectors it is block diagonal (Allgower,
Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 1992). For even N, the two
diagonal blocks of order 3N/2 are

    G+-(p, q) = G(x_p - x_q) +- G(x_p - x_{N-1-q}) R,    p, q < N/2,

assembled, factored and solved one at a time, in place of G: a quarter of
the factor's work and a quarter of its memory. R = Q diag(eps) Q^T has the
eigenvalues eps_a = +-1, so the blocks are formed in the eigenframe of R,
on the rotated nodes (x - c) Q, where R is a sign per axis; the rigid
motions are rotated into that frame by Q^T, and the point forces back by Q.

Second, the body is panel-periodic: its panels of k Gauss nodes are
images of one another under one screw motion S, x_{i+1,a} = S(x_{i,a}) =
W_1 x_{i,a} + t for node a of panel i. With W_i the rotation of S^i (by
i phi about W_1's axis, the identity for a straight body),
x_{i,a} - x_{j,b} = W_j (x_{i-j,a} - x_{0,b}), so in per-panel frames,
node components of panel i turned by W_i^T, block (i, j) of D^T G D,
D the block diagonal of the W_i of each node's panel, is

    T'(i - j),   T'(delta) = W_delta^T G(x_{delta,a} - x_{0,b}),

(rows (a, alpha), columns (b, beta)) for i >= j and T'(j - i)^T for i < j.
When the reversal reverses the screw, R W_j R = W_j^T, then
W_i^T G(x_p - x_{N-1-q}) R W_j = H'(i + j) for node p of panel i and q of
panel j, and

    D^T G+- D = T'(i - j) +- H'(i + j),    H'(sigma) = T'(P - 1 - sigma)^T K,

K = flip_k (x) W_{P-1}^T R, because x_{N-1-q} is the reversal image of
x_q. The kernel then runs once, on the P k^2 node pairs of T' (9,216 for
the README helix at N = 1536, in place of 1,181,184), on this path as on
the next, and every row of the packed matrix is copied from a window of
T' and H'. The rigid motions are rotated into the panel frames by W_i^T
per node and the point forces back by W_i.

The whole of D^T G D is block Toeplitz, block (i, j) = T'(i - j) for
i >= j and T'(j - i)^T for i < j, and for a closed body block circulant,
T'(P - delta) = T'(delta)^T. Block-Toeplitz PCG solves it without
forming it (R. Chan & Ng, SIAM Review 1996), on both halves of the
reversal in one loop. In the panel frames the reversal is the constant
involution flip_P (x) K, because R W_i R = W_i^T, and the matrix commutes
with it. A vector of parity +-1 is held on its first N/2 nodes, where
D^T G+- D acts, as ceil(P/2) panels in the eigenbasis of K (the middle
panel of odd P completed by K and divided by sqrt 2): a component of
K-eigenvalue kappa is then even about the body's middle when kappa is
the parity and odd otherwise. A block of such vectors is held one vector
a row, so that the block iteration updates and multiplies contiguous
rows. The product applies the circulant of 2P blocks that embeds the
matrix, generator T'(0), ..., T'(P - 1), 0, T'(P - 1)^T, ..., T'(1)^T.
The 2P-periodic extension of such a vector is symmetric about the
middle, so e^{i theta (P-1)/2} times its Fourier transform is real in
its even components and imaginary in its odd ones, and the P + 1
Hermitian 3k x 3k symbols C become real symmetric ones, G^H C G with
G = diag(1, i) on K-eigenvalues (1, -1): the real part of C where the
two eigenvalues of an entry agree, its imaginary part where they differ.
Only the 3k(3k + 1)/2 entries on and above the diagonal are transformed.
For even P the transform is a DCT-II of length P of the N/2 nodes after
P/2 zero panels, and a DST-II for the odd components, both from one real
FFT of length P (Makhoul, IEEE Trans. ASSP 1980), which gives the values
at frequencies f and P - f together, in its real and imaginary parts
once the DST is turned into the real part; for odd P the symmetry centre
is a panel and a real FFT of length 2P is taken. The odd vectors are
held with their components of eigenvalue -1 negated, so that both
parities take the same symbols. The preconditioner is T. Chan's optimal
circulant of P blocks (SIAM J. Sci. Stat. Comput. 1988), generator
((P - delta) T'(delta) + delta T'(P - delta)^T) / P. It commutes with the
reversal too: its P/2 + 1 real symbols (transforms of length P/2 for
even P) are factored by Cholesky, once each, and for a closed body it is
the matrix itself, whose product then needs no embedding. Each parity's
right-hand sides U+- are reduced to an orthonormal basis of their rank
(2 and 4 for the README helix), and block conjugate gradients (O'Leary,
Linear Algebra Appl. 1980) solve for both bases at once: every step
searches a block of directions P with step alpha = (P^T A P)^-1 P^T R, R
the residuals, and the entries of these Gram matrices between columns of
different parity, which belong to different matrices, are zero. The
first block is an orthonormal basis of the preconditioned right-hand
sides, and each next one of the preconditioned residuals made
A-conjugate to P, beta = -(P^T A P)^-1 (A P)^T Z; both are
orthonormalized through the Cholesky factor of their Gram matrix
(Cholesky QR) when its every pivot is above the rounding, and otherwise
through the pivoted factor, which reveals their rank, so that residuals
of which some combination has converged narrow the block instead of
making P^T A P singular (Dubrulle, ETNA 2001; Ji & Li, BIT 2017). It
stops when every original column's residual, sqrt(|r+_j|^2 +
|r-_j|^2), is at most _PCG_RTOL of its right-hand side, sqrt(|U+_j|^2 +
|U-_j|^2); a parity whose part is below half of that in every column
stops earlier, and the other goes on alone (on the README helix the odd
half converges first, at iteration 13 of 17).
Its memory grows like N.

So there are three paths, and one selector in resistance_set. A body
whose curve records its reversal and screw in closed form (a rod, ring,
helix or one-edge polyline, geometry.Symmetry), and whose nodes that
record fits (_panel_symmetry), is panel-periodic. If it is closed, or has
at least N_x = _TOEPLITZ_MIN_NODES nodes, it is solved by block-Toeplitz
PCG, and by the two blocks if PCG reaches its iteration cap; otherwise it
is solved as two blocks, which is faster below N_x. Both read the one T'
of the body. Every other body, any other polyline, an odd-N body or a
single panel, is assembled in strips and solved as one block. All three
solve G X = B for right-hand sides of any number of columns, held (rows,
3, m): the one block for the whole body, the two blocks and PCG for the
two halves of the reversal, and resistance_set forms A6 once from what
they return.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, ConfigError, ConvergenceError, SolverError
from .geometry import _STRIP_PAIRS, pair_strips
from .kernel import kernel_scalars


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, scipy.linalg._flapack, without the
    scipy.linalg package. The routines used here (dpftrf, dpftrs, dtrtri,
    dpotrs, dpotrf, dpstrf, dsyev) are the objects scipy.linalg.lapack
    re-exports. The extension loads in a few ms; the package's __init__
    costs about 0.2 s more (SciPy 1.17 on a 2-vCPU x86-64 host), mostly
    array_api_compat cloning numpy, which imports numpy.f2py,
    numpy.testing, numpy.ma and numpy.random. The
    module is registered under its own name, so a later import of
    scipy.linalg shares it, and one already loaded is reused."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy   # SciPy's own loader set-up, such as a wheel's DLL paths

    path = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.FileFinder(
        path, (importlib.machinery.ExtensionFileLoader,
               importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in {path}", name=name, path=path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


lapack = _load_flapack()

_ZERO_DATA_TOL = 1e-12
# largest distance of a node from its image under the reversal or the
# screw, relative to the body's extent, for the panel-periodic paths
_SYMMETRY_RTOL = 1e-12
# strip-sized float64 arrays alive at the peak of assembly, inside
# kernel_scalars: the strip's differences and squared distances (4), its
# nine components (9), the distances and kernel_scalars' own arrays with its
# near-field mask (7) and the square blocks' triangle mask (1)
_STRIP_TEMPORARIES = 21
# N_x, the least node count at which an open panel-periodic body is solved
# by block-Toeplitz PCG, not on the two dense blocks (closed bodies take PCG
# at every N). resistance_set with N_x forced to 0, median of 9, order 6:
# PCG breaks even between 240 and 360 nodes on rods at ell 0.1 to 1 and on
# helices at ell 0.1 and 0.3, and between 360 and 480 on helices at ell 1
# (4.0 / 5.0 ms at N = 240 and 7.2 / 5.6 ms at 360 for the helix at ell
# 0.1, 7.0 / 8.4 ms at 360 and 12.1 / 10.1 ms at 480 at ell 1). Lowering
# it moves sweep-small's helices and rods of N 360 to 400, so it is a
# change of its own
_TOEPLITZ_MIN_NODES = 600
# PCG stops when every column's relative residual is at most _PCG_RTOL; at
# _PCG_MAX_ITER iterations, four times the 13 to 25 measured on rods and
# helices of N = 240 to 1200 at ell 0.1 to 1, it gives way to the two dense
# blocks
_PCG_RTOL = 1e-14
_PCG_MAX_ITER = 100
# float64 values per generator pair (N k pairs), per node and in all held
# by the block-Toeplitz solve at its peak, T' included: upper bounds, with
# the peaks measured on rods, rings and helices of N = 4 to 3072 at 0.22 to
# 0.94 of them (the peak is the symbols' set-up, 41 to 72 doubles a pair at
# N >= 600 for k >= 3, and up to 98 at k = 2). The vectors counted per node
# are those of the six columns, the rigid motions, that resistance_set solves
_TOEPLITZ_PER_PAIR = 72
_TOEPLITZ_PER_NODE = 96
_TOEPLITZ_FIXED = 8192
# largest relative asymmetry of the grand matrix resistance_set accepts
_ASYMMETRY_TOL = 1e-6


def require_memory(m, where, temporaries=0, what="the block-Toeplitz solve"):
    """Raise ConfigError, naming `where`, when a packed m x m Green matrix
    plus `temporaries` doubles exceeds the physical RAM; m = 0 counts the
    temporaries alone, the arrays of `what`."""
    need = 8 * (m * (m + 1) // 2 + temporaries)
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        what = f"a packed Green matrix of order {m}" if m else what
        raise ConfigError(f"{where}: {what} needs about {need / 2**30:.1f} GiB, "
                          f"more than the {ram / 2**30:.1f} GiB of physical memory")


def require_solvable(n, k, periodic, where):
    """Refuse N nodes, k to a panel, that no solve path fits in memory,
    before they are made: a body that may be panel-periodic can take
    block-Toeplitz PCG, whose arrays grow like N; any other needs at least
    one packed block of order 3N/2. resistance_set checks the exact need
    of the path the discretized body takes."""
    if periodic:
        require_memory(0, where, _toeplitz_doubles(n, k))
    else:
        require_memory(3 * n // 2, where)


def _check_fits(n):
    """Refuse a strip assembly whose peak memory exceeds the physical RAM:
    the packed 3n x 3n matrix and one strip's temporaries."""
    require_memory(3 * n, "mobility.assemble_system",
                   _STRIP_TEMPORARIES * max(_STRIP_PAIRS, n))


def _rfp_diagonal(m):
    """Flat positions of the diagonal entries G[i, i] in the RFP array of
    an m x m matrix (the index map is in assemble_system)."""
    h, s = (m + 1) // 2, 1 - m % 2
    i = np.arange(m)
    return np.where(i < h, i * (m + s) + i + s, (i - h + 1 - s) * (m + s) + i - h)


@np.errstate(over="ignore", invalid="ignore")
def assemble_system(body, params):
    """Green matrix G, block (p,q) = G(x_p - x_q), no weights, packed RFP,
    and the smallest distance between two distinct nodes.

    Component (a,b) of every block is A(r) delta_ab + B(r) d_a d_b / r^2 with
    d = x_p - x_q. Returns LAPACK's rectangular full packed array of the
    lower triangle (TRANSR='N', UPLO='L') of the symmetric m x m matrix,
    m = 3N, as its C-order transpose P of shape (h, m + s), h = ceil(m/2),
    s = 1 if m is even else 0: the upper entry G[i, c], c >= i, is

        P[i, c + s]              for i < h,
        P[c - h + 1 - s, i - h]  for i >= h

    (_rfp_block). The kernel is evaluated once per node pair, in row strips
    of nodes p0 <= p < p1 against q >= p0 (rows i0 <= i < i1 of G). Each
    strip is written as one slice right of its own square block, plainly
    for rows above h and transposed for rows below it, plus the upper
    triangle of the square block, whose lower entries would overwrite the
    other half of the RFP array; a strip that straddles row h is written in
    two parts. The diagonal blocks are A(0) I. The strips' squared
    distances also give the smallest node separation, and a zero one is
    refused. An entry that overflows stays inf or NaN, without a
    floating-point warning; _factorize refuses its factor.
    """
    x = body.nodes
    n = x.shape[0]
    _check_fits(n)
    m = 3 * n
    h, s = (m + 1) // 2, 1 - m % 2
    P = np.empty((h, m + s))
    buf = np.empty(9 * min(max(_STRIP_PAIRS, n), n * n))   # the largest strip
    # a strip of k rows and at least k columns holds at most _STRIP_PAIRS
    # pairs unless k = 1, so k <= isqrt(_STRIP_PAIRS)
    tall = 3 * min(n, math.isqrt(_STRIP_PAIRS))
    upper = np.triu(np.ones((tall, tall), dtype=bool))
    sep2 = np.inf
    for p0, p1, d, r2 in pair_strips(x):
        k = p1 - p0
        S4 = buf[:9 * r2.size].reshape(k, 3, n - p0, 3)
        sep2 = min(sep2, _block_rows(S4, d, r2, params))
        S = S4.reshape(3 * k, 3 * (n - p0))
        i0, i1 = 3 * p0, 3 * p1
        for lo, hi in ((i0, min(i1, h)), (max(i0, h), i1)):
            if lo < hi:
                _rfp_block(P, s, lo, hi, hi, m)[...] = S[lo - i0:hi - i0, hi - i0:]
                np.copyto(_rfp_block(P, s, lo, hi, lo, hi),
                          S[lo - i0:hi - i0, lo - i0:hi - i0],
                          where=upper[:hi - lo, :hi - lo])
    return P, float(np.sqrt(sep2))


def _rfp_block(P, s, i0, i1, c0, c1):
    """The view of the RFP array P of assemble_system (h rows) whose entry
    (i - i0, c - c0) holds G[i, c], i0 <= i < i1, c0 <= c < c1, wherever
    c >= i; rows i0 to i1 lie on one side of row h. Entries with c < i
    alias other entries of G and must not be written."""
    h = P.shape[0]
    if i0 < h:
        return P[i0:i1, c0 + s:c1 + s]
    return P[c0 - h + 1 - s:c1 - h + 1 - s, i0 - h:i1 - h].T


def _fill_periodic(Z, Y, n, sign):
    """The diagonal block G+ (sign 1) or G- (sign -1) of order 3n of a
    panel-periodic body, D^T G+- D on its first n = N/2 nodes in the
    per-panel frames (module docstring), in the RFP layout of
    assemble_system, written from the windows Z and Y of _generators one
    panel of rows at a time. Row i of it, node p of panel I and component
    (a, alpha) = i mod 3k, is the window of row i mod 3k of Z starting at
    column 3k (reach - I), plus sign the window of Y starting at 3k I. Rows
    above h are written from the diagonal on, as on the strip path; each
    row below h is written from column h to the diagonal, which is a plain
    row of the RFP array."""
    w = Z.shape[0]
    reach = Z.shape[1] // (2 * w)   # Z has 2 reach + 1 blocks of w columns
    m = 3 * n
    h, s = (m + 1) // 2, 1 - m % 2
    P = np.empty((h, m + s))
    upper = np.triu(np.ones((w, w), dtype=bool))
    combine = np.add if sign > 0 else np.subtract
    for i0 in range(0, m, w):
        i1 = min(i0 + w, m)
        z = w * (reach - i0 // w)   # G[i0:i1, c] = Zi[:, c] + sign Yi[:, c]
        Zi, Yi = Z[:i1 - i0, z:z + m], Y[:i1 - i0, i0:i0 + m]
        for lo, hi in ((i0, min(i1, h)), (max(i0, h), i1)):
            if lo >= hi:
                continue
            square = _rfp_block(P, s, lo, hi, lo, hi)
            if hi <= h:
                parts = ((_rfp_block(P, s, lo, hi, hi, m), hi, m, True),
                         (square, lo, hi, upper[:hi - lo, :hi - lo]))
            else:
                parts = ((_rfp_block(P, s, h, lo, lo, hi).T, h, lo, True),
                         (square.T, lo, hi, upper[:hi - lo, :hi - lo].T))
            for dst, c0, c1, where in parts:
                combine(Zi[lo - i0:hi - i0, c0:c1], Yi[lo - i0:hi - i0, c0:c1],
                        out=dst, where=where)
    return P


def _generators(T, reach, panels):
    """The windows Z and Y of the two Green blocks G+- of a panel-periodic
    body in its per-panel frames (module docstring), rearranged from its T'
    (_panel_green) for panel differences up to `reach`.

    Z (3k, 3k (2 reach + 1)) holds block (I, J), |I - J| <= reach, of
    D^T G D at columns 3k (J - I + reach): T'(I - J) for I >= J and
    T'(J - I)^T for I < J. Y (3k, 3k (2 reach + 1)) holds H'(sigma) =
    T'(P - 1 - sigma)^T K at columns 3k sigma, K = flip_k (x) W_{P-1}^T R,
    R = diag(eps) the reversal.
    """
    k = panels.k
    Z = np.empty((k, 3, 2 * reach + 1, k, 3))
    Z[:, :, :reach + 1] = T[reach::-1].transpose(1, 2, 0, 3, 4)
    Z[:, :, reach + 1:] = T[1:reach + 1].transpose(3, 4, 0, 1, 2)   # T'^T
    H = T[::-1, ::-1][:2 * reach + 1]   # T'(P - 1 - sigma), node axis flipped
    Y = H.transpose(3, 4, 0, 1, 2) @ (panels.W[-1].T * panels.eps)
    return Z.reshape(3 * k, -1), Y.reshape(3 * k, -1)


@np.errstate(over="ignore", invalid="ignore")
def _panel_green(x, k, W, params):
    """T' of a panel-periodic body with nodes x, k to a panel, and panel
    rotations W: T'(g)[(a, alpha), (b, beta)] = (W_g^T G(x_{g,a} -
    x_{0,b}))[alpha, beta] over its P k^2 node pairs, from one kernel call,
    as an array of axes (g, a, alpha, b, beta); and the least distance
    between two distinct nodes. These pairs cover every node pair up to
    the screw, so their least distance is the body's: node (0, a) with
    itself is left out, and a zero distance of any other pair is
    refused."""
    P = len(W)
    d = [x[:, a, None] - x[:k, a] for a in range(3)]   # the N x k pairs
    r2 = d[0] * d[0]
    r2 += d[1] * d[1]
    r2 += d[2] * d[2]
    T = np.empty((P, k, 3, k, 3))   # G: axes (g, a, row, b, col)
    # the diagonal of the (N, k) pairs is panel 0's k self pairs
    least = _block_rows(T.reshape(-1, 3, k, 3), d, r2, params)
    del d, r2
    T = W.transpose(0, 2, 1)[:, None] @ T.reshape(P, k, 3, 3 * k)   # W^T G
    return T.reshape(P, k, 3, k, 3), float(np.sqrt(least))


def _block_rows(S4, d, r2, params):
    """Write a strip's block rows into S4 (or T', _panel_green), each
    component once; return the strip's least squared distance between two
    distinct nodes. Once the
    kernel has run, r2 serves as the component buffer; the kernel values
    are dropped on return, before the next strip is formed."""
    A, B = kernel_scalars(np.sqrt(r2), params)
    np.fill_diagonal(r2, np.inf)  # B(0) = 0, so the diagonal of B / r^2 is 0
    least = _least(r2)
    B /= r2
    for a in range(3):
        for b in range(a, 3):
            _component(A, B, d, a, b, r2)
            S4[:, a, :, b] = r2
            if a != b:
                S4[:, b, :, a] = r2
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
    dpftrs reads. A NaN pivot stops dpftrf and is left on the
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


def _rigid_motions(body):
    """U, the (N, 3, 6) nodal velocities of the six unit rigid motions, in
    one pass: the translations e_j, then the rotations e_j x x_q as signed
    copies of node coordinates, e_j x x = x_{j+1} e_{j+2} - x_{j+2} e_{j+1}
    (indices mod 3). A rotation whose data vanish to _ZERO_DATA_TOL of
    1 + length, the axial spin of a straight body, is an exact zero
    column."""
    x, j = body.nodes, np.arange(3)
    U = np.zeros((x.shape[0], 3, 6))
    U[:, j, j] = 1.0
    U[:, (j + 2) % 3, 3 + j] = x[:, (j + 1) % 3]
    U[:, (j + 1) % 3, 3 + j] = np.subtract(0.0, x[:, (j + 2) % 3])   # no -0.0
    for c in (3, 4, 5):
        if np.linalg.norm(U[:, :, c]) < _ZERO_DATA_TOL * (1 + body.length):
            U[:, :, c] = 0.0
    return U


class _Panels:
    """The per-panel rotations W (P, 3, 3) of a panel-periodic body with k
    nodes per panel and the signs eps of its reversal (_panel_symmetry)."""

    def __init__(self, W, k, eps):
        self.W, self.k, self.eps = W, k, eps


def _into_panels(v, panels, back=False):
    """The per-node (rows, 3, m) array v in the panel frames, W_i^T v_p for
    node p of panel i, or with back=True out of them, W_i v_p."""
    W = panels.W[np.arange(v.shape[0]) // panels.k]
    return (W if back else W.transpose(0, 2, 1)) @ v


def _panel_symmetry(body):
    """The eigenframe Q of a panel-periodic body's reversal, its nodes in
    that frame, (x - c) Q, and its _Panels, from the symmetry its curve
    records (geometry.Symmetry); None when the body records none or the
    record does not fit its nodes. It fits when N is even, P >= 2 and
    P k = N, and when, to _SYMMETRY_RTOL of the body's extent:
    - the reversal maps the nodes onto themselves in reverse order;
    - the screw S(y) = W_1 y + t maps panel 0 onto every panel,
      S^i(x_{0,a}) = W_i x_{0,a} + sum_{j<i} W_j t, with W_1 the turn by
      the record's angle and t = mean' - W_1 mean the least squares shift
      over the N - k node pairs x_{i,a} -> x_{i+1,a};
    - R = diag(eps) reverses the screw, R W_1 R = W_1^T.
    Nodes moved after discretize, as by dataclasses.replace, do not fit."""
    sym, n, k, P = body.symmetry, body.n_nodes, body.order, body.panels
    if sym is None or n % 2 or P < 2 or P * k != n:
        return None
    with np.errstate(over="ignore", invalid="ignore"):   # inf or NaN: no symmetry
        x = (body.nodes - sym.c) @ sym.Q
        extent = np.abs(x).max()
    if not 0.0 < extent < np.inf:
        return None
    y, eps = x / extent, sym.eps
    if np.linalg.norm(y[::-1] - y * eps, axis=1).max() > _SYMMETRY_RTOL:
        return None
    W = _rotations(sym.angle, P)
    y = y.reshape(P, k, 3)
    a0, b0 = y[:-1].mean(axis=(0, 1)), y[1:].mean(axis=(0, 1))
    images = y[0] @ W.transpose(0, 2, 1)
    images[1:] += np.cumsum(W[:-1] @ (b0 - W[1] @ a0), axis=0)[:, None]
    if (np.abs(images - y).max() > _SYMMETRY_RTOL
            or np.abs(eps[:, None] * W[1] * eps - W[1].T).max() > _SYMMETRY_RTOL):
        return None
    return sym.Q, x, _Panels(W, k, eps)


def _rotations(phi, P):
    """W_i, i < P: the turn by i phi about the third axis."""
    theta = phi * np.arange(P)
    W = np.zeros((P, 3, 3))
    W[:, 0, 0] = W[:, 1, 1] = np.cos(theta)
    W[:, 1, 0] = np.sin(theta)
    W[:, 0, 1] = -W[:, 1, 0]
    W[:, 2, 2] = 1.0
    return W


def _halves(B, panels):
    """B+- = B_p +- eps B_{N-1-p}, p < N/2, in the panel frames: the
    right-hand sides of the even and odd halves of a panel-periodic body
    for the (N, 3, m) right-hand sides B in the eigenframe of the
    reversal."""
    h = len(B) // 2
    near, far = B[:h], panels.eps[:, None] * B[h:][::-1]
    return [_into_panels(near + far, panels), _into_panels(near - far, panels)]


def _unfold(plus, minus, panels):
    """The inverse of _halves: X of all N nodes in the eigenframe of the
    reversal from X+- of the first N/2 in the panel frames,
    (X+_p + X-_p) / 2 at node p and eps (X+_p - X-_p) / 2 at N-1-p."""
    plus, minus = (_into_panels(p, panels, back=True) for p in (plus, minus))
    h = len(plus)
    psi = np.empty((2 * h, *plus.shape[1:]))
    np.add(plus, minus, out=psi[:h])
    far = psi[h:][::-1]
    np.subtract(plus, minus, out=far)
    far *= panels.eps[:, None]
    psi *= 0.5
    return psi


def _two_blocks(T, panels, halves):
    """X+- = (D^T G+- D)^-1 B+- for the two halves B+- (_halves) of a
    panel-periodic body with generator T' (_panel_green), on its two dense
    blocks. The memory guard counts what the fill holds: one packed block
    at a time, T', Z and Y, and the buffers (np.getbufsize() values each)
    of the ufunc that writes rows transposed, for its inputs, output and
    mask."""
    h, w = len(halves[0]), 3 * panels.k
    reach = (h - 1) // panels.k   # the largest panel difference of a block
    require_memory(3 * h, "mobility.resistance_set",
                   T.size + 2 * w * w * (2 * reach + 1) + 4 * np.getbufsize())
    Z, Y = _generators(T, reach, panels)
    return [_solve(_fill_periodic(Z, Y, h, sign), B) for sign, B in zip((1.0, -1.0), halves)]


def _solve(packed, B):
    """X = G^-1 B for the (rows, 3, m) right-hand sides B, G the packed
    matrix, which its Cholesky factor overwrites."""
    rows = B.reshape(-1, B.shape[-1])
    X, _ = lapack.dpftrs(len(rows), _factorize(packed), rows, transr="N", uplo="L")
    return X.reshape(B.shape)


class _Fold:
    """Vectors of one parity under the reversal J of a panel-periodic body,
    held on its first N/2 nodes, and their products with the block
    Toeplitz and block circulant matrices of the panel frames that commute
    with J (module docstring). A block of w vectors is held as a (w, h b)
    array, one vector a row: h = ceil(P/2) panels in the eigenbasis V of
    K, with the entries of eigenvalue -1 negated when the vector is odd,
    so that both parities take the same real symbols."""

    def __init__(self, panels, n):
        k, P = panels.k, len(panels.W)
        # K's eigenvectors, those of the node flip (x) those of the 3 x 3
        # involution: no eigenvector mixes components that K keeps apart,
        # such as the in- and out-of-plane components of a planar body
        mu, V3 = np.linalg.eigh(panels.W[-1].T * panels.eps)
        f, F = np.linalg.eigh(np.eye(k)[::-1])
        kappa = np.where(np.outer(f, mu) < 0.0, -1.0, 1.0).ravel()
        order = np.argsort(kappa, kind="stable")   # eigenvalue -1 first
        self.V = (F[:, None, :, None] * V3[:, None]).reshape(3 * k, 3 * k)[:, order]
        self.kappa, self.odd = kappa[order], np.count_nonzero(kappa < 0.0)
        self.k, self.P, self.n, self.h = k, P, n, (P + 1) // 2
        self.upper, self.lower, self.real, self.entry = _held_entries(3 * k, self.odd)
        self._plans = {}   # (L, side) -> the factors and work arrays of apply
        self._work = np.empty(0), np.empty((2, 0), complex)

    def symbols(self, generator):
        """The real symbols of the block circulant whose first block column
        has the held entries `generator` (entries, blocks), in K's
        eigenbasis, as apply reads them: G^H C G for its complex symbols C
        at frequencies g = 0 to L, G = diag(1 where K's eigenvalue is 1, i
        where it is -1), the real part of C where the two eigenvalues of an
        entry agree and its imaginary part where they do not. For even P
        these are the pairs (M_f, kappa M_{L-f} kappa), f = 0 to L/2, since
        one real FFT gives the values at f and L - f together, in its real
        and imaginary parts."""
        C, r, b = np.fft.rfft(generator, axis=-1), self.real, 3 * self.k
        if self.P % 2:
            parts = ((C, 1.0),)
        else:
            F = (C.shape[1] - 1) // 2
            parts = (C[:, :F + 1], 1.0), (C[:, C.shape[1] - 1 - F:][:, ::-1], -1.0)
        held = np.empty((len(parts), parts[0][0].shape[1], len(C)))
        for m, (c, flip) in zip(held, parts):
            m[:, :r] = c[:r].real.T
            np.multiply(c[r:].imag.T, flip, out=m[:, r:])
        M = held.take(self.entry, axis=-1).reshape(held.shape[:2] + (b, b))
        return M[0] if self.P % 2 else M

    def to_rep(self, x, parity):
        """The (N/2, 3, w) array x of the first N/2 nodes in the panel
        frames, of this parity, as held (w, h b)."""
        h, k, w = self.h, self.k, x.shape[-1]
        x = np.concatenate([x, np.zeros((h * k - len(x), 3, w))])   # odd P: middle panel
        y = self.V.T @ x.reshape(h, 3 * k, w)
        if self.P % 2:   # the middle panel, completed by K, over sqrt 2
            y[-1] *= math.sqrt(2.0) * (self.kappa == parity)[:, None]
        if parity < 0:
            y *= self.kappa[:, None]
        return y.transpose(2, 0, 1).reshape(w, -1)

    def from_rep(self, y, parity):
        """The inverse of to_rep."""
        w = len(y)
        y = y.reshape(w, self.h, 3 * self.k).transpose(1, 2, 0) * (
            self.kappa[:, None] if parity < 0 else 1.0)
        if self.P % 2:
            y[-1] *= math.sqrt(2.0)
        return (self.V @ y).reshape(-1, 3, w)[:self.n]

    def apply(self, symbols, x, side, embedded):
        """The first N/2 nodes of C v, v the whole vector of which row j of
        the held (w, h b) array x gives the first N/2 nodes, of parity
        side[j], and C the block Toeplitz matrix (embedded=True, symbols of
        its circulant embedding of 2P blocks) or the block circulant of P
        blocks, with symbols as `symbols` makes them."""
        P, h, w = self.P, self.h, len(x)
        x = x.reshape(w, h, -1)
        if P % 2 == 0:
            y = self._dct(symbols, x, side, P if embedded else h)
        else:
            y = self._dft(symbols, x, side, 2 * P if embedded else P)
        return y.reshape(w, -1)

    def _plan(self, L, side):
        """The factors of apply at length L for rows of these parities
        (_factors) and its work arrays: the window (L, w, b) and two
        spectra (L/2 + 1, w, b), views of arrays made for the longest
        length and grown with w. One apply runs at a time, and none returns
        a view of them."""
        key = (L, side.tobytes())
        if key not in self._plans:
            even = side[:, None] * self.kappa > 0.0
            n, longest = even.size, self.P * (1 + self.P % 2)   # 2P for odd P
            if self._work[0].size < longest * n:
                self._work = np.empty(longest * n), np.empty((2, (longest // 2 + 1) * n), complex)
            window, spectra = self._work
            self._plans[key] = (*_factors(self.P, L, even.shape, even.tobytes()),
                                window[:L * n].reshape((L,) + even.shape),
                                *(s[:(L // 2 + 1) * n].reshape((-1,) + even.shape)
                                  for s in spectra))
        return self._plans[key]

    def _dct(self, symbols, x, side, L):
        """apply for even P, through a DCT-II/DST-II of length L (Makhoul)
        of the window of L panels that ends with x after zeros: the whole
        vector, periodic with 2L panels, is half-sample symmetric (sign 1)
        or antisymmetric (sign -1) about the window's start. Makhoul's
        order puts the window's even panels first and its odd panels after
        them, reversed and times (-1)^m, which turns the DST into a DCT;
        the window after zeros is held shifted to the buffer's start, so
        that its first panels are those of x of the parity of h. The
        transform at f <= L/2 then holds the values at f in its real part
        and, up to signs in the symbols, those at L - f in its imaginary
        part."""
        sign, tw, twc, r, t, y = self._plan(L, side)
        h, (m, w, b) = self.h, sign.shape
        a, c = h - m, h % 2 if L > h else 0
        r[:a] = x[:, c::2].transpose(1, 0, 2)
        np.multiply(x[:, 1 - c::2][:, ::-1].transpose(1, 0, 2), sign, out=r[a:h])
        r[h:] = 0.0
        np.fft.rfft(r, axis=0, out=t)
        t *= tw
        np.matmul(t.real, symbols[0], out=y.real)
        np.matmul(t.imag, symbols[1], out=y.imag)
        y *= twc
        np.fft.irfft(y, n=L, axis=0, out=r)
        r[a:h] *= sign
        out = np.empty((w, h, b))
        out[:, c::2] = r[:a].transpose(1, 0, 2)
        out[:, 1 - c::2] = r[a:h][::-1].transpose(1, 0, 2)
        return out

    def _dft(self, symbols, x, side, L):
        """apply for odd P, through real FFTs of length L of the whole
        vector: e^{i pi f (P-1) / L} times its transform is real for even
        entries and imaginary for odd ones."""
        sign, fwd, inv, z, t, u = self._plan(L, side)
        P, h = self.P, self.h
        z[:h] = x.transpose(1, 0, 2)
        np.multiply(x[:, P - h - 1::-1].transpose(1, 0, 2), sign, out=z[h:P])
        z[h - 1] *= math.sqrt(2.0)
        z[P:] = 0.0
        np.fft.rfft(z, axis=0, out=t)
        t *= fwd
        np.matmul(t.real, symbols, out=u.real)
        np.multiply(u.real, inv, out=t)
        y = np.fft.irfft(t, n=L, axis=0, out=z)[:h].transpose(1, 0, 2).copy()
        y[:, -1] /= math.sqrt(2.0)
        return y


@functools.lru_cache(maxsize=4)   # both lengths, before and after a parity stops
def _factors(P, L, shape, even):
    """The read-only factors of _Fold.apply at length L for P panels and
    rows whose entries are even about the middle where the boolean array
    `even` (of this shape, as bytes) is set: sign (1 there, -1 elsewhere)
    on the panels it multiplies, and the complex factors of the
    transforms. Kept for the next body of the same P: made afresh, they
    cost their own time and the page faults of new memory."""
    sign = np.where(np.frombuffer(even, dtype=bool).reshape(shape), 1.0, -1.0)
    f, h = np.arange(L // 2 + 1)[:, None, None], (P + 1) // 2
    if P % 2:
        phase = np.exp(1j * np.pi * (P - 1) / L * f)
        factors = (np.broadcast_to(sign, (P - h,) + shape).copy(),
                   np.broadcast_to(phase * (1.0 - 1.0j), f.shape[:1] + shape).copy(),
                   np.where(sign > 0.0, 1.0, 1.0j) * phase.conj())
    else:
        # Makhoul's twiddles e^{-i pi f / 2L}, times -i for an odd entry (its
        # DST into the real part) and, for the window of x after h zero
        # panels, by the shift of the window to the buffer's start
        shift = (h + 1) // 2 if L > h else 0
        tw = np.exp(-1j * np.pi * f * (0.5 + 2 * shift) / L) * np.where(sign > 0.0, 1.0, -1.0j)
        factors = (np.broadcast_to(sign, (h - h // 2 if L > h else h // 2,) + shape).copy(),
                   tw, tw.conj())
    for a in factors:
        a.flags.writeable = False
    return factors


@functools.lru_cache(maxsize=None)   # a few pairs (3k, odd) per run
def _held_entries(b, odd):
    """The entries (e, e'), e <= e', of a b x b block that the symmetric
    real symbols of _Fold hold, those whose symbol is a real part first
    (both K-eigenvalues -1, e' < odd, or both 1, e >= odd): their flat
    positions in a block and in its transpose, the count of real parts, and
    the held entry of each flat position, as read-only arrays."""
    e, f = np.triu_indices(b)
    imaginary = (e < odd) & (f >= odd)
    order = np.argsort(imaginary, kind="stable")
    upper, lower = (e * b + f)[order], (f * b + e)[order]
    entry = np.empty(b * b, dtype=np.intp)
    entry[upper] = entry[lower] = np.arange(len(e))
    for a in (upper, lower, entry):
        a.flags.writeable = False
    return upper, lower, len(e) - int(np.count_nonzero(imaginary)), entry


@np.errstate(over="ignore", invalid="ignore")
def _operators(T, panels, closed):
    """The folded vectors of a panel-periodic body given in the eigenframe
    of its reversal (_Fold), the real symbols of its block Toeplitz
    product with generator T' (_panel_green), those of the inverse of
    T. Chan's preconditioner scaled to unit size, and whether the product
    needs the embedding of 2P blocks (an open body)."""
    P, b = len(T), 3 * panels.k
    fold = _Fold(panels, P * panels.k // 2)
    R = (fold.V.T @ T.reshape(P, b, b) @ fold.V).reshape(P, -1)   # T'(delta) in K's eigenbasis
    # the held entries of the generator of the circulant of 2P blocks that
    # embeds the matrix, T'(0), ..., T'(P - 1), 0, T'(P - 1)^T, ..., T'(1)^T
    G = np.empty((len(fold.upper), 2 * P))
    G[:, :P] = R[:, fold.upper].T
    G[:, P] = 0.0
    G[:, P + 1:] = R[P - 1:0:-1, fold.lower].T
    del R
    # a closed body's matrix is its own circulant of P blocks, which Chan's
    # preconditioner is; an open one's is embedded in a circulant of 2P
    embedded = not closed
    product = fold.symbols(G) if embedded else None
    # Chan's generator ((P - delta) T'(delta) + delta T'(P - delta)^T) / P, in place
    delta = np.arange(P) / P
    G[:, :P] *= 1.0 - delta
    G[:, P:] *= delta
    G[:, :P] += G[:, P:]
    chan = fold.symbols(G[:, :P])
    del G
    if closed:
        product = chan
    if not (np.isfinite(product).all() and np.isfinite(chan).all()):
        raise SolverError("mobility: block-Toeplitz symbols have non-finite entries")
    try:
        L = np.linalg.cholesky(chan)
    except np.linalg.LinAlgError:
        raise SolverError("mobility: a symbol of the circulant preconditioner "
                          "is not positive definite")
    # numpy has no batched triangular solve: each factor is inverted once,
    # in place, as the upper triangle of its transpose
    for f in L.reshape(-1, b, b):
        lapack.dtrtri(f.T, overwrite_c=1)
    inverse = np.matmul(np.swapaxes(L, -1, -2), L, out=None if closed else chan)
    # the block iteration does not see the preconditioner's scale; at unit
    # scale the Gram matrices of _orthonormal neither underflow nor overflow
    # at extreme mu or ell
    inverse /= max(inverse.max(), -inverse.min())
    return fold, product, inverse, embedded


@np.errstate(over="ignore", invalid="ignore")
def _toeplitz_pcg(T, panels, halves, closed):
    """X+- = (D^T G+- D)^-1 B+- for the two halves B+- (_halves) of a
    panel-periodic body with generator T' (_panel_green), solved by
    block-Toeplitz PCG (module docstring), and the `solver` record of
    ResistanceSet; X+- is None when PCG stops at its iteration cap."""
    fold, product, inverse, embedded = _operators(T, panels, closed)
    m = halves[0].shape[-1]
    U = np.concatenate([fold.to_rep(B, s) for B, s in zip(halves, (1.0, -1.0))])
    unorm = (U * U).sum(axis=1).reshape(2, m).sum(axis=0)
    cols = np.flatnonzero(unorm)   # a zero column (a straight body's axial spin) stays zero
    sides = np.repeat([1.0, -1.0], m)   # the parities of U's rows
    B, side = _orthonormal(U, sides, np.tile(np.sqrt(unorm), 2))
    C = (B @ U.T) * (side[:, None] == sides)   # U = C^T B, parity by parity
    # block PCG (module docstring) for the basis rows B, both parities at
    # once: psi their nodal point forces, r their residuals, p the
    # orthonormal search block, and the Gram matrices of vectors of
    # different parity, which have no meaning, masked out. A parity whose
    # part of every column's residual is below half the tolerance stops,
    # and the other goes on alone: `live` are the rows still solved
    psi, r = np.zeros_like(B), B.copy()
    w, even = len(side), int(np.count_nonzero(side > 0))
    live, stops = slice(0, w), [None, None]
    p, pside = _orthonormal(fold.apply(inverse, r, side, False), side)
    for it in range(1, _PCG_MAX_ITER + 1):
        q = fold.apply(product, p, pside, embedded)
        c = _gram_factor((p @ q.T) * (pside[:, None] == pside))
        alpha = lapack.dpotrs(c, (p @ r[live].T) * (pside[:, None] == side[live]),
                              lower=1)[0].T
        psi[live] += alpha @ p
        r[live] -= alpha @ q
        # each parity's part of the residual of each original column j,
        # |r+ C+_j|^2 and |r- C-_j|^2, over |U+_j|^2 + |U-_j|^2
        d = ((_gram(r) @ C) * C).sum(axis=0).reshape(2, m)[:, cols] / unorm[cols]
        residual = np.sqrt(d.sum(axis=0))
        if residual.max() <= _PCG_RTOL:
            stops = [it if stop is None else stop for stop in stops]
            break
        for j, (part, rest) in enumerate(zip(d, (slice(even, w), slice(0, even)))):
            if part.max() <= 0.25 * _PCG_RTOL ** 2 and live != rest:
                live, keep, stops[j] = rest, pside == side[rest.start], it
                p, q, pside, c = p[keep], q[keep], pside[keep], c[np.ix_(keep, keep)]
        z = fold.apply(inverse, r[live], side[live], False)
        beta = lapack.dpotrs(c, (q @ z.T) * (pside[:, None] == side[live]), lower=1)[0]
        p, pside = _orthonormal(z - beta.T @ p, side[live])
    solver = {"path": "toeplitz-pcg", "iterations": it,
              "residual": float(residual.max()), "fallback": None,
              "widths": [even, w - even], "parity_iterations": stops}
    if not residual.max() <= _PCG_RTOL:
        solver.update(path="cholesky", fallback=f"block-Toeplitz PCG stopped at its "
                                                f"cap of {_PCG_MAX_ITER} iterations")
        return None, solver
    psi = (C.T @ psi).reshape(2, m, -1)
    return [fold.from_rep(x, s) for x, s in zip(psi, (1.0, -1.0))], solver


def _orthonormal(W, side, scale=None):
    """An orthonormal basis of the span of the rows of W, U^-T E^T D^-1 W,
    parity by parity, and the parity of each basis row, the even ones
    first: row j of W has parity side[j], the even rows first, and the Gram
    matrix W W^T is taken with its entries between rows of different
    parity zeroed. D is `scale`, by default the row norms, and U comes from
    the Cholesky factor of that Gram matrix scaled by D on both sides,
    E^T D^-1 W W^T D^-1 E = U^T U: the plain factor (E = I, Cholesky QR)
    when its every pivot is above the rounding of that Gram matrix, and
    otherwise the pivoted one (dpstrf). There, directions whose pivot is
    within the rounding are left out, so that dependent rows give a
    narrower basis (rank-revealing), while rows that are merely small
    stay; with `scale`, rows small beside it go too. The factor keeps exact
    zeros: rows of disjoint support, such as the in- and out-of-plane
    motions of a planar body, or of different parity, are not mixed. W
    itself when W W^T is not finite."""
    S = _gram(W)
    S *= side[:, None] == side
    if not np.isfinite(S).all():
        return W, side
    d = np.sqrt(S.diagonal()) if scale is None else scale.copy()
    d[d == 0.0] = 1.0
    S /= np.outer(d, d)
    tol = W.shape[1] * np.finfo(float).eps
    U, info = lapack.dpotrf(S)
    if info == 0 and U.diagonal().min() ** 2 > tol:   # every pivot above the rounding
        return (lapack.dtrtri(U)[0] / d[:, None]).T @ W, side
    U, piv, rank, _ = lapack.dpstrf(S, tol=tol)
    lead = piv[:rank] - 1
    T = np.zeros((rank, len(d)))
    T[:, lead] = (np.triu(lapack.dtrtri(U[:rank, :rank])[0]) / d[lead, None]).T   # U^-T
    order = np.argsort(-side[lead], kind="stable")   # even rows first
    return T[order] @ W, side[lead][order]


def _gram(W):
    """W W^T, through the general product: OpenBLAS's symmetric rank-k
    update, which numpy calls for W @ W.T, took 3 times as long for the
    (6, 2304) blocks of block PCG."""
    return W @ W.copy().T


def _gram_factor(G):
    """The Cholesky factor of block PCG's p^T A p; SolverError, with its
    least eigenvalue, when it is not positive definite."""
    c, info = lapack.dpotrf(G, lower=1)
    if info != 0 or not np.isfinite(c).all():
        least = lapack.dsyev(G, compute_v=0)[0][0] if np.isfinite(G).all() else np.nan
        raise SolverError(f"mobility: block-Toeplitz PCG met p^T A p = {least:.3e}, "
                          f"not positive")
    return c


def _toeplitz_doubles(n, k):
    """An upper bound on the float64 values _toeplitz_pcg holds at once for
    N nodes, k to a panel: the generator pairs' arrays and the symbols (N k
    pairs), and the PCG vectors of six right-hand sides."""
    return _TOEPLITZ_PER_PAIR * n * k + _TOEPLITZ_PER_NODE * n + _TOEPLITZ_FIXED


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
    solver: dict             # path, PCG iterations, residual, widths, parity stops, fallback
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
            "solver": dict(self.solver),
            "asymmetry": self.asymmetry,
            "ell": self.ell,
            "mu": self.mu,
            "n_nodes": self.n_nodes,
            "shape_hash": self.shape_hash,
        }


def resistance_set(body, params):
    """The grand resistance matrix A6 = U^T G^-1 U and the basis force
    densities Phi = W^-1 G^-1 U, from one Cholesky factor per diagonal
    block or from block-Toeplitz PCG.

    U holds the six unit rigid motions (three translations, three rotations
    about the center of mass) as columns of nodal velocities. The path
    solves G psi = U for their nodal point forces, Phi = W^-1 psi, and
    A6 = U^T psi: column j of A6 is the force and torque of psi_j, the
    weights having cancelled, sum_q w_q Phi_qj and sum_q w_q x_q x Phi_qj.
    The axial rotation of a straight body generates no boundary data and
    gives an exact zero row and column of A6 and an exact zero density.
    A6 is symmetric only as far as psi solves the system: the reciprocity
    gate below compares it with its transpose, both scaled by the largest
    entry, and so measures the rounding of a dense solve and the iteration
    error of PCG. A grand matrix that is not finite, from a solve that
    overflowed, raises SolverError.

    This is the one-block path, G assembled in strips. The selector of the
    module docstring sends a panel-periodic body to the two blocks G+- or
    to block-Toeplitz PCG instead, in the eigenframe of R, where
    R = diag(eps), and in its per-panel frames. With U_p rotated by Q^T and
    turned by W_i^T at each node of panel i, both solve the two halves,
    U+-_p = U_p +- eps U_{N-1-p} and psi+- = (D^T G+- D)^-1 U+- for p < N/2;
    A6 = (U+^T psi+ + U-^T psi-) / 2 is formed from the halves, where the
    two parities keep their exact zeros apart, and the nodal point forces
    are (psi+_p + psi-_p) / 2 at node p and eps (psi+_p - psi-_p) / 2 at
    N-1-p, turned back by W_i and rotated back by Q; an orthogonal change
    of frame leaves A6 as it is. `blocks` lists the orders of the factored
    blocks, none on the PCG path, and `solver` records the path
    ("cholesky" or "toeplitz-pcg"), PCG's iterations and largest final
    relative column residual, the widths of its even and odd blocks (the
    ranks of U+ and U-), the iteration at which each of the two stopped
    (None for one still running at the cap), and the reason for a fallback
    from PCG to the two blocks.

    `min_separation` is the smallest distance between two distinct nodes,
    found by the assembly; on the panel-periodic paths it covers the pairs
    of T', every node pair up to the screw.
    """
    n = body.n_nodes
    U = _rigid_motions(body)
    sym = _panel_symmetry(body)
    solver = {"path": "cholesky", "iterations": 0, "residual": None, "fallback": None,
              "widths": None, "parity_iterations": None}
    if sym is None:
        packed, sep = assemble_system(body, params)
        parts, X = [U], [_solve(packed, U)]
        blocks = (3 * n,)
    else:
        Q, nodes, panels = sym
        parts, X = _halves(Q.T @ U, panels), None
        pcg = body.closed or n >= _TOEPLITZ_MIN_NODES
        if pcg:   # before the kernel, whose arrays it counts
            require_memory(0, "mobility.resistance_set", _toeplitz_doubles(n, panels.k))
        T, sep = _panel_green(nodes, panels.k, panels.W, params)
        if pcg:
            X, solver = _toeplitz_pcg(T, panels, parts, body.closed)
            blocks = ()
        if X is None:   # an open body below N_x, or PCG at its cap
            try:
                X = _two_blocks(T, panels, parts)
            except ConfigError as exc:   # the memory guard
                if solver["fallback"] is None:
                    raise
                raise SolverError(f"mobility: {solver['fallback']}, and the dense "
                                  f"fallback does not fit: {exc}") from exc
            blocks = (3 * n // 2,) * 2
    with np.errstate(over="ignore", invalid="ignore"):   # an overflowed solve, refused below
        A6 = sum(B.reshape(-1, 6).T @ x.reshape(-1, 6) for B, x in zip(parts, X)) / len(parts)
    if not np.isfinite(A6).all():
        raise SolverError("mobility.resistance_set: the grand matrix is not finite; "
                          "the solve overflowed")
    psi = X[0] if sym is None else Q @ _unfold(*X, panels)
    densities = psi / body.weights[:, None, None]

    scaled = A6 / (np.abs(A6).max() or 1.0)   # |A6|^2 may overflow
    norm = np.linalg.norm(scaled)
    asym = float(np.linalg.norm(scaled - scaled.T) / norm) if norm > 0 else 0.0
    if asym > _ASYMMETRY_TOL:
        raise ConvergenceError(
            f"mobility.resistance_set: grand matrix asymmetry {asym:.3e} exceeds "
            f"{_ASYMMETRY_TOL:.1e}; the solve of G psi = U is inaccurate")
    A6 = 0.5 * (A6 + A6.T)
    return ResistanceSet(k_tt=A6[:3, :3], k_tr=A6[:3, 3:], k_rt=A6[3:, :3],
                         k_rr=A6[3:, 3:], grand=A6, densities=densities,
                         blocks=blocks, solver=solver, asymmetry=asym,
                         min_separation=sep,
                         ell=params.ell,
                         mu=params.mu, n_nodes=n, shape_hash=body.shape_hash())
