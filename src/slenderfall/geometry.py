"""One-dimensional rigid bodies: curve shapes, quadrature, mass properties.

Bodies are curves in R^3 (rod, ring, helix, or polyline). They are
discretized with composite Gauss-Legendre panels; the same nodes carry both
the hydrodynamic collocation and the mass quadrature. All node coordinates
live in the co-moving frame, centered at the (mass-weighted) center of mass.
"""

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError

_KINDS = ("rod", "ring", "helix", "polyline")
# node pairs per row strip of pair_strips; bounds the pairwise temporaries
_STRIP_PAIRS = 1 << 13


@dataclass(frozen=True)
class CurveSpec:
    """Shape description of a one-dimensional rigid body.

    The optional ``density`` is a linear mass density profile rho(s), with s
    the arc length measured from the start of the curve; ``None`` means
    uniform density 1.
    """

    kind: str
    length: float = 0.0                      # rod
    radius: float = 0.0                      # ring, helix
    pitch: float = 0.0                       # helix
    turns: float = 0.0                       # helix
    vertices: Optional[np.ndarray] = None    # polyline, (V,3)
    closed: bool = False
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GeometryError(f"geometry.CurveSpec: unknown kind {self.kind!r}")
        if not np.all(np.isfinite([self.length, self.radius, self.pitch, self.turns])):
            raise GeometryError("geometry.CurveSpec: dimensions must be finite")
        if self.kind == "rod" and self.length <= 0:
            raise GeometryError("geometry.CurveSpec: rod length must be positive")
        if self.kind == "ring" and self.radius <= 0:
            raise GeometryError("geometry.CurveSpec: ring radius must be positive")
        if self.kind == "helix":
            if self.radius <= 0 or self.turns <= 0 or self.pitch < 0:
                raise GeometryError("geometry.CurveSpec: helix needs radius > 0, "
                                    "turns > 0, pitch >= 0")
        if self.kind == "polyline":
            v = np.asarray(self.vertices, dtype=float)
            if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 2:
                raise GeometryError("geometry.CurveSpec: polyline needs a (V,3) "
                                    "vertex array with V >= 2")
            if not np.all(np.isfinite(v)):
                raise GeometryError("geometry.CurveSpec: polyline vertices must be finite")
            object.__setattr__(self, "vertices", v)
            seg = np.diff(v, axis=0)
            if np.any(np.linalg.norm(seg, axis=1) == 0):
                raise GeometryError("geometry.CurveSpec: zero-length polyline segment")
            _check_polyline_injective(v, self.closed)

    def __eq__(self, other):
        """Field by field, the polyline vertices by value: the generated
        equality compares them with ==, an array whose truth is ambiguous."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   if f.name == "vertices" else getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(self))

    @functools.cached_property
    def segments(self):
        """Piecewise-constant-speed parametrization, one entry per C^1 arc.

        A tuple of (point(t), speed) with t in [0,1] per segment, built on
        first use and kept on the spec. All built-in shapes have constant
        parametric speed, which makes arc length linear in t on each
        segment.
        """
        if self.kind == "rod":
            L = self.length
            return ((lambda t: np.stack([L * (t - 0.5), 0 * t, 0 * t], axis=-1), L),)
        if self.kind == "ring":
            R = self.radius

            def ring(t):
                th = 2 * np.pi * t
                return np.stack([R * np.cos(th), R * np.sin(th), 0 * t], axis=-1)

            return ((ring, 2 * np.pi * R),)
        if self.kind == "helix":
            R, p, n = self.radius, self.pitch, self.turns
            a = 2 * np.pi * R
            # hypot only where a^2 or p^2 would overflow: it may round the
            # last bit differently from the square root
            speed = math.hypot(a, p) if max(a, p) > 1e150 else np.sqrt(a ** 2 + p ** 2)

            def helix(t):
                th = 2 * np.pi * n * t
                return np.stack([R * np.cos(th), R * np.sin(th), p * n * t], axis=-1)

            return ((helix, n * speed),)
        # polyline: one segment per edge
        verts = self.vertices
        if self.closed:
            verts = np.vstack([verts, verts[:1]])
        segs = []
        for a, b in zip(verts[:-1], verts[1:]):
            a, b = a.copy(), b.copy()
            segs.append((lambda t, a=a, b=b: a + np.multiply.outer(t, b - a),
                         float(np.linalg.norm(b - a))))
        return tuple(segs)

    @property
    def is_closed(self):
        return self.kind == "ring" or (self.kind == "polyline" and self.closed)

    @functools.cached_property
    def symmetry(self):
        """The curve's reversal and screw (Symmetry) in closed form, the
        whole curve as one panel, or None. A rod or a one-edge polyline:
        x -> -x along its line about its middle, no turn. A ring: y -> -y,
        a turn of 2 pi about z. A helix: the half turn about its radial
        axis at t = 1/2, at angle pi turns, and a turn of 2 pi turns about
        z. Every other polyline has none."""
        if self.kind == "ring":
            return Symmetry(np.zeros(3), np.eye(3), np.array([1.0, -1.0, 1.0]), 2 * np.pi)
        if self.kind == "helix":
            a = np.pi * self.turns
            Q = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0],
                          [0.0, 0.0, 1.0]])
            return Symmetry(np.array([0.0, 0.0, 0.5 * self.pitch * self.turns]), Q,
                            np.array([1.0, -1.0, -1.0]), 2 * a)
        if len(self.segments) > 1:
            return None
        point, _ = self.segments[0]
        a, b = point(0.0), point(1.0)
        Q = np.linalg.qr((b - a)[:, None], mode="complete")[0]   # Q e_1 = +-(b - a) / |b - a|
        return Symmetry(0.5 * (a + b), Q, np.array([-1.0, 1.0, 1.0]), 0.0)


@dataclass(frozen=True)
class Symmetry:
    """The reversal and the screw of a discretized curve, in closed form.
    The reversal x -> c + R (x - c), R = Q diag(eps) Q^T, Q orthogonal and
    eps signs, maps node p onto node N-1-p; the screw that maps each panel
    onto the next turns by `angle` about Q's third axis (the panel frames
    of mobility.resistance_set)."""

    c: np.ndarray            # (3,) a fixed point of the reversal
    Q: np.ndarray            # (3,3) the eigenframe of R
    eps: np.ndarray          # (3,) the eigenvalues of R, +-1
    angle: float             # the screw's turn per panel


@dataclass(frozen=True)
class DiscreteBody:
    """Quadrature discretization of a curve, centered at the center of mass."""

    nodes: np.ndarray        # (N,3)
    weights: np.ndarray      # (N,) arc length weights
    arclength: np.ndarray    # (N,) arc length coordinate of each node
    density: np.ndarray      # (N,) rho(s) at each node
    panels: int
    order: int
    length: float            # total discrete arc length, sum of weights
    closed: bool = False     # the curve is a loop (ring, closed polyline)
    symmetry: Optional[Symmetry] = None   # the curve's, for these nodes

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def shape_hash(self):
        import hashlib
        h = hashlib.sha1()
        h.update(np.ascontiguousarray(self.nodes).tobytes())
        h.update(np.ascontiguousarray(self.weights).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class MassProperties:
    """Mass, effective/complementary masses, centroid offset, inertia tensor."""

    m: float
    m_c: float
    m_e: float
    r: np.ndarray            # (3,) uniform-measure centroid offset
    inertia: np.ndarray      # (3,3) symmetric PSD, about the center of mass


def _check_polyline_injective(verts, closed):
    """Reject self-intersecting polylines (non-adjacent segment contact)."""
    v = np.vstack([verts, verts[:1]]) if closed else verts
    n = v.shape[0] - 1
    scale = max(np.ptp(v, axis=0).max(), 1e-30)
    v = v.tolist()
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = (j == i + 1) or (closed and i == 0 and j == n - 1)
            if adjacent:
                continue
            if _segment_distance(v[i], v[i + 1], v[j], v[j + 1]) < 1e-9 * scale:
                raise GeometryError(
                    f"geometry: polyline self-intersects (segments {i} and {j})")


def _segment_distance(p1, p2, q1, q2):
    """Minimum distance between segments [p1,p2] and [q1,q2], given as
    triples of Python floats: a few scalar products per pair, where numpy's
    per-call cost would be most of the time."""
    (p1x, p1y, p1z), (p2x, p2y, p2z) = p1, p2
    (q1x, q1y, q1z), (q2x, q2y, q2z) = q1, q2
    d1x, d1y, d1z = p2x - p1x, p2y - p1y, p2z - p1z
    d2x, d2y, d2z = q2x - q1x, q2y - q1y, q2z - q1z
    rx, ry, rz = p1x - q1x, p1y - q1y, p1z - q1z
    a = d1x * d1x + d1y * d1y + d1z * d1z
    e = d2x * d2x + d2y * d2y + d2z * d2z
    f = d2x * rx + d2y * ry + d2z * rz
    b = d1x * d2x + d1y * d2y + d1z * d2z
    c = d1x * rx + d1y * ry + d1z * rz
    den = a * e - b * b
    s = min(max((b * f - c * e) / den, 0.0), 1.0) if den > 1e-14 * a * e else 0.0
    t = (b * s + f) / e if e > 0 else 0.0
    if t < 0.0 or t > 1.0:
        t = min(max(t, 0.0), 1.0)
        s = min(max((b * t - c) / a, 0.0), 1.0) if a > 0 else 0.0
    return math.hypot(rx + s * d1x - t * d2x, ry + s * d1y - t * d2y,
                      rz + s * d1z - t * d2z)


def panel_counts(lengths, panels):
    """Panels per segment of the given lengths: all of them on a single
    segment; over several, in proportion to length, at least one each.
    Raises GeometryError unless the total length is positive and finite."""
    total = np.sum(lengths)
    if not 0 < total < np.inf:
        raise GeometryError("geometry.panel_counts: curve length must be "
                            "positive and finite")
    if len(lengths) == 1:
        return [panels]
    return [max(1, round(panels * L / total)) for L in lengths]


@functools.lru_cache(maxsize=None)   # orders 2..16
def _gauss_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and shared read-only."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def discretize(spec, panels, order):
    """Composite Gauss-Legendre discretization of a curve.

    ``panels`` is the total panel count; for polylines the panels are
    distributed over the edges proportionally to edge length, at least one
    per edge and never straddling a vertex. Nodes are re-centered so that
    the discrete mass-weighted mean position is zero, and the curve's
    symmetry (CurveSpec.symmetry) is moved with them and given per panel.
    """
    if panels < 1:
        raise GeometryError("geometry.discretize: panels must be >= 1")
    if not (2 <= order <= 16):
        raise GeometryError("geometry.discretize: order must be in 2..16")
    segs = spec.segments
    counts = panel_counts([L for _, L in segs], panels)
    xg, wg = _gauss_rule(order)
    nodes, weights, arcs = [], [], []
    s0 = 0.0
    for (curve, L), npan in zip(segs, counts):
        edges = np.linspace(0.0, 1.0, npan + 1)
        lo, hi = edges[:-1, None], edges[1:, None]      # one row per panel
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = (mid + half * xg).ravel()
        nodes.append(curve(t))
        weights.append((half * wg * L).ravel())
        arcs.append(s0 + t * L)       # constant speed on every segment
        s0 += L
    x = np.vstack(nodes)
    w = np.concatenate(weights)
    s = np.concatenate(arcs)

    rho = np.ones_like(s) if spec.density is None else np.asarray(spec.density(s), float)
    if not np.all(rho > 0):
        raise GeometryError("geometry.discretize: density profile must be positive")

    mass_w = w * rho
    sym, P = spec.symmetry, int(np.sum(counts))
    with np.errstate(over="ignore", invalid="ignore"):
        shift = (mass_w[:, None] * x).sum(axis=0) / mass_w.sum()
        x = x - shift
        if sym is not None:
            sym = replace(sym, c=sym.c - shift, angle=sym.angle / P)
    if not np.all(np.isfinite(x)):
        raise GeometryError("geometry.discretize: node coordinates overflow when "
                            "centered at the center of mass")
    return DiscreteBody(nodes=x, weights=w, arclength=s, density=rho,
                        panels=P, order=order, length=float(w.sum()),
                        closed=spec.is_closed, symmetry=sym)


def mass_properties(body, m_c=0.0):
    """Mass, centroid offset and inertia tensor of a discretized body.

    The centroid offset r uses the uniform arc-length measure regardless of
    the density profile; the inertia tensor is mass-weighted and taken about
    the center of mass (the origin of the body frame).
    """
    if m_c < 0:
        raise GeometryError("geometry.mass_properties: m_c must be >= 0")
    w, rho, x = body.weights, body.density, body.nodes
    m = float((w * rho).sum())
    r = (w[:, None] * x).sum(axis=0) / body.length
    wr = w * rho
    sq = (x * x).sum(axis=1)
    J = np.einsum("q,ij->ij", wr * sq, np.eye(3)) - np.einsum("q,qi,qj->ij", wr, x, x)
    J = 0.5 * J + 0.5 * J.T   # J + J.T may overflow
    return MassProperties(m=m, m_c=float(m_c), m_e=m - float(m_c), r=r, inertia=J)


def _strip_rows(cols):
    """Rows of a strip whose rows meet `cols` columns: about _STRIP_PAIRS
    pairs, at least one row."""
    return max(1, _STRIP_PAIRS // cols)


def pair_strips(x):
    """Node differences over the upper triangle, one row strip at a time.

    Yields (p0, p1, d, r2) for consecutive strips of rows p0 <= p < p1
    against the columns q >= p0, with d[a][i, j] = x[p0 + i, a] - x[p0 + j, a]
    and r2 = d[0]^2 + d[1]^2 + d[2]^2. Entry (i, i) is the pair (p, p), so
    the strip's own square block d[a][:, :p1 - p0] is complete. Each strip
    holds about _STRIP_PAIRS pairs, at most max(_STRIP_PAIRS, N): the rows
    grow as the columns shrink, so every strip but the last costs the same
    per numpy call.
    """
    n = x.shape[0]
    p0 = 0
    while p0 < n:
        p1 = min(p0 + _strip_rows(n - p0), n)
        d = [x[p0:p1, None, a] - x[None, p0:, a] for a in range(3)]
        r2 = d[0] * d[0]
        r2 += d[1] * d[1]
        r2 += d[2] * d[2]
        yield p0, p1, d, r2
        p0 = p1


@dataclass(frozen=True)
class GeometryDiagnostics:
    min_separation: float
    separation_over_thickness: float
    straightness: float      # max node distance from best-fit line / length
    closed: bool
    warnings: tuple = field(default=())


def validate_geometry(body, ell, min_separation):
    """Diagnostic report on a discretization relative to the thickness ell.

    `min_separation` is the smallest distance between two distinct nodes;
    the assembly of the Green matrix finds it on its one pass over the node
    pairs (mobility.ResistanceSet.min_separation), and refuses a zero one.
    The checks made here are O(N).
    """
    x = body.nodes
    min_sep = float(min_separation)

    # straightness: residual from the principal axis through the centroid
    xc = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    axis = vt[0]
    resid = np.linalg.norm(xc - np.outer(xc @ axis, axis), axis=1)
    straightness = float(resid.max() / body.length)

    warnings = []
    if min_sep < ell / 10.0:
        warnings.append(f"minimum node separation {min_sep:.3e} is below "
                        f"ell/10 = {ell / 10.0:.3e}; quadrature accuracy degrades")
    return GeometryDiagnostics(min_separation=min_sep,
                               separation_over_thickness=min_sep / ell,
                               straightness=straightness, closed=body.closed,
                               warnings=tuple(warnings))


def load_polyline_csv(path, closed=False, density=None):
    """Read a polyline CurveSpec from a CSV of x,y,z vertex rows."""
    verts = np.loadtxt(path, delimiter=",", ndmin=2)
    if verts.shape[1] != 3:
        raise GeometryError(f"geometry: polyline CSV {path} must have 3 columns")
    return CurveSpec(kind="polyline", vertices=verts, closed=closed, density=density)
