"""Quasi-steady sedimentation dynamics in the co-moving frame.

Rigid-body inertia evolves in time while the hydrodynamic loads come from
the steady resistance relation (quasi-steady closure). The state is
(xi, omega, G, Q, c): body-frame velocity and spin, gravity direction seen
from the body, orientation matrix, and inertial-frame position. With the
time/length scaling used throughout, the kinematic equations carry the
Reynolds number as a prefactor:

    m  dxi/dt    = m_e G + f - Re m (omega x xi)
    J  domega/dt = -m_c (r x G) + t - Re (omega x J omega)
    dG/dt = Re (G x omega),  dQ/dt = Re Q [omega x],  dc/dt = Re Q xi.

At Re = 0 only (xi, omega) evolve; G, Q, c are frozen.

(xi, omega, G) is a closed system: Q and c never feed back into it. The RK4
loop steps only those 9 floats. The constants of the quasi-steady closure
(the grand resistance matrix, J and its restricted inverse, the masses, r
and Re) are read once per integration into Python floats, and each stage's
derivative is written out inside the loop, cross products included:
numpy's per-call overhead on 3-vectors costs far more than the arithmetic.
After every step G is renormalized; the steady check at samples compares
floats too.

The loop records each stage's (xi, omega). Every _BATCH steps, and at the
end, numpy rebuilds Q and c from the records with the same RK4 formulas
(``_rebuild``): RK4 is linear in Q, so a step multiplies Q by a matrix
built from the stage spins. Q is then replaced by its orthogonal polar
factor, computed by Newton's iteration with the cofactor matrix (no SVD),
at each sample and at each batch end, not after every step. ``rhs`` is the
21-float reference derivative.

Each sample is one row of a float64 array allocated before the first step,
in trajectory.csv's column order (``COLUMNS``): the loop writes t, xi, omega
and G, and each rebuild writes c and Q.

``max_stable_dt`` gives the largest step RK4 keeps stable under the linear
drag, 2.785 / lambda_max with lambda_max the largest decay rate of
(xi, omega); the command line refuses a larger dt before the first step.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InstabilityError, MassModelError

_BLOWUP_NORM = 1e12
_POLAR_TOL = 1e-8          # largest entry of a polar update at convergence
_POLAR_MAX_ITER = 8
_RK4_REAL_STABILITY = 2.785293563405282   # RK4 is stable on [-2.785..., 0]
_INERTIA_NULL_RTOL = 1e-12   # eigenvalues of J below this share of its largest are null
_BATCH = 256                 # RK4 steps between rebuilds of Q and c

# the columns of a trajectory sample, as trajectory.csv writes them
COLUMNS = ("t", "xi1", "xi2", "xi3", "omega1", "omega2", "omega3",
           "G1", "G2", "G3", "c1", "c2", "c3",
           "Q11", "Q12", "Q13", "Q21", "Q22", "Q23", "Q31", "Q32", "Q33")


@dataclass(frozen=True)
class FallState:
    t: float
    xi: np.ndarray       # (3,) center-of-mass velocity, body frame
    omega: np.ndarray    # (3,) spin, body frame
    G: np.ndarray        # (3,) gravity direction, body frame, unit
    Q: np.ndarray        # (3,3) orientation (body -> inertial)
    c: np.ndarray        # (3,) center-of-mass position, inertial frame

    @staticmethod
    def from_rest(g_direction=(0.0, 0.0, 1.0)):
        """Release from rest: xi = omega = 0, Q = I, G = g."""
        g = np.asarray(g_direction, dtype=float)
        g = g / np.abs(g).max()   # its norm may overflow
        g = g / np.linalg.norm(g)
        return FallState(t=0.0, xi=np.zeros(3), omega=np.zeros(3), G=g,
                         Q=np.eye(3), c=np.zeros(3))


@dataclass(frozen=True)
class DynamicsParams:
    re: float = 0.0
    dt: float = 1e-3
    t_end: float = 1.0
    steady_tol: float = 1e-6
    stride: int = 1

    def __post_init__(self):
        for name in ("re", "dt", "t_end", "steady_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"dynamics.DynamicsParams: {name} must be finite")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dynamics.DynamicsParams: dt and t_end must be positive")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("dynamics.DynamicsParams: t_end / dt, the step "
                             "count, must be finite")
        if self.re < 0:
            raise ValueError("dynamics.DynamicsParams: Re must be >= 0")
        if self.stride < 1:
            raise ValueError("dynamics.DynamicsParams: stride must be >= 1")


def _inertia_pinv(mass_props, resistance):
    """Restricted inverse of J; null directions must be torque-free.

    A straight body has J (and K_rr) singular along its axis; that direction
    carries zero angular acceleration. A null direction of J that does carry
    hydrodynamic torque has no consistent dynamics and raises.
    """
    J = mass_props.inertia
    evals, evecs = np.linalg.eigh(J)
    scale = max(evals.max(), np.finfo(float).tiny)
    null = evals < _INERTIA_NULL_RTOL * scale
    if np.any(null):
        # K_rr scaled by its largest entry, as |K_rr|^2 may overflow; the
        # test is scale-invariant
        Krr = resistance.k_rr / (np.abs(resistance.k_rr).max() or 1.0)
        for v in evecs.T[null]:
            if np.linalg.norm(Krr @ v) > 1e-8 * np.linalg.norm(Krr):
                raise MassModelError(
                    "dynamics: inertia tensor singular in a direction that "
                    "carries hydrodynamic torque")
    inv = np.where(null, 0.0, 1.0 / np.where(null, 1.0, evals))
    return (evecs * inv) @ evecs.T


def _constants(resistance, mass_props, re):
    """The constants of the quasi-steady closure as Python floats: the grand
    resistance matrix, J and J's restricted inverse as nested lists, then r,
    m, m_e, m_c and Re. Raises MassModelError when J is singular in a
    torque-carrying direction.
    """
    return (resistance.grand.tolist(),
            np.asarray(mass_props.inertia, dtype=float).tolist(),
            _inertia_pinv(mass_props, resistance).tolist(),
            np.asarray(mass_props.r, dtype=float).tolist(),
            float(mass_props.m), float(mass_props.m_e), float(mass_props.m_c),
            float(re))


def rhs(state, resistance, mass_props, re):
    """Time derivative of the packed state under the quasi-steady closure,
    21 floats: the reference derivative.

    The (xi, omega, G) entries are the float arithmetic that ``integrate``
    writes out in its stage loop, term for term, so the two agree bit for
    bit.
    """
    ((a11, a12, a13, a14, a15, a16), (a21, a22, a23, a24, a25, a26),
     (a31, a32, a33, a34, a35, a36), (a41, a42, a43, a44, a45, a46),
     (a51, a52, a53, a54, a55, a56), (a61, a62, a63, a64, a65, a66)), \
        ((b11, b12, b13), (b21, b22, b23), (b31, b32, b33)), \
        ((p11, p12, p13), (p21, p22, p23), (p31, p32, p33)), \
        (r1, r2, r3), m, m_e, m_c, re = _constants(resistance, mass_props, re)
    re_m = re * m
    x1, x2, x3 = state.xi.tolist()
    w1, w2, w3 = state.omega.tolist()
    g1, g2, g3 = state.G.tolist()

    # hydrodynamic loads: (f, t) = -grand (xi, omega)
    f1 = -(a11 * x1 + a12 * x2 + a13 * x3 + a14 * w1 + a15 * w2 + a16 * w3)
    f2 = -(a21 * x1 + a22 * x2 + a23 * x3 + a24 * w1 + a25 * w2 + a26 * w3)
    f3 = -(a31 * x1 + a32 * x2 + a33 * x3 + a34 * w1 + a35 * w2 + a36 * w3)
    t1 = -(a41 * x1 + a42 * x2 + a43 * x3 + a44 * w1 + a45 * w2 + a46 * w3)
    t2 = -(a51 * x1 + a52 * x2 + a53 * x3 + a54 * w1 + a55 * w2 + a56 * w3)
    t3 = -(a61 * x1 + a62 * x2 + a63 * x3 + a64 * w1 + a65 * w2 + a66 * w3)
    # J domega/dt = -m_c (r x G) + t - Re (omega x J omega)
    j1 = b11 * w1 + b12 * w2 + b13 * w3
    j2 = b21 * w1 + b22 * w2 + b23 * w3
    j3 = b31 * w1 + b32 * w2 + b33 * w3
    u1 = -m_c * (r2 * g3 - r3 * g2) + t1 - re * (w2 * j3 - w3 * j2)
    u2 = -m_c * (r3 * g1 - r1 * g3) + t2 - re * (w3 * j1 - w1 * j3)
    u3 = -m_c * (r1 * g2 - r2 * g1) + t3 - re * (w1 * j2 - w2 * j1)
    Q = np.asarray(state.Q, dtype=float)
    return np.array([
        # m dxi/dt = m_e G + f - Re m (omega x xi)
        (m_e * g1 + f1 - re_m * (w2 * x3 - w3 * x2)) / m,
        (m_e * g2 + f2 - re_m * (w3 * x1 - w1 * x3)) / m,
        (m_e * g3 + f3 - re_m * (w1 * x2 - w2 * x1)) / m,
        p11 * u1 + p12 * u2 + p13 * u3,
        p21 * u1 + p22 * u2 + p23 * u3,
        p31 * u1 + p32 * u2 + p33 * u3,
        # dG/dt = Re (G x omega)
        re * (g2 * w3 - g3 * w2), re * (g3 * w1 - g1 * w3), re * (g1 * w2 - g2 * w1),
        # dQ/dt = Re Q [omega x]: row i of Q [omega x] is q_i x omega
        *(re * np.cross(Q, state.omega)).ravel().tolist(),
        # dc/dt = Re Q xi
        *(re * (Q @ state.xi)).tolist()])


def max_stable_dt(resistance, mass_props):
    """Largest RK4 step that the linear drag leaves stable: 2.785 / lambda_max.

    lambda_max is the largest eigenvalue of diag(I / m, J^+) A6, the decay
    rates of (xi, omega) under the drag alone (real and >= 0, as for any
    product of two positive semidefinite matrices); J^+ is J's restricted
    inverse. RK4 damps a rate lambda only while dt lambda <= 2.785..., the
    real root of 1 + z/2 + z^2/6 + z^3/24, where its amplification factor
    1 + z + z^2/2 + z^3/6 + z^4/24 at z = -dt lambda returns to 1. Returns
    0 when the rates overflow and inf when none is positive.
    """
    scale = np.zeros((6, 6))
    scale[range(3), range(3)] = 1.0 / float(mass_props.m)
    scale[3:, 3:] = _inertia_pinv(mass_props, resistance)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = scale @ resistance.grand
    if not np.all(np.isfinite(rates)):
        return 0.0          # rates beyond the float range: no step is stable
    lam = float(np.abs(np.linalg.eigvals(rates)).max())
    return _RK4_REAL_STABILITY / lam if lam > 0 else math.inf


def _polar_factor(q, step):
    """Orthogonal polar factor of a 3x3 matrix given as 9 row-major floats.

    Newton's iteration X <- (X + cof(X) / det X) / 2 (Higham, SIAM J. Sci.
    Stat. Comput. 1986), with cof(X) = det(X) X^-T; the rows of cof(X) are
    cross products of the rows of X. It stops once no entry of an update
    exceeds _POLAR_TOL, which from a near-rotation takes one pass. det <= 0
    (no rotation is the polar factor) and no convergence within
    _POLAR_MAX_ITER passes raise InstabilityError.
    """
    for _ in range(_POLAR_MAX_ITER):
        a1, a2, a3, b1, b2, b3, c1, c2, c3 = q
        # row a of cof(X) is b x c; rows b and c are c x a and a x b
        d1, d2, d3 = b2 * c3 - b3 * c2, b3 * c1 - b1 * c3, b1 * c2 - b2 * c1
        det = a1 * d1 + a2 * d2 + a3 * d3
        if not det > 0.0:
            raise InstabilityError(
                f"dynamics: orientation matrix has det {det:.3e} <= 0 at step "
                f"{step}", step=step)
        s = 1.0 / det
        # update (cof(X) / det X - X) / 2, entry by entry
        e1, e2, e3 = 0.5 * (d1 * s - a1), 0.5 * (d2 * s - a2), 0.5 * (d3 * s - a3)
        e4 = 0.5 * ((c2 * a3 - c3 * a2) * s - b1)
        e5 = 0.5 * ((c3 * a1 - c1 * a3) * s - b2)
        e6 = 0.5 * ((c1 * a2 - c2 * a1) * s - b3)
        e7 = 0.5 * ((a2 * b3 - a3 * b2) * s - c1)
        e8 = 0.5 * ((a3 * b1 - a1 * b3) * s - c2)
        e9 = 0.5 * ((a1 * b2 - a2 * b1) * s - c3)
        q = [a1 + e1, a2 + e2, a3 + e3, b1 + e4, b2 + e5, b3 + e6,
             c1 + e7, c2 + e8, c3 + e9]
        if max(abs(e1), abs(e2), abs(e3), abs(e4), abs(e5), abs(e6),
               abs(e7), abs(e8), abs(e9)) <= _POLAR_TOL:
            return q
    raise InstabilityError(
        f"dynamics: polar iteration on the orientation matrix did not "
        f"converge in {_POLAR_MAX_ITER} passes at step {step}", step=step)


def _sample_state(row):
    """The FallState of a sample row, its arrays views of the row."""
    return FallState(t=float(row[0]), xi=row[1:4], omega=row[4:7], G=row[7:10],
                     Q=row[13:22].reshape(3, 3), c=row[10:13])


@dataclass
class Trajectory:
    """Sampled fall states plus metadata from the integration.

    ``samples`` holds one row a sample, in the order of ``COLUMNS``;
    iteration and ``final`` give the rows as FallStates. ``state_index`` and
    ``mismatch`` name the steady state nearest the last sample and its
    mismatch (None and inf when no steady states were given); the run
    halted steady when that mismatch is below ``steady_tol``.
    """

    samples: np.ndarray
    halted_steady: bool = False
    state_index: Optional[int] = None
    mismatch: float = math.inf
    frame_drift: float = 0.0   # largest |Q^T Q - I| before a projection

    def __iter__(self):
        return map(_sample_state, self.samples)

    def __len__(self):
        return len(self.samples)

    @property
    def final(self):
        return _sample_state(self.samples[-1])

    def to_csv(self, path):
        """Write the trajectory CSV (17 significant digits, header row), a
        row at a time, so that writing takes no memory per sample."""
        row = ",".join(["%.17g"] * len(COLUMNS)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            fh.writelines(row % tuple(r) for r in map(np.ndarray.tolist, self.samples))


def _target(steady, resistance, mass_props):
    """The comparison target (g, xi, omega) of a steady state, float
    triples, as a function of the current gravity direction G.

    Symmetric bodies report a whole eigenspace of steady orientations; the
    target is then the member whose g is the projection of G onto that
    eigenspace, with xi rebuilt from the resistance relation. A simple
    state is the same target for every G.
    """
    fixed = steady.g.tolist(), steady.xi.tolist(), steady.omega.tolist()
    if (steady.eigenbasis is None or steady.multiplicity < 2
            or resistance is None or mass_props is None):
        return lambda G: fixed
    P = np.asarray(steady.eigenbasis)

    def member(G):
        coef = P @ G
        if np.linalg.norm(coef) < 1e-12:
            return fixed
        g = coef @ P
        g = g / np.linalg.norm(g)
        xi = np.linalg.solve(resistance.k_tt,
                             mass_props.m_e * g - steady.lam * (resistance.k_tr @ g))
        return g.tolist(), xi.tolist(), (steady.lam * g).tolist()

    return member


def _state_mismatch(xi, omega, G, target):
    """max(|xi - xi*|, |omega - omega*|, angle(G, +-g*)), the smaller over
    the two signs of the target (g*, xi*, omega*); all float triples. The
    angle between the unit vectors is 2 atan2(|G - g*|, |G + g*|), which
    keeps its accuracy at 0, where the acos of their dot product reads one
    ulp below 1 as 1.5e-8."""
    x1, x2, x3 = xi
    w1, w2, w3 = omega
    g1, g2, g3 = G
    (h1, h2, h3), (y1, y2, y3), (o1, o2, o3) = target
    best = math.inf
    for sign in (1.0, -1.0):
        dxi = math.hypot(x1 - sign * y1, x2 - sign * y2, x3 - sign * y3)   # no overflow
        dom = math.hypot(w1 - sign * o1, w2 - sign * o2, w3 - sign * o3)
        ang = 2.0 * math.atan2(math.hypot(g1 - sign * h1, g2 - sign * h2, g3 - sign * h3),
                               math.hypot(g1 + sign * h1, g2 + sign * h2, g3 + sign * h3))
        best = min(best, max(dxi, dom, ang))
    return best


def _nearest_target(xi, omega, G, targets):
    """(mismatch, index) of the target nearest (xi, omega, G), the first of
    equals; (inf, None) without targets."""
    return min(((_state_mismatch(xi, omega, G, target(G)), i)
                for i, target in enumerate(targets)), default=(math.inf, None))


def _rebuild(Q, c, record, h, re):
    """Q and c after each of n RK4 steps from (Q, c), unprojected.

    ``record`` holds the stage (xi, omega) of each step, four stages of six
    floats a step, flat. RK4 on dQ/dt = Re Q [omega x] is linear in Q: a
    step maps Q to Q M with M = I + h/6 (B1 + 2 B2 + 2 B3 + B4), where
    B1 = Re [omega_1 x], B2 = P1 Re [omega_2 x], B3 = P2 Re [omega_3 x] and
    B4 = P3 Re [omega_4 x], with the stage factors P1 = I + h/2 B1,
    P2 = I + h/2 B2 and P3 = I + h B3. Likewise c gains Q v, with
    v = Re h/6 (xi_1 + 2 P1 xi_2 + 2 P2 xi_3 + P3 xi_4). The prefix products
    of the M are formed by doubling, log2(n) rounds of batched 3 x 3
    products, each as I + E so that the low bits of the small E are kept.
    """
    z = np.fromiter(record, float, len(record)).reshape(-1, 4, 6).transpose(1, 0, 2)
    xi, w = z[..., :3, None], re * z[..., 3:]     # stage-major: (4, n, ...)
    A = np.zeros(w.shape[:2] + (3, 3))            # Re [omega x] of every stage
    A[..., 0, 1], A[..., 0, 2], A[..., 1, 2] = -w[..., 2], w[..., 1], -w[..., 0]
    A[..., 1, 0], A[..., 2, 0], A[..., 2, 1] = w[..., 2], -w[..., 1], w[..., 0]
    B, P = [A[0]], []
    for i, a in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
        P.append(a * B[-1])          # P_i - I
        B.append(A[i] + P[-1] @ A[i])
    E = (h / 6) * (B[0] + 2.0 * B[1] + 2.0 * B[2] + B[3])
    v = ((re * h / 6) * (xi[0] + 2.0 * (xi[1] + P[0] @ xi[1])
                         + 2.0 * (xi[2] + P[1] @ xi[2])
                         + (xi[3] + P[2] @ xi[3])))[..., 0]
    n, k = len(E), 1
    while k < n:
        # (I + E_before)(I + E) for windows that end k steps apart
        E[k:] = E[:-k] + E[k:] + E[:-k] @ E[k:]
        k *= 2
    Qs = Q + Q @ E
    dc = np.concatenate([(Q @ v[0])[None], (Qs[:-1] @ v[1:, :, None])[..., 0]])
    # c grows by one step at a time, as the 21-float RK4 adds it
    cs = np.cumsum(np.concatenate([c[None], dc]), axis=0)[1:]
    return Qs, cs


def _flush(Q, c, record, steps, rows, base, step, h, re):
    """Rebuild Q and c over steps base + 1 .. step and project them.

    ``steps`` are the steps sampled in that span and ``rows`` their sample
    rows, whose c and Q columns are written here. Returns the projected Q
    and the c at ``step``, and the largest |Q^T Q - I| of the rebuilt Q
    before its projections.
    """
    Qs, cs = _rebuild(Q, c, record, h, re)
    at = [s - base - 1 for s in steps] + [step - base - 1]
    drift = np.linalg.norm(Qs[at].transpose(0, 2, 1) @ Qs[at] - np.eye(3), axis=(1, 2))
    for row, s, i in zip(rows, steps, at):
        row[13:] = _polar_factor(Qs[i].ravel().tolist(), s)
    rows[:, 10:13] = cs[at[:-1]]
    Q = np.array(_polar_factor(Qs[-1].ravel().tolist(), step)).reshape(3, 3)
    return Q, cs[-1], float(drift.max())


def integrate(state0, resistance, mass_props, params, steady_states=None):
    """Classical fixed-step 4th-order integration of the fall equations.

    The loop steps only (xi, omega, G), renormalizing G after every step,
    and records each stage's (xi, omega). Every _BATCH steps, and at the
    end, Q and c are rebuilt from the records (``_rebuild``) and Q is
    replaced by its polar factor at each sample and at the batch end. An
    (xi, omega, G) whose norm is not finite or exceeds _BLOWUP_NORM, or a Q
    that is not near a rotation, raises InstabilityError naming the step. Sampling happens every
    ``params.stride`` steps and at the last step, into rows of one array of
    n_steps // stride + 2 rows allocated up front. At the start and at each
    sample the steady state nearest the current (xi, omega, G) is found
    among the supplied ones; integration halts early once its mismatch is
    below ``params.steady_tol``, and keeps a copy of the rows written.
    """
    t = state0.t
    row0 = np.concatenate([[t], state0.xi, state0.omega, state0.G, state0.c,
                           np.ravel(state0.Q)])
    targets = [_target(st, resistance, mass_props) for st in steady_states or ()]
    tol = params.steady_tol
    X1, X2, X3, W1, W2, W3, G1, G2, G3 = row0[1:10].tolist()
    mismatch, index = _nearest_target((X1, X2, X3), (W1, W2, W3), (G1, G2, G3), targets)
    halted = mismatch < tol
    if halted:
        return Trajectory(samples=row0[None], halted_steady=True, state_index=index,
                          mismatch=mismatch)
    n_steps = max(0, int(np.ceil((params.t_end - t) / params.dt - 1e-12)))
    samples = np.empty((n_steps // params.stride + 2, len(COLUMNS)))
    samples[0] = row0

    ((a11, a12, a13, a14, a15, a16), (a21, a22, a23, a24, a25, a26),
     (a31, a32, a33, a34, a35, a36), (a41, a42, a43, a44, a45, a46),
     (a51, a52, a53, a54, a55, a56), (a61, a62, a63, a64, a65, a66)), \
        ((b11, b12, b13), (b21, b22, b23), (b31, b32, b33)), \
        ((p11, p12, p13), (p21, p22, p23), (p31, p32, p33)), \
        (r1, r2, r3), m, m_e, m_c, re = _constants(resistance, mass_props, params.re)
    re_m = re * m
    h = params.dt
    h2, h6 = h / 2, h / 6
    # (weight of the stage's k in k1 + 2 k2 + 2 k3 + k4, c of the next stage)
    stages = ((1.0, h2), (2.0, h2), (2.0, h), (1.0, None))
    Q, c = samples[0, 13:].reshape(3, 3), samples[0, 10:13]
    record, steps = [], []
    k, base, drift = 1, 0, 0.0      # k: the rows written
    flush_at = min(_BATCH, n_steps)
    for step in range(1, n_steps + 1):
        # stage 1 is the state itself; -0.0 + k is k, even for k = -0.0
        x1, x2, x3, w1, w2, w3, g1, g2, g3 = X1, X2, X3, W1, W2, W3, G1, G2, G3
        s1 = s2 = s3 = s4 = s5 = s6 = s7 = s8 = s9 = -0.0
        for weight, c_next in stages:
            record.extend((x1, x2, x3, w1, w2, w3))
            # hydrodynamic loads: (f, t) = -grand (xi, omega)
            f1 = -(a11 * x1 + a12 * x2 + a13 * x3 + a14 * w1 + a15 * w2 + a16 * w3)
            f2 = -(a21 * x1 + a22 * x2 + a23 * x3 + a24 * w1 + a25 * w2 + a26 * w3)
            f3 = -(a31 * x1 + a32 * x2 + a33 * x3 + a34 * w1 + a35 * w2 + a36 * w3)
            t1 = -(a41 * x1 + a42 * x2 + a43 * x3 + a44 * w1 + a45 * w2 + a46 * w3)
            t2 = -(a51 * x1 + a52 * x2 + a53 * x3 + a54 * w1 + a55 * w2 + a56 * w3)
            t3 = -(a61 * x1 + a62 * x2 + a63 * x3 + a64 * w1 + a65 * w2 + a66 * w3)
            # m dxi/dt = m_e G + f - Re m (omega x xi)
            k1 = (m_e * g1 + f1 - re_m * (w2 * x3 - w3 * x2)) / m
            k2 = (m_e * g2 + f2 - re_m * (w3 * x1 - w1 * x3)) / m
            k3 = (m_e * g3 + f3 - re_m * (w1 * x2 - w2 * x1)) / m
            # J domega/dt = -m_c (r x G) + t - Re (omega x J omega)
            j1 = b11 * w1 + b12 * w2 + b13 * w3
            j2 = b21 * w1 + b22 * w2 + b23 * w3
            j3 = b31 * w1 + b32 * w2 + b33 * w3
            u1 = -m_c * (r2 * g3 - r3 * g2) + t1 - re * (w2 * j3 - w3 * j2)
            u2 = -m_c * (r3 * g1 - r1 * g3) + t2 - re * (w3 * j1 - w1 * j3)
            u3 = -m_c * (r1 * g2 - r2 * g1) + t3 - re * (w1 * j2 - w2 * j1)
            k4 = p11 * u1 + p12 * u2 + p13 * u3
            k5 = p21 * u1 + p22 * u2 + p23 * u3
            k6 = p31 * u1 + p32 * u2 + p33 * u3
            # dG/dt = Re (G x omega)
            k7 = re * (g2 * w3 - g3 * w2)
            k8 = re * (g3 * w1 - g1 * w3)
            k9 = re * (g1 * w2 - g2 * w1)
            # k1 + 2 k2 + 2 k3 + k4, summed left to right
            s1 += weight * k1
            s2 += weight * k2
            s3 += weight * k3
            s4 += weight * k4
            s5 += weight * k5
            s6 += weight * k6
            s7 += weight * k7
            s8 += weight * k8
            s9 += weight * k9
            if c_next is None:
                break
            x1, x2, x3 = X1 + c_next * k1, X2 + c_next * k2, X3 + c_next * k3
            w1, w2, w3 = W1 + c_next * k4, W2 + c_next * k5, W3 + c_next * k6
            g1, g2, g3 = G1 + c_next * k7, G2 + c_next * k8, G3 + c_next * k9
        X1, X2, X3 = X1 + h6 * s1, X2 + h6 * s2, X3 + h6 * s3
        W1, W2, W3 = W1 + h6 * s4, W2 + h6 * s5, W3 + h6 * s6
        G1, G2, G3 = G1 + h6 * s7, G2 + h6 * s8, G3 + h6 * s9
        t += h
        # "not <=" also catches NaN and Inf, which the projection cannot take
        if not math.hypot(X1, X2, X3, W1, W2, W3, G1, G2, G3) <= _BLOWUP_NORM:
            raise InstabilityError(
                f"dynamics.integrate: state norm not finite or above "
                f"{_BLOWUP_NORM:.0e} at step {step}", step=step)
        n = math.hypot(G1, G2, G3)
        G1, G2, G3 = G1 / n, G2 / n, G3 / n
        if step % params.stride == 0 or step == n_steps:
            samples[k, :10] = t, X1, X2, X3, W1, W2, W3, G1, G2, G3
            k += 1
            steps.append(step)
            mismatch, index = _nearest_target((X1, X2, X3), (W1, W2, W3),
                                              (G1, G2, G3), targets)
            halted = mismatch < tol
        if step == flush_at or halted:
            Q, c, batch_drift = _flush(Q, c, record, steps, samples[k - len(steps):k],
                                       base, step, h, re)
            drift = max(drift, batch_drift)
            if halted:
                break
            record, steps = [], []
            base, flush_at = step, min(step + _BATCH, n_steps)
    # a run that halts keeps only the rows it wrote
    return Trajectory(samples=samples[:k].copy() if halted else samples[:k],
                      halted_steady=halted, state_index=index, mismatch=mismatch,
                      frame_drift=drift)
