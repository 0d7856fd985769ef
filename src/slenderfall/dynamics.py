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

The constants of the quasi-steady closure (the grand resistance matrix, J
and its restricted inverse, the masses, r and Re) are read once per
integration into Python floats, the local constants of one derivative
function. It forms each RK4 stage state y + c k itself and does the
3-vector arithmetic above with the cross products written out: numpy's
per-call overhead on 3-vectors costs far more than the arithmetic. The RK4
loop keeps the state as a list of 21 floats; arrays and FallState objects
are built only at samples, and the steady check there compares floats too.
After every step G is renormalized and Q is replaced by its orthogonal
polar factor, computed by Newton's iteration with the cofactor matrix (no
SVD).

``max_stable_dt`` gives the largest step RK4 keeps stable under the linear
drag, 2.785 / lambda_max with lambda_max the largest decay rate of
(xi, omega); the command line refuses a larger dt before the first step.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InstabilityError, MassModelError
from .freefall import residual

_BLOWUP_NORM = 1e12
_POLAR_TOL = 1e-8          # largest entry of a polar update at convergence
_POLAR_MAX_ITER = 8
_RK4_REAL_STABILITY = 2.785293563405282   # RK4 is stable on [-2.785..., 0]
_INERTIA_NULL_RTOL = 1e-12   # eigenvalues of J below this share of its largest are null


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

    def pack(self):
        return np.concatenate([self.xi, self.omega, self.G, self.Q.ravel(), self.c])

    @staticmethod
    def unpack(t, y):
        return FallState(t=t, xi=y[0:3], omega=y[3:6], G=y[6:9],
                         Q=y[9:18].reshape(3, 3), c=y[18:21])


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


def _derivative(resistance, mass_props, re):
    """The time derivative of the packed state, a function whose constants
    (those of the quasi-steady closure) are held as Python floats.

    ``deriv(y, k, c)`` is the derivative at the stage state y + c k (21
    floats each; c = 0 with k = y gives y itself, bit for bit), formed entry
    by entry; it returns 21 floats as a list. Raises MassModelError when J
    is singular in a torque-carrying direction.
    """
    ((a11, a12, a13, a14, a15, a16), (a21, a22, a23, a24, a25, a26),
     (a31, a32, a33, a34, a35, a36), (a41, a42, a43, a44, a45, a46),
     (a51, a52, a53, a54, a55, a56), (a61, a62, a63, a64, a65, a66)) = \
        resistance.grand.tolist()
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = \
        np.asarray(mass_props.inertia, dtype=float).tolist()
    (p11, p12, p13), (p21, p22, p23), (p31, p32, p33) = \
        _inertia_pinv(mass_props, resistance).tolist()
    r1, r2, r3 = np.asarray(mass_props.r, dtype=float).tolist()
    m, m_e, m_c = float(mass_props.m), float(mass_props.m_e), float(mass_props.m_c)
    re = float(re)
    re_m = re * m

    def deriv(y, k, c):
        # the stage state; c (the inertial position) does not enter
        x1, x2, x3 = y[0] + c * k[0], y[1] + c * k[1], y[2] + c * k[2]
        w1, w2, w3 = y[3] + c * k[3], y[4] + c * k[4], y[5] + c * k[5]
        g1, g2, g3 = y[6] + c * k[6], y[7] + c * k[7], y[8] + c * k[8]
        q11, q12, q13 = y[9] + c * k[9], y[10] + c * k[10], y[11] + c * k[11]
        q21, q22, q23 = y[12] + c * k[12], y[13] + c * k[13], y[14] + c * k[14]
        q31, q32, q33 = y[15] + c * k[15], y[16] + c * k[16], y[17] + c * k[17]

        # hydrodynamic loads: (f, t) = -grand (xi, omega)
        f1 = -(a11 * x1 + a12 * x2 + a13 * x3 + a14 * w1 + a15 * w2 + a16 * w3)
        f2 = -(a21 * x1 + a22 * x2 + a23 * x3 + a24 * w1 + a25 * w2 + a26 * w3)
        f3 = -(a31 * x1 + a32 * x2 + a33 * x3 + a34 * w1 + a35 * w2 + a36 * w3)
        t1 = -(a41 * x1 + a42 * x2 + a43 * x3 + a44 * w1 + a45 * w2 + a46 * w3)
        t2 = -(a51 * x1 + a52 * x2 + a53 * x3 + a54 * w1 + a55 * w2 + a56 * w3)
        t3 = -(a61 * x1 + a62 * x2 + a63 * x3 + a64 * w1 + a65 * w2 + a66 * w3)

        # m dxi/dt = m_e G + f - Re m (omega x xi)
        dxi1 = (m_e * g1 + f1 - re_m * (w2 * x3 - w3 * x2)) / m
        dxi2 = (m_e * g2 + f2 - re_m * (w3 * x1 - w1 * x3)) / m
        dxi3 = (m_e * g3 + f3 - re_m * (w1 * x2 - w2 * x1)) / m

        # J domega/dt = -m_c (r x G) + t - Re (omega x J omega)
        j1 = b11 * w1 + b12 * w2 + b13 * w3
        j2 = b21 * w1 + b22 * w2 + b23 * w3
        j3 = b31 * w1 + b32 * w2 + b33 * w3
        u1 = -m_c * (r2 * g3 - r3 * g2) + t1 - re * (w2 * j3 - w3 * j2)
        u2 = -m_c * (r3 * g1 - r1 * g3) + t2 - re * (w3 * j1 - w1 * j3)
        u3 = -m_c * (r1 * g2 - r2 * g1) + t3 - re * (w1 * j2 - w2 * j1)

        return [dxi1, dxi2, dxi3,
                p11 * u1 + p12 * u2 + p13 * u3,
                p21 * u1 + p22 * u2 + p23 * u3,
                p31 * u1 + p32 * u2 + p33 * u3,
                # dG/dt = Re (G x omega)
                re * (g2 * w3 - g3 * w2), re * (g3 * w1 - g1 * w3),
                re * (g1 * w2 - g2 * w1),
                # dQ/dt = Re Q [omega x]: row i of Q [omega x] is q_i x omega
                re * (q12 * w3 - q13 * w2), re * (q13 * w1 - q11 * w3),
                re * (q11 * w2 - q12 * w1),
                re * (q22 * w3 - q23 * w2), re * (q23 * w1 - q21 * w3),
                re * (q21 * w2 - q22 * w1),
                re * (q32 * w3 - q33 * w2), re * (q33 * w1 - q31 * w3),
                re * (q31 * w2 - q32 * w1),
                # dc/dt = Re Q xi
                re * (q11 * x1 + q12 * x2 + q13 * x3),
                re * (q21 * x1 + q22 * x2 + q23 * x3),
                re * (q31 * x1 + q32 * x2 + q33 * x3)]

    return deriv


def rhs(state, resistance, mass_props, re):
    """Time derivative of the packed state under the quasi-steady closure.

    Evaluates the same float derivative that ``integrate`` steps with.
    """
    y = state.pack().tolist()
    return np.array(_derivative(resistance, mass_props, re)(y, y, 0.0))


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


def _project(y, step):
    """Renormalize G and replace Q by its polar factor, in place."""
    g1, g2, g3 = y[6:9]
    n = math.hypot(g1, g2, g3)
    y[6:9] = g1 / n, g2 / n, g3 / n
    y[9:18] = _polar_factor(y[9:18], step)


@dataclass
class Trajectory:
    """Sampled fall states plus metadata from the integration."""

    states: list
    halted_steady: bool = False
    steady_index: Optional[int] = None

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    @property
    def final(self):
        return self.states[-1]

    def to_csv(self, path):
        """Write the trajectory CSV (17 significant digits, header row)."""
        header = ["t",
                  "xi1", "xi2", "xi3", "omega1", "omega2", "omega3",
                  "G1", "G2", "G3", "c1", "c2", "c3",
                  "Q11", "Q12", "Q13", "Q21", "Q22", "Q23", "Q31", "Q32", "Q33"]
        row = ",".join(["%.17g"] * len(header)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(row % (s.t, *s.xi.tolist(), *s.omega.tolist(),
                                 *s.G.tolist(), *s.c.tolist(), *s.Q.ravel().tolist())
                          for s in self.states)


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


def _steady_index(xi, omega, G, targets, tol):
    """Index of the first target within tol of (xi, omega, G), or None."""
    for i, target in enumerate(targets):
        if _state_mismatch(xi, omega, G, target(G)) < tol:
            return i
    return None


def integrate(state0, resistance, mass_props, params, steady_states=None):
    """Classical fixed-step 4th-order integration of the fall equations.

    After every step G is renormalized and Q is replaced by its polar
    factor. A state whose norm is not finite or exceeds _BLOWUP_NORM, or a
    Q that is not near a rotation, raises InstabilityError. Sampling
    happens every ``params.stride`` steps. When a list of steady states is
    supplied, integration halts early once the current (xi, omega, G) is
    within ``params.steady_tol`` of one of them, at the start or at a
    sample.
    """
    t = state0.t
    n_steps = int(np.ceil((params.t_end - t) / params.dt - 1e-12))
    out = [state0]
    targets = [_target(st, resistance, mass_props) for st in steady_states or ()]
    tol = params.steady_tol
    y = state0.pack().tolist()
    steady_index = _steady_index(y[0:3], y[3:6], y[6:9], targets, tol)
    if steady_index is not None:
        return Trajectory(states=out, halted_steady=True, steady_index=steady_index)

    deriv = _derivative(resistance, mass_props, params.re)
    h = params.dt
    h2, h6 = h / 2, h / 6
    for step in range(1, n_steps + 1):
        k1 = deriv(y, y, 0.0)
        k2 = deriv(y, k1, h2)
        k3 = deriv(y, k2, h2)
        k4 = deriv(y, k3, h)
        # written out: a list comprehension over zip costs a third more
        y = [y[0] + h6 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
             y[1] + h6 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
             y[2] + h6 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
             y[3] + h6 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
             y[4] + h6 * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]),
             y[5] + h6 * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5]),
             y[6] + h6 * (k1[6] + 2.0 * k2[6] + 2.0 * k3[6] + k4[6]),
             y[7] + h6 * (k1[7] + 2.0 * k2[7] + 2.0 * k3[7] + k4[7]),
             y[8] + h6 * (k1[8] + 2.0 * k2[8] + 2.0 * k3[8] + k4[8]),
             y[9] + h6 * (k1[9] + 2.0 * k2[9] + 2.0 * k3[9] + k4[9]),
             y[10] + h6 * (k1[10] + 2.0 * k2[10] + 2.0 * k3[10] + k4[10]),
             y[11] + h6 * (k1[11] + 2.0 * k2[11] + 2.0 * k3[11] + k4[11]),
             y[12] + h6 * (k1[12] + 2.0 * k2[12] + 2.0 * k3[12] + k4[12]),
             y[13] + h6 * (k1[13] + 2.0 * k2[13] + 2.0 * k3[13] + k4[13]),
             y[14] + h6 * (k1[14] + 2.0 * k2[14] + 2.0 * k3[14] + k4[14]),
             y[15] + h6 * (k1[15] + 2.0 * k2[15] + 2.0 * k3[15] + k4[15]),
             y[16] + h6 * (k1[16] + 2.0 * k2[16] + 2.0 * k3[16] + k4[16]),
             y[17] + h6 * (k1[17] + 2.0 * k2[17] + 2.0 * k3[17] + k4[17]),
             y[18] + h6 * (k1[18] + 2.0 * k2[18] + 2.0 * k3[18] + k4[18]),
             y[19] + h6 * (k1[19] + 2.0 * k2[19] + 2.0 * k3[19] + k4[19]),
             y[20] + h6 * (k1[20] + 2.0 * k2[20] + 2.0 * k3[20] + k4[20])]
        t += h
        # "not <=" also catches NaN and Inf, which the projection cannot take
        if not math.hypot(*y) <= _BLOWUP_NORM:
            raise InstabilityError(
                f"dynamics.integrate: state norm not finite or above "
                f"{_BLOWUP_NORM:.0e} at step {step}", step=step)
        _project(y, step)
        if step % params.stride == 0 or step == n_steps:
            out.append(FallState.unpack(t, np.array(y)))
            steady_index = _steady_index(y[0:3], y[3:6], y[6:9], targets, tol)
            if steady_index is not None:
                break
    return Trajectory(states=out, halted_steady=steady_index is not None,
                      steady_index=steady_index)


def detect_steady(trajectory, steady_states, tol, resistance=None, mass_props=None):
    """Report whether a trajectory approaches any steady state.

    Non-convergence is a finding, not an error: in that case the report
    carries the final residual of the instantaneous force/torque balance
    (when resistance and mass properties are supplied).
    """
    final = trajectory.final
    xi, omega, G = final.xi.tolist(), final.omega.tolist(), final.G.tolist()
    mismatches = [_state_mismatch(xi, omega, G, _target(st, resistance, mass_props)(G))
                  for st in steady_states]
    best = int(np.argmin(mismatches)) if mismatches else None
    converged = bool(mismatches and mismatches[best] < tol)
    report = {
        "converged": converged,
        "state_index": best if converged else None,
        "mismatch": float(mismatches[best]) if mismatches else None,
        "t_final": final.t,
    }
    if not converged and resistance is not None and mass_props is not None:
        report["final_balance_residual"] = residual(
            final.xi, final.omega, final.G, resistance, mass_props)
    return report
