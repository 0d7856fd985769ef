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

The constants of the closure (resistance blocks, J and its restricted
inverse, the masses, r and Re) are gathered once per integration into a
private operator. Each right-hand side evaluation then does only the 3-vector
arithmetic above, with the cross products written out on Python floats:
numpy's per-call overhead on 3-vectors costs far more than the arithmetic.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InstabilityError, MassModelError

_BLOWUP_NORM = 1e12


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
        if self.re < 0:
            raise ValueError("dynamics.DynamicsParams: Re must be >= 0")
        if self.stride < 1:
            raise ValueError("dynamics.DynamicsParams: stride must be >= 1")


def _inertia_pinv(mass_props, resistance, rtol=1e-12):
    """Restricted inverse of J; null directions must be torque-free.

    A straight body has J (and K_rr) singular along its axis; that direction
    carries zero angular acceleration. A null direction of J that does carry
    hydrodynamic torque has no consistent dynamics and raises.
    """
    J = mass_props.inertia
    evals, evecs = np.linalg.eigh(J)
    scale = max(evals.max(), np.finfo(float).tiny)
    null = evals < rtol * scale
    if np.any(null):
        krr_scale = max(np.linalg.norm(resistance.k_rr), np.finfo(float).tiny)
        for v in evecs.T[null]:
            if np.linalg.norm(resistance.k_rr @ v) > 1e-8 * krr_scale:
                raise MassModelError(
                    "dynamics: inertia tensor singular in a direction that "
                    "carries hydrodynamic torque")
    inv = np.where(null, 0.0, 1.0 / np.where(null, 1.0, evals))
    return (evecs * inv) @ evecs.T


class _Operator:
    """Constants of the quasi-steady closure as Python floats.

    Raises MassModelError when J is singular in a torque-carrying direction.
    """

    __slots__ = ("grand", "J", "J_pinv", "m", "m_e", "m_c", "r", "re")

    def __init__(self, resistance, mass_props, re):
        self.grand = resistance.grand.tolist()
        self.J = np.asarray(mass_props.inertia, dtype=float).tolist()
        self.J_pinv = _inertia_pinv(mass_props, resistance).tolist()
        self.m = float(mass_props.m)
        self.m_e = float(mass_props.m_e)
        self.m_c = float(mass_props.m_c)
        self.r = np.asarray(mass_props.r, dtype=float).tolist()
        self.re = float(re)


def rhs(state, resistance, mass_props, re, _op=None):
    """Time derivative of the packed state under the quasi-steady closure.

    The cross products are written out on Python floats. ``_op`` is the
    operator ``integrate`` builds once per integration from the same
    resistance, mass properties and Re; without it one is built per call.
    """
    op = _Operator(resistance, mass_props, re) if _op is None else _op
    re, m = op.re, op.m
    x1, x2, x3 = state.xi.tolist()
    w1, w2, w3 = state.omega.tolist()
    g1, g2, g3 = state.G.tolist()
    # hydrodynamic loads: (f, t) = -grand (xi, omega)
    f1, f2, f3, t1, t2, t3 = [-(a1 * x1 + a2 * x2 + a3 * x3 + a4 * w1 + a5 * w2 + a6 * w3)
                              for a1, a2, a3, a4, a5, a6 in op.grand]

    # m dxi/dt = m_e G + f - Re m (omega x xi)
    re_m = re * m
    dxi1 = (op.m_e * g1 + f1 - re_m * (w2 * x3 - w3 * x2)) / m
    dxi2 = (op.m_e * g2 + f2 - re_m * (w3 * x1 - w1 * x3)) / m
    dxi3 = (op.m_e * g3 + f3 - re_m * (w1 * x2 - w2 * x1)) / m

    # J domega/dt = -m_c (r x G) + t - Re (omega x J omega)
    r1, r2, r3 = op.r
    m_c = op.m_c
    j1, j2, j3 = [a1 * w1 + a2 * w2 + a3 * w3 for a1, a2, a3 in op.J]
    u1 = -m_c * (r2 * g3 - r3 * g2) + t1 - re * (w2 * j3 - w3 * j2)
    u2 = -m_c * (r3 * g1 - r1 * g3) + t2 - re * (w3 * j1 - w1 * j3)
    u3 = -m_c * (r1 * g2 - r2 * g1) + t3 - re * (w1 * j2 - w2 * j1)
    out = [dxi1, dxi2, dxi3]
    out += [a1 * u1 + a2 * u2 + a3 * u3 for a1, a2, a3 in op.J_pinv]

    # dG/dt = Re (G x omega)
    out += (re * (g2 * w3 - g3 * w2), re * (g3 * w1 - g1 * w3), re * (g1 * w2 - g2 * w1))
    # dQ/dt = Re Q [omega x]: row i of Q [omega x] is q_i x omega
    Q = state.Q.tolist()
    for q1, q2, q3 in Q:
        out += (re * (q2 * w3 - q3 * w2), re * (q3 * w1 - q1 * w3), re * (q1 * w2 - q2 * w1))
    # dc/dt = Re Q xi
    out += [re * (q1 * x1 + q2 * x2 + q3 * x3) for q1, q2, q3 in Q]
    return np.array(out)


def _project(y):
    """Renormalize G and re-orthonormalize Q (polar correction) in place."""
    y[6:9] /= np.linalg.norm(y[6:9])
    q = y[9:18].reshape(3, 3)
    u, _, vt = np.linalg.svd(q)
    y[9:18] = (u @ vt).ravel()
    return y


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
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for s in self.states:
                row = np.concatenate([[s.t], s.xi, s.omega, s.G, s.c, s.Q.ravel()])
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _family_target(state, steady, resistance, mass_props):
    """Member of a steady family closest in orientation to the given state.

    Symmetric bodies report a whole eigenspace of steady orientations; the
    comparison target is the member whose g is the projection of the current
    gravity direction onto that eigenspace, with xi rebuilt from the
    resistance relation. Simple states are returned as-is.
    """
    if (steady.eigenbasis is None or steady.multiplicity < 2
            or resistance is None or mass_props is None):
        return steady.g, steady.xi, steady.omega
    P = np.asarray(steady.eigenbasis)
    coef = P @ state.G
    if np.linalg.norm(coef) < 1e-12:
        return steady.g, steady.xi, steady.omega
    g = coef @ P
    g = g / np.linalg.norm(g)
    xi = np.linalg.solve(resistance.k_tt,
                         mass_props.m_e * g - steady.lam * (resistance.k_tr @ g))
    return g, xi, steady.lam * g


def _state_mismatch(state, steady, resistance=None, mass_props=None):
    """max(|xi - xi*|, |omega - omega*|, angle(G, +-g*)) against one state."""
    g_s, xi_s, om_s = _family_target(state, steady, resistance, mass_props)
    best = np.inf
    for sign in (1.0, -1.0):
        dxi = np.linalg.norm(state.xi - sign * xi_s)
        dom = np.linalg.norm(state.omega - sign * om_s)
        cosang = np.clip(state.G @ (sign * g_s), -1.0, 1.0)
        ang = float(np.arccos(cosang))
        best = min(best, max(dxi, dom, ang))
    return best


def integrate(state0, resistance, mass_props, params, steady_states=None):
    """Classical fixed-step 4th-order integration of the fall equations.

    After every step G is renormalized and Q is projected back onto the
    rotation group. Sampling happens every ``params.stride`` steps. When a
    list of steady states is supplied, integration halts early once the
    current (xi, omega, G) is within ``params.steady_tol`` of one of them.
    """
    re = params.re
    y = state0.pack().copy()
    t = state0.t
    n_steps = int(np.ceil((params.t_end - t) / params.dt - 1e-12))
    out = [state0]
    halted = False
    steady_index = None
    if steady_states:
        for i, st in enumerate(steady_states):
            if _state_mismatch(state0, st, resistance, mass_props) < params.steady_tol:
                halted = True
                steady_index = i
        if halted:
            return Trajectory(states=out, halted_steady=True,
                              steady_index=steady_index)

    op = _Operator(resistance, mass_props, re)

    def f(ti, yi):
        return rhs(FallState.unpack(ti, yi), resistance, mass_props, re, _op=op)

    for step in range(1, n_steps + 1):
        h = params.dt
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        # "not <=" also catches NaN and Inf, which the SVD below cannot take
        if not np.linalg.norm(y) <= _BLOWUP_NORM:
            raise InstabilityError(
                f"dynamics.integrate: state norm not finite or above "
                f"{_BLOWUP_NORM:.0e} at step {step}", step=step)
        y = _project(y)
        if step % params.stride == 0 or step == n_steps:
            s = FallState.unpack(t, y)
            out.append(s)
            if steady_states:
                for i, st in enumerate(steady_states):
                    if _state_mismatch(s, st, resistance, mass_props) < params.steady_tol:
                        halted = True
                        steady_index = i
                        break
            if halted:
                break
    return Trajectory(states=out, halted_steady=halted, steady_index=steady_index)


def detect_steady(trajectory, steady_states, tol, resistance=None, mass_props=None):
    """Report whether a trajectory approaches any steady state.

    Non-convergence is a finding, not an error: in that case the report
    carries the final residual of the instantaneous force/torque balance
    (when resistance and mass properties are supplied).
    """
    final = trajectory.final
    mismatches = [_state_mismatch(final, st, resistance, mass_props)
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
        f = -(resistance.k_tt @ final.xi + resistance.k_tr @ final.omega)
        t = -(resistance.k_rt @ final.xi + resistance.k_rr @ final.omega)
        report["final_balance_residual"] = float(max(
            np.linalg.norm(mass_props.m_e * final.G + f),
            np.linalg.norm(mass_props.m_c * np.cross(mass_props.r, final.G) - t)))
    return report
