"""Acceptance suite: the eight library-level acceptance criteria.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.
"""

import numpy as np

from slenderfall import (CurveSpec, KernelParams, assemble_system, discretize,
                         fall_operator, fourier_oracle, kernel_scalars,
                         mass_properties, resistance_set, rhs, steady_states)
from slenderfall.dynamics import DynamicsParams, FallState, integrate

from conftest import random_polyline_spec, rfp_to_dense


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_kernel_correctness():
    p = KernelParams(ell=1.0)
    worst = 0.0
    for s in (0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0):
        closed = kernel_scalars(s * p.ell, p)
        oracle = fourier_oracle(s * p.ell, p)
        scale_a = abs(oracle.A)
        scale_b = abs(oracle.B) if oracle.B != 0.0 else scale_a
        worst = max(worst, abs(closed.A - oracle.A) / scale_a,
                    abs(closed.B - oracle.B) / scale_b)
    a0 = kernel_scalars(0.0, p).A
    a0_exact = 1.0 / (6 * np.pi)
    ok = worst <= 1e-8 and abs(a0 - a0_exact) <= 1e-10 * a0_exact
    _report(1, "kernel closed form vs Fourier oracle", ok,
            f"max rel err {worst:.2e}")


def test_criterion_2_reciprocity_positivity(rod_R, ring_R, helix_R):
    ok = True
    details = []
    for name, R in (("rod", rod_R), ("ring", ring_R), ("helix", helix_R)):
        assert R.n_nodes >= 64
        scale = np.linalg.norm(R.grand)
        min_tt = np.linalg.eigvalsh(R.k_tt).min()
        min_a6 = np.linalg.eigvalsh(R.grand).min()
        this = (R.asymmetry <= 1e-8 and min_tt > 0
                and min_a6 >= -1e-10 * scale)
        if name in ("ring", "helix"):
            this = this and min_a6 > 0
        ok = ok and this
        details.append(f"{name}: asym {R.asymmetry:.1e}")
    _report(2, "reciprocity and positivity of the grand matrix", ok,
            "; ".join(details))


def test_criterion_3_symmetry_theorems(rod_R, rod_mp, ring_R, ring_mp):
    ring_states = steady_states(ring_R, ring_mp)
    ring_ok = (np.linalg.norm(ring_R.k_tr) <= 1e-8 * np.linalg.norm(ring_R.k_tt)
               and len(ring_states) == 1
               and ring_states[0].lam == 0.0
               and ring_states[0].multiplicity == 3)
    rod_states = steady_states(rod_R, rod_mp)
    evals = np.sort(np.linalg.eigvalsh(rod_R.k_tt))
    rod_ok = (all(abs(s.lam) <= 1e-10 for s in rod_states)
              and abs(evals[2] - evals[1]) <= 1e-6 * evals[2])
    ok = ring_ok and rod_ok
    _report(3, "ring and rod symmetry theorems", ok,
            f"ring mult {ring_states[0].multiplicity}, "
            f"rod K_tt double eig gap {abs(evals[2]-evals[1])/evals[2]:.1e}")


def test_criterion_4_existence_random_bodies(params):
    rng = np.random.default_rng(20240817)
    ok = True
    for _ in range(20):
        spec = random_polyline_spec(rng, n_vertices=4)
        body = discretize(spec, panels=8, order=4)
        mp = mass_properties(body, m_c=0.25 * body.length)
        R = resistance_set(body, params)
        states = steady_states(R, mp)
        F = fall_operator(R, mp).matrix
        bound = 1e-10 * (1 + np.linalg.norm(F))
        scale = max(abs(mp.m_e), np.linalg.norm(R.k_tt))
        ok = ok and len(states) >= 1
        ok = ok and all(s.eigen_residual <= bound for s in states)
        ok = ok and all(s.momentum_residual <= 1e-8 * scale for s in states)
    _report(4, "existence of steady states for 20 random polylines", ok)


def test_criterion_5_helix_chirality(helix_spec, params):
    lams = []
    for panels in (32, 64):
        body = discretize(helix_spec, panels, order=6)
        mp = mass_properties(body)
        states = steady_states(resistance_set(body, params), mp)
        lams.append(max((s.lam for s in states), key=abs))
    rel = abs(lams[1] - lams[0]) / abs(lams[1])
    ok = abs(lams[0]) > 0 and rel <= 0.01
    _report(5, "helix falls with nonzero spin, resolution-stable", ok,
            f"lambda {lams[1]:.5g}, N vs 2N change {rel:.2%}")


def test_criterion_6_dynamics_consistency(ring_R, ring_mp, helix_R, helix_mp):
    # (a) steady states are fixed points of the quasi-steady ODE
    fixed_ok = True
    for R, mp in ((ring_R, ring_mp), (helix_R, helix_mp)):
        for s in steady_states(R, mp):
            state = FallState(t=0.0, xi=s.xi, omega=s.omega, G=s.g,
                              Q=np.eye(3), c=np.zeros(3))
            d = rhs(state, R, mp, re=0.0)
            fixed_ok = fixed_ok and (
                np.linalg.norm(d[:6]) <= 1e-8 * max(abs(mp.m_e) / mp.m, 1.0))

    # (b) ring axial release matches the closed-form relaxation
    k = ring_R.k_tt[2, 2]
    m, m_e = ring_mp.m, ring_mp.m_e
    pars = DynamicsParams(re=0.0, dt=0.005, t_end=10.0 * m / k, stride=25)
    traj = integrate(FallState.from_rest([0, 0, 1.0]), ring_R, ring_mp, pars)
    relax_err = max(abs(s.xi[2] - (m_e / k) * (1 - np.exp(-k * s.t / m)))
                    for s in traj) / (m_e / k)
    relax_ok = relax_err <= 1e-6

    # (c) step halving shows 4th-order convergence
    def endpoint(dt):
        pars = DynamicsParams(re=0.0, dt=dt, t_end=1.0, stride=10 ** 6)
        return integrate(FallState.from_rest([0, 0, 1.0]), ring_R, ring_mp,
                         pars).final.xi[2]

    e1 = abs(endpoint(0.04) - endpoint(0.02))
    e2 = abs(endpoint(0.02) - endpoint(0.01))
    order_ok = 12.0 <= e1 / e2 <= 20.0

    ok = fixed_ok and relax_ok and order_ok
    _report(6, "dynamics consistency (fixed points, relaxation, order)", ok,
            f"relax err {relax_err:.1e}, halving ratio {e1/e2:.1f}")


def test_criterion_7_regularization_necessity(rod_spec):
    # condition number of the collocation matrix for a fixed rod at fixed N,
    # across decreasing thickness ell
    body = discretize(rod_spec, panels=16, order=4)  # N = 64
    conds = []
    for ell in (1.0, 0.1, 0.01):
        M = rfp_to_dense(assemble_system(body, KernelParams(ell=ell))[0])
        conds.append(float(np.linalg.cond(M)))
    ok = conds[0] < conds[1] < conds[2]
    _report(7, "condition number grows as ell decreases", ok,
            "cond(M) at ell=1, 0.1, 0.01: "
            + ", ".join(f"{c:.3e}" for c in conds))


def test_criterion_8_stokes_linearity(helix_spec, helix_body, helix_mp):
    states = {}
    for mu in (1.0, 2.0):
        R = resistance_set(helix_body, KernelParams(ell=0.1, mu=mu))
        states[mu] = sorted(steady_states(R, helix_mp), key=lambda s: s.lam)
    ok = len(states[1.0]) == len(states[2.0])
    worst = 0.0
    for s1, s2 in zip(states[1.0], states[2.0]):
        for a, b in ((s1.xi, s2.xi), (s1.omega, s2.omega)):
            dev = np.linalg.norm(a - 2.0 * np.asarray(b)) / max(
                np.linalg.norm(a), 1e-300)
            worst = max(worst, dev)
    ok = ok and worst <= 1e-10
    _report(8, "doubling mu halves xi and omega", ok,
            f"max rel deviation {worst:.1e}")
