"""Dynamics module: quasi-steady ODE, RK4 integration, steady detection."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from slenderfall import (CurveSpec, DynamicsParams, FallState, KernelParams,
                         MassProperties, discretize, integrate, mass_properties,
                         residual, resistance_set, rhs, steady_states)
from slenderfall.dynamics import (_BATCH, _polar_factor, _state_mismatch,
                                  _target, max_stable_dt)
from slenderfall.errors import InstabilityError, MassModelError


def state_from_steady(s):
    return FallState(t=0.0, xi=s.xi, omega=s.omega, G=s.g,
                     Q=np.eye(3), c=np.zeros(3))


def pack(s):
    # the 21 floats of rhs: xi, omega, G, Q row by row, c
    return np.concatenate([s.xi, s.omega, s.G, s.Q.ravel(), s.c])


def unpack(t, y):
    return FallState(t=t, xi=y[0:3], omega=y[3:6], G=y[6:9],
                     Q=y[9:18].reshape(3, 3), c=y[18:21])


def test_steady_states_are_fixed_points(ring_R, ring_mp, helix_R, helix_mp):
    for R, mp in ((ring_R, ring_mp), (helix_R, helix_mp)):
        for s in steady_states(R, mp):
            d = rhs(state_from_steady(s), R, mp, re=0.0)
            scale = max(abs(mp.m_e) / mp.m, 1.0)
            assert np.linalg.norm(d[:6]) <= 1e-8 * scale


def test_free_release_acceleration(ring_R, ring_mp):
    s0 = FallState.from_rest([0.0, 0.0, 1.0])
    d = rhs(s0, ring_R, ring_mp, re=0.0)
    assert np.allclose(d[:3], [0, 0, ring_mp.m_e / ring_mp.m])
    assert np.allclose(d[3:6], 0)


def test_gravity_direction_derivative_orthogonal(helix_R, helix_mp):
    rng = np.random.default_rng(3)
    for _ in range(10):
        G = rng.normal(size=3)
        G /= np.linalg.norm(G)
        s = FallState(t=0.0, xi=rng.normal(size=3), omega=rng.normal(size=3),
                      G=G, Q=np.eye(3), c=np.zeros(3))
        d = rhs(s, helix_R, helix_mp, re=0.5)
        assert abs(d[6:9] @ G) <= 1e-14


def test_ring_relaxation_closed_form(ring_R, ring_mp):
    k = ring_R.k_tt[2, 2]
    m, m_e = ring_mp.m, ring_mp.m_e
    t_end = 10.0 * m / k
    params = DynamicsParams(re=0.0, dt=0.005, t_end=t_end, stride=20)
    traj = integrate(FallState.from_rest([0, 0, 1.0]), ring_R, ring_mp, params)
    for s in traj:
        exact = (m_e / k) * (1.0 - np.exp(-k * s.t / m))
        assert abs(s.xi[2] - exact) <= 1e-6 * (m_e / k)
        assert np.allclose(s.xi[:2], 0) and np.allclose(s.omega, 0)


def test_re_zero_freezes_frame(helix_R, helix_mp):
    # 300 steps: Q and c are rebuilt at a batch end and at the last step
    params = DynamicsParams(re=0.0, dt=0.01, t_end=3.0, stride=10)
    traj = integrate(FallState.from_rest([0, 1.0, 0]), helix_R, helix_mp, params)
    G0 = next(iter(traj)).G
    for s in traj:
        assert np.array_equal(s.G, G0)
        assert np.array_equal(s.Q, np.eye(3))
        assert np.array_equal(s.c, np.zeros(3))


def test_step_halving_fourth_order(ring_R, ring_mp):
    s0 = FallState.from_rest([0, 0, 1.0])

    def endpoint(dt):
        params = DynamicsParams(re=0.0, dt=dt, t_end=1.0, stride=10 ** 6)
        return integrate(s0, ring_R, ring_mp, params).final.xi[2]

    e1 = abs(endpoint(0.04) - endpoint(0.02))
    e2 = abs(endpoint(0.02) - endpoint(0.01))
    assert 12.0 <= e1 / e2 <= 20.0


def test_frame_invariants_many_steps(helix_R, helix_mp):
    # |G| = 1 and Q^T Q = I preserved over 1e5 projected RK4 steps
    params = DynamicsParams(re=0.05, dt=2e-4, t_end=20.0, stride=10 ** 4)
    s0 = FallState.from_rest([0.3, 0.2, 1.0])
    g_inertial = s0.G  # Q(0) = I, so gravity is fixed at the initial direction
    traj = integrate(s0, helix_R, helix_mp, params)
    assert len(traj) >= 10
    for s in traj:
        assert abs(np.linalg.norm(s.G) - 1.0) <= 1e-8
        assert np.linalg.norm(s.Q.T @ s.Q - np.eye(3)) <= 1e-8
        # body-frame relation G = Q^T g_inertial up to integration tolerance
        assert np.linalg.norm(s.G - s.Q.T @ g_inertial) <= 1e-3


def test_detect_steady_at_start(ring_R, ring_mp):
    states = steady_states(ring_R, ring_mp)
    s0 = state_from_steady(states[0])
    params = DynamicsParams(re=0.0, dt=0.01, t_end=1.0, steady_tol=1e-6)
    traj = integrate(s0, ring_R, ring_mp, params, steady_states=states)
    assert traj.halted_steady and traj.state_index == 0
    assert traj.mismatch < 1e-6
    assert traj.final.t == 0.0 and len(traj) == 1


def test_ring_converges_to_steady(ring_R, ring_mp):
    states = steady_states(ring_R, ring_mp)
    params = DynamicsParams(re=0.0, dt=0.005, t_end=8.0, steady_tol=1e-6,
                            stride=50)
    traj = integrate(FallState.from_rest([0, 0, 1.0]), ring_R, ring_mp,
                     params, steady_states=states)
    assert traj.halted_steady and traj.state_index == 0
    assert traj.mismatch <= 1e-6


def test_halted_run_keeps_only_the_rows_written(ring_R, ring_mp):
    # rows for 160,000 steps are allocated; the run halts near step 1,000
    params = DynamicsParams(re=0.0, dt=0.005, t_end=800.0, steady_tol=1e-6, stride=50)
    traj = integrate(FallState.from_rest([0, 0, 1.0]), ring_R, ring_mp, params,
                     steady_states=steady_states(ring_R, ring_mp))
    assert traj.halted_steady and len(traj) < 100
    assert traj.samples.flags.owndata and traj.samples.nbytes == 176 * len(traj)


def test_helix_low_re_run_recorded(helix_R, helix_mp):
    states = steady_states(helix_R, helix_mp)
    params = DynamicsParams(re=1e-2, dt=0.01, t_end=2.0, stride=20)
    traj = integrate(FallState.from_rest([0, 0, 1.0]), helix_R, helix_mp,
                     params, steady_states=states)
    for s in traj:
        assert abs(np.linalg.norm(s.G) - 1.0) <= 1e-8
    # convergence is a finding, not a requirement; the record is complete
    assert traj.state_index in range(len(states)) and np.isfinite(traj.mismatch)
    assert traj.halted_steady == (traj.mismatch < 1e-6)
    if not traj.halted_steady:
        final = traj.final
        assert np.isfinite(residual(final.xi, final.omega, final.G, helix_R, helix_mp))


def test_final_balance_residual_is_the_load_imbalance(helix_R, helix_mp):
    # at Re = 0, m dxi/dt = m_e G + f and J domega/dt = t - m_c r x G, so a
    # run stopped short of steady reports max(m |dxi/dt|, |J domega/dt|)
    params = DynamicsParams(re=0.0, dt=0.01, t_end=0.05)
    traj = integrate(FallState.from_rest([0, 0, 1.0]), helix_R, helix_mp, params,
                     steady_states=steady_states(helix_R, helix_mp))
    assert not traj.halted_steady and traj.mismatch >= 1e-6
    final = traj.final
    d = rhs(final, helix_R, helix_mp, re=0.0)
    expected = max(helix_mp.m * np.linalg.norm(d[:3]),
                   np.linalg.norm(helix_mp.inertia @ d[3:6]))
    got = residual(final.xi, final.omega, final.G, helix_R, helix_mp)
    assert got == pytest.approx(expected, rel=1e-10)


def test_blow_up_detected(ring_R, ring_mp):
    s0 = FallState.from_rest([0, 0, 1.0])
    params = DynamicsParams(re=0.0, dt=10.0, t_end=1000.0)
    with pytest.raises(InstabilityError) as exc:
        integrate(s0, ring_R, ring_mp, params)
    step = exc.value.step
    assert step > 1
    # the step before it still ends within the blow-up bound
    last = integrate(s0, ring_R, ring_mp, DynamicsParams(re=0.0, dt=10.0,
                                                         t_end=10.0 * (step - 1))).final
    assert np.linalg.norm(pack(last)[:9]) <= 1e12


@pytest.mark.parametrize("stride, step", [(10, 10), (10 ** 6, _BATCH)])
def test_non_rotation_raises_at_its_first_projection(helix_R, helix_mp, stride, step):
    # a reflection is never a rotation's polar factor: Q and c are rebuilt
    # and Q projected at each sample and at each batch end, and the first of
    # those names the step
    s0 = FallState(t=0.0, xi=np.zeros(3), omega=np.zeros(3), G=np.array([0.0, 0.0, 1.0]),
                   Q=-np.eye(3), c=np.zeros(3))
    params = DynamicsParams(re=0.5, dt=0.01, t_end=3.0, stride=stride)
    with pytest.raises(InstabilityError) as exc:
        integrate(s0, helix_R, helix_mp, params)
    assert exc.value.step == step


def test_singular_inertia_with_torque_raises(ring_R, ring_mp):
    # a null inertia direction that carries hydrodynamic torque is inconsistent
    bad = MassProperties(m=ring_mp.m, m_c=0.0, m_e=ring_mp.m,
                         r=np.zeros(3), inertia=np.diag([1.0, 1.0, 0.0]))
    s0 = FallState.from_rest([0, 0, 1.0])
    with pytest.raises(MassModelError):
        rhs(s0, ring_R, bad, re=0.0)


def test_trajectory_csv_roundtrip(tmp_path, ring_R, ring_mp):
    params = DynamicsParams(re=0.0, dt=0.01, t_end=0.1, stride=2)
    traj = integrate(FallState.from_rest([0, 0, 1.0]), ring_R, ring_mp, params)
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:7] == ["t", "xi1", "xi2", "xi3", "omega1", "omega2", "omega3"]
    assert len(header) == 22
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits: the written floats round-trip exactly
    for i, s in enumerate(traj):
        row = np.concatenate([[s.t], s.xi, s.omega, s.G, s.c, s.Q.ravel()])
        assert np.array_equal(data[i], row)


def test_params_validation():
    with pytest.raises(ValueError):
        DynamicsParams(re=0.0, dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        DynamicsParams(re=-0.1, dt=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        DynamicsParams(re=0.0, dt=0.1, t_end=1.0, stride=0)


def test_non_finite_state_raises_instability(ring_R, ring_mp):
    params = DynamicsParams(re=0.1, dt=0.01, t_end=1.0)
    for bad in (np.nan, np.inf):
        s0 = FallState(t=0.0, xi=np.array([bad, 0.0, 0.0]), omega=np.zeros(3),
                       G=np.array([0.0, 0.0, 1.0]), Q=np.eye(3), c=np.zeros(3))
        with pytest.raises(InstabilityError) as exc:
            integrate(s0, ring_R, ring_mp, params)
        assert exc.value.step == 1


def test_params_reject_non_finite():
    for kwargs in ({"re": np.nan}, {"dt": np.nan}, {"t_end": np.inf},
                   {"steady_tol": np.nan}):
        with pytest.raises(ValueError):
            DynamicsParams(**{"re": 0.0, "dt": 0.1, "t_end": 1.0, **kwargs})


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def test_rhs_matches_cross_product_formula(helix_R, helix_mp):
    # the closed-form right-hand side, written with np.cross
    R, mp, re = helix_R, helix_mp, 0.5
    J = mp.inertia
    rng = np.random.default_rng(11)
    for _ in range(20):
        G = rng.normal(size=3)
        G /= np.linalg.norm(G)
        xi, omega, Q = rng.normal(size=3), rng.normal(size=3), _random_rotation(rng)
        s = FallState(t=0.0, xi=xi, omega=omega, G=G, Q=Q, c=rng.normal(size=3))
        f = -(R.k_tt @ xi + R.k_tr @ omega)
        t = -(R.k_rt @ xi + R.k_rr @ omega)
        expected = np.concatenate([
            (mp.m_e * G + f - re * mp.m * np.cross(omega, xi)) / mp.m,
            np.linalg.solve(J, -mp.m_c * np.cross(mp.r, G) + t
                            - re * np.cross(omega, J @ omega)),
            re * np.cross(G, omega),
            (re * np.cross(Q, omega)).ravel(),      # rows of Q [omega x]
            re * Q @ xi,
        ])
        d = rhs(s, R, mp, re)
        assert d.shape == (21,)
        np.testing.assert_allclose(d, expected, rtol=1e-13,
                                   atol=1e-13 * np.abs(expected).max())


def test_re_zero_matches_matrix_exponential(helix_R, helix_mp):
    # At Re = 0, z = (xi, omega) obeys z' = b - A z with constant A and b.
    R, mp = helix_R, helix_mp
    rng = np.random.default_rng(5)
    s0 = FallState(t=0.0, xi=rng.normal(size=3), omega=rng.normal(size=3),
                   G=np.array([0.3, 0.2, 1.0]) / np.linalg.norm([0.3, 0.2, 1.0]),
                   Q=np.eye(3), c=np.zeros(3))
    J_inv = np.linalg.inv(mp.inertia)
    A = np.block([[np.eye(3) / mp.m, np.zeros((3, 3))],
                  [np.zeros((3, 3)), J_inv]]) @ R.grand
    b = np.concatenate([mp.m_e / mp.m * s0.G,
                        -mp.m_c * J_inv @ np.cross(mp.r, s0.G)])
    aug = np.zeros((7, 7))
    aug[:6, :6], aug[:6, 6] = -A, b
    traj = integrate(s0, R, mp, DynamicsParams(re=0.0, dt=0.01, t_end=5.0,
                                               stride=10 ** 6))
    t = traj.final.t
    exact = (expm(t * aug) @ np.concatenate([s0.xi, s0.omega, [1.0]]))[:6]
    got = np.concatenate([traj.final.xi, traj.final.omega])
    assert abs(t - 5.0) <= 1e-12
    assert np.max(np.abs(got - exact)) <= 1e-10


def test_step_halving_fourth_order_full_state(helix_R, helix_mp):
    # Re > 0: xi, omega, G, Q and c all evolve; each converges at 4th order
    s0 = FallState.from_rest([0.3, 0.2, 1.0])

    def endpoint(dt):
        params = DynamicsParams(re=0.5, dt=dt, t_end=1.0, stride=10 ** 6)
        return pack(integrate(s0, helix_R, helix_mp, params).final)

    y1, y2, y3 = endpoint(0.04), endpoint(0.02), endpoint(0.01)
    assert np.linalg.norm(y3[9:18] - np.eye(3).ravel()) > 1e-3   # Q moved
    assert np.linalg.norm(y3[18:21]) > 1e-3                      # c moved
    assert 12.0 <= np.linalg.norm(y1 - y2) / np.linalg.norm(y2 - y3) <= 20.0


def test_polar_factor_matches_svd():
    # Q = R (I + E) near a rotation R; the SVD's own error here is ~4e-15
    rng = np.random.default_rng(17)
    for mag in 10.0 ** np.arange(-16, -2):
        for _ in range(20):
            E = rng.normal(size=(3, 3))
            Q = _random_rotation(rng) @ (np.eye(3) + E * (mag / np.linalg.norm(E)))
            P = np.array(_polar_factor(Q.ravel().tolist(), step=1)).reshape(3, 3)
            u, _, vt = np.linalg.svd(Q)
            assert np.abs(P - u @ vt).max() <= 1e-14
            assert np.linalg.norm(P.T @ P - np.eye(3)) <= 1e-15


def test_polar_factor_rejects_non_rotations():
    rng = np.random.default_rng(19)
    Q = _random_rotation(rng)
    singular = Q.copy()
    singular[2] = singular[0] + singular[1]
    # 1e6 Q has a positive det, but unscaled Newton only halves it per pass
    for bad in (singular, -Q, np.zeros((3, 3)), 1e6 * Q):
        with pytest.raises(InstabilityError) as exc:
            _polar_factor(bad.ravel().tolist(), step=7)
        assert exc.value.step == 7


def test_energy_identity_fourth_order():
    # d/dt (m|xi|^2/2 + omega.J omega/2) = m_e G.xi - m_c (r x G).omega - z.A6 z:
    # the Re terms do no work. A nonuniform helix with m_c > 0 has r != 0 and
    # a nonsingular J.
    spec = CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0,
                     density=lambda s: 1.0 + 0.5 * np.asarray(s, float))
    body = discretize(spec, panels=16, order=6)
    mp = mass_properties(body, m_c=0.3 * body.length)
    R = resistance_set(body, KernelParams(ell=0.1))
    re = 0.5
    assert np.linalg.norm(mp.r) > 0.1
    assert np.linalg.eigvalsh(mp.inertia).min() > 0.1 * mp.m
    s0 = FallState(t=0.0, xi=np.array([0.2, 0.1, -0.4]),
                   omega=np.array([0.5, -0.3, 0.8]),
                   G=np.array([0.3, 0.2, 1.0]) / np.linalg.norm([0.3, 0.2, 1.0]),
                   Q=np.eye(3), c=np.zeros(3))

    def energy(s):
        return 0.5 * mp.m * s.xi @ s.xi + 0.5 * s.omega @ mp.inertia @ s.omega

    def power(s):
        z = np.concatenate([s.xi, s.omega])
        return (mp.m_e * s.G @ s.xi - mp.m_c * np.cross(mp.r, s.G) @ s.omega
                - z @ R.grand @ z)

    def discrepancy(dt):
        # E(T) - E(0) minus the composite-Simpson integral of the power
        traj = integrate(s0, R, mp, DynamicsParams(re=re, dt=dt, t_end=2.0))
        P = np.array([power(s) for s in traj])
        work = dt / 3 * (P[0] + P[-1] + 4 * P[1:-1:2].sum() + 2 * P[2:-1:2].sum())
        for s in list(traj)[::10]:
            d = rhs(s, R, mp, re)
            de = mp.m * s.xi @ d[:3] + s.omega @ mp.inertia @ d[3:6]
            assert abs(de - power(s)) <= 1e-12 * max(abs(power(s)), mp.m_e)
        return energy(traj.final) - energy(s0) - work

    d1, d2, d3 = discrepancy(0.04), discrepancy(0.02), discrepancy(0.01)
    assert 12.0 <= d1 / d2 <= 20.0 and 12.0 <= d2 / d3 <= 20.0
    assert abs(d3) <= 1e-7 * mp.m_e


def _rk4_21(s0, R, mp, params):
    # a plain RK4 on the 21 floats of rhs, G renormalized and Q replaced by
    # its polar factor after every step, sampled as integrate samples
    h = params.dt
    n_steps = int(np.ceil((params.t_end - s0.t) / h - 1e-12))
    y, t, out = pack(s0), s0.t, [s0]
    for step in range(1, n_steps + 1):
        k1 = rhs(unpack(t, y), R, mp, params.re)
        k2 = rhs(unpack(t, y + h / 2 * k1), R, mp, params.re)
        k3 = rhs(unpack(t, y + h / 2 * k2), R, mp, params.re)
        k4 = rhs(unpack(t, y + h * k3), R, mp, params.re)
        y = y + h / 6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        y[6:9] = y[6:9] / math.hypot(*y[6:9])
        y[9:18] = _polar_factor(y[9:18].tolist(), step)
        if step % params.stride == 0 or step == n_steps:
            out.append(unpack(t, y.copy()))
    return out


@pytest.mark.parametrize("start, steady_tol, halted", [
    # from rest for 700 steps, not a whole number of batches
    ("rest", 1e-6, False),
    # 1e-3 off the steady fall, halting at a sample inside the second batch
    ("near-steady", 3e-5, True),
], ids=["from-rest", "steady-halt"])
def test_integrate_matches_21_float_rk4(helix_R, helix_mp, start, steady_tol, halted):
    R, mp = helix_R, helix_mp
    states = steady_states(R, mp)
    if start == "rest":
        s0 = FallState.from_rest([0.3, 0.2, 1.0])
    else:
        s0 = FallState(t=0.0, xi=states[0].xi + 1e-3, omega=states[0].omega,
                       G=states[0].g, Q=np.eye(3), c=np.zeros(3))
    params = DynamicsParams(re=0.5, dt=0.01, t_end=7.0, stride=7, steady_tol=steady_tol)
    traj = integrate(s0, R, mp, params, steady_states=states)
    ref = _rk4_21(s0, R, mp, params)
    steps = round(traj.final.t / params.dt)
    assert traj.halted_steady == halted
    assert steps % _BATCH != 0 and steps > _BATCH
    if halted:
        assert len(traj) < len(ref)
    else:
        assert len(traj) == len(ref)
    for got, want in zip(traj, ref):
        assert got.t == want.t
        for name in ("xi", "omega", "G"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.abs(got.Q - want.Q).max() <= 1e-15
        assert np.abs(got.c - want.c).max() <= 1e-15
    # the frame did move
    assert np.abs(traj.final.Q - np.eye(3)).max() > 1e-4
    assert np.abs(traj.final.c).max() > 1e-2


def test_signed_zeros_match_21_float_rk4(helix_R, helix_mp):
    # at Re = 0, dG/dt = 0 (G x omega) is a zero carrying the sign of
    # G x omega; here every stage's dG2/dt is -0.0, and G2 = -0.0 stays -0.0
    # only if the stage sum starts from -0.0, as k1 + 2 k2 + 2 k3 + k4 does
    s0 = FallState(t=0.0, xi=np.zeros(3), omega=np.array([-1.0, 0.0, 0.0]),
                   G=np.array([0.6, -0.0, 0.8]), Q=np.eye(3), c=np.zeros(3))
    params = DynamicsParams(re=0.0, dt=0.01, t_end=0.1)
    traj = integrate(s0, helix_R, helix_mp, params)
    ref = _rk4_21(s0, helix_R, helix_mp, params)
    assert len(traj) == len(ref) == 11
    for got, want in zip(traj, ref):
        assert pack(got)[:9].tobytes() == pack(want)[:9].tobytes()
    assert np.signbit(traj.final.G[1])


def _numpy_family_target(G, steady, resistance, mass_props):
    # the comparison target as the numpy steady check computed it
    if steady.eigenbasis is None or steady.multiplicity < 2:
        return steady.g, steady.xi, steady.omega
    P = np.asarray(steady.eigenbasis)
    coef = P @ G
    if np.linalg.norm(coef) < 1e-12:
        return steady.g, steady.xi, steady.omega
    g = coef @ P
    g = g / np.linalg.norm(g)
    xi = np.linalg.solve(resistance.k_tt,
                         mass_props.m_e * g - steady.lam * (resistance.k_tr @ g))
    return g, xi, steady.lam * g


def _numpy_mismatch(xi, omega, G, target):
    # the steady mismatch as the numpy steady check computed it
    g_s, xi_s, om_s = target
    best = np.inf
    for sign in (1.0, -1.0):
        dxi = math.hypot(*(xi - sign * xi_s))
        dom = math.hypot(*(omega - sign * om_s))
        ang = 2.0 * np.arctan2(np.linalg.norm(G - sign * g_s), np.linalg.norm(G + sign * g_s))
        best = min(best, max(dxi, dom, float(ang)))
    return best


def _float_mismatch(xi, omega, G, steady, R, mp):
    G = G.tolist()
    return _state_mismatch(xi.tolist(), omega.tolist(), G, _target(steady, R, mp)(G))


def test_float_mismatch_matches_numpy_formula(ring_R, ring_mp, helix_R, helix_mp):
    # the written-out mismatch agrees with the numpy formula to 1e-15 near
    # and exactly at the targets of a family (ring) and of a simple state
    rng = np.random.default_rng(29)
    cases = ((ring_R, ring_mp), (helix_R, helix_mp))
    assert [steady_states(R, mp)[0].multiplicity for R, mp in cases] == [3, 1]
    for R, mp in cases:
        st = steady_states(R, mp)[0]
        for i in range(400):
            # random states near +-(xi*, omega*), at distances 1e-10 to 1,
            # and exactly at +-(g*, xi*, omega*)
            sign, size = (-1.0) ** i, 10.0 ** rng.uniform(-10, 0)
            G = rng.normal(size=3)
            G /= np.linalg.norm(G)
            target = _numpy_family_target(G, st, R, mp)
            g, x, o = target
            for xi, omega, G in ((sign * x + size * rng.normal(size=3),
                                  sign * o + size * rng.normal(size=3), G),
                                 (sign * x, sign * o, sign * g)):
                old = _numpy_mismatch(xi, omega, G, target)
                new = _float_mismatch(xi, omega, G, st, R, mp)
                assert abs(new - old) <= 1e-15
        if st.multiplicity == 1:
            # exactly at +-g* both read 0
            assert new == old == 0.0
    # a g* whose squared norm rounds above 1: exactly at +-g* the angle is 0
    while True:
        g = rng.normal(size=3)
        g = (g / np.linalg.norm(g)).tolist()
        if g[0] * g[0] + g[1] * g[1] + g[2] * g[2] > 1.0:
            break
    for sign in (1.0, -1.0):
        G = [sign * v for v in g]
        assert _state_mismatch([0.0] * 3, [0.0] * 3, G, (g, [0.0] * 3, [0.0] * 3)) == 0.0


def test_mismatch_at_family_target_is_roundoff(ring_R, ring_mp):
    # a ring's family target g* is G normalized, one or two ulps from G: the
    # angle between them is roundoff, where an acos of G.g* reads 1.5e-8 to
    # 2.1e-8 for about one direction in eight
    st = steady_states(ring_R, ring_mp)[0]
    assert st.multiplicity == 3
    target = _target(st, ring_R, ring_mp)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(400):
        G = rng.normal(size=3)
        G = (G / np.linalg.norm(G)).tolist()
        g, xi, omega = target(G)
        worst = max(worst, _state_mismatch(xi, omega, G, (g, xi, omega)))
    assert worst <= 1e-15


def _fstring_csv(traj, path):
    # the trajectory CSV as the f-string writer wrote it
    header = ["t", "xi1", "xi2", "xi3", "omega1", "omega2", "omega3",
              "G1", "G2", "G3", "c1", "c2", "c3",
              "Q11", "Q12", "Q13", "Q21", "Q22", "Q23", "Q31", "Q32", "Q33"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in traj:
            row = np.concatenate([[s.t], s.xi, s.omega, s.G, s.c, s.Q.ravel()])
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_trajectory_csv_matches_fstring_writer(tmp_path, ring_R, ring_mp):
    # tilted and at Re > 0, every column moves; zeros and negatives included
    params = DynamicsParams(re=0.5, dt=0.01, t_end=1.0, stride=3)
    traj = integrate(FallState.from_rest([0.3, -0.2, 1.0]), ring_R, ring_mp, params)
    traj.to_csv(tmp_path / "floats.csv")
    _fstring_csv(traj, tmp_path / "fstring.csv")
    data = (tmp_path / "floats.csv").read_bytes()
    assert data == (tmp_path / "fstring.csv").read_bytes()
    assert data.count(b"\n") == len(traj) + 1 == 36


def test_rk4_stability_bound_is_sharp(helix_R, helix_mp):
    # At Re = 0 the drag is linear: just below dt_max the fastest mode
    # decays, just above it RK4 amplifies it every step until the state
    # norm passes the blow-up bound.
    dt_max = max_stable_dt(helix_R, helix_mp)
    rates = np.linalg.eigvals(np.block(
        [[np.eye(3) / helix_mp.m, np.zeros((3, 3))],
         [np.zeros((3, 3)), np.linalg.inv(helix_mp.inertia)]]) @ helix_R.grand)
    assert np.abs(rates.imag).max() <= 1e-12 * rates.real.max()
    assert dt_max == pytest.approx(2.785293563405282 / rates.real.max(), rel=1e-12)
    s0 = FallState.from_rest([0.3, 0.2, 1.0])
    stable = integrate(s0, helix_R, helix_mp,
                       DynamicsParams(dt=0.98 * dt_max, t_end=600 * dt_max))
    assert np.linalg.norm(stable.final.xi) < 10.0
    with pytest.raises(InstabilityError):
        integrate(s0, helix_R, helix_mp,
                  DynamicsParams(dt=1.02 * dt_max, t_end=1000 * dt_max))


def test_samples_are_held_as_rows_of_one_array(params, tmp_path):
    # 2,000 samples of the README helix (8 x 4 nodes) at stride 1: each is
    # one row of 22 float64 values, 176 bytes, allocated before the first
    # step, and writing them as CSV takes no memory per sample
    spec = CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0)
    body = discretize(spec, panels=8, order=4)
    R, mp = resistance_set(body, params), mass_properties(body)
    run = DynamicsParams(re=0.05, dt=1e-3, t_end=2.0)
    s0 = FallState.from_rest([0.3, 0.2, 1.0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(s0, R, mp, run, steady_states=steady_states(R, mp))
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        traj.to_csv(tmp_path / "trajectory.csv")
        writing = tracemalloc.get_traced_memory()[1] - before - held
    finally:
        tracemalloc.stop()
    assert len(traj) == 2001 and not traj.halted_steady
    assert traj.samples.dtype == np.float64 and traj.samples.nbytes == 176 * len(traj)
    assert held <= 200 * len(traj)
    assert writing <= 64 * 1024      # a row, its text and the file buffer


def test_no_step_returns_the_initial_sample(ring_R, ring_mp):
    # a start at or past t_end takes no step; the record is the start alone
    s0 = FallState(t=2.0, xi=np.array([0.0, 0.0, 0.1]), omega=np.zeros(3),
                   G=np.array([0.0, 0.0, 1.0]), Q=np.eye(3), c=np.zeros(3))
    for t_end in (1.0, 2.0):
        traj = integrate(s0, ring_R, ring_mp, DynamicsParams(dt=0.01, t_end=t_end),
                         steady_states=steady_states(ring_R, ring_mp))
        assert len(traj) == 1 and not traj.halted_steady
        assert traj.state_index == 0 and traj.mismatch > 1e-6
        final = traj.final
        assert final.t == 2.0 and np.array_equal(final.xi, s0.xi)
        assert np.array_equal(final.Q, np.eye(3)) and traj.frame_drift == 0.0
