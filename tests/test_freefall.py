"""Freefall module: fall operator, its real eigenpairs, steady states."""

import math
from dataclasses import replace

import numpy as np
import pytest

from slenderfall import (CurveSpec, FallOperator, KernelParams, MassProperties,
                         discretize, fall_operator, mass_properties,
                         real_eigenpairs, residual, resistance_set,
                         steady_states)
from slenderfall.errors import DegeneracyError, SolverError
from slenderfall.freefall import cross_matrix

from conftest import random_polyline_spec


def test_cross_matrix():
    v = np.array([0.3, -1.1, 0.7])
    w = np.array([2.0, 0.5, -0.4])
    assert np.allclose(cross_matrix(v) @ w, np.cross(v, w))


def test_fall_operator_ring_zero(ring_R, ring_mp):
    op = fall_operator(ring_R, ring_mp)
    assert np.linalg.norm(op.matrix) <= 1e-10 * abs(ring_mp.m_e)
    assert not op.degenerate


def test_fall_operator_neutral_buoyancy(helix_R, helix_mp):
    mp = MassProperties(m=helix_mp.m, m_c=helix_mp.m, m_e=0.0,
                        r=np.zeros(3), inertia=helix_mp.inertia)
    op = fall_operator(helix_R, mp)
    assert np.linalg.norm(op.matrix) <= 1e-12


def test_fall_operator_rod_degenerate(rod_R, rod_mp):
    op = fall_operator(rod_R, rod_mp)
    assert op.degenerate
    assert abs(abs(op.null_direction[0]) - 1.0) <= 1e-10  # rod axis = e1


def test_fall_operator_total_degeneracy_raises(params):
    # a single point has no rotational response at all: K_rr = 0 entirely
    from test_mobility import single_node_body
    body = single_node_body()
    R = resistance_set(body, params)
    mp = MassProperties(m=1.0, m_c=0.0, m_e=1.0, r=np.zeros(3),
                        inertia=np.zeros((3, 3)))
    with pytest.raises(DegeneracyError):
        fall_operator(R, mp)


def _operator(F):
    """A fall operator with matrix F and entries of size 1."""
    return FallOperator(matrix=np.asarray(F, dtype=float), schur=np.eye(3),
                        degenerate=False, null_direction=None,
                        schur_condition=1.0, scale=1.0)


def test_eigenpairs_zero_matrix():
    pairs = real_eigenpairs(_operator(np.zeros((3, 3))))
    assert len(pairs) == 1
    lam, basis, mult = pairs[0]
    assert lam == 0.0 and mult == 3
    assert np.allclose(basis @ basis.T, np.eye(3))


def test_eigenpairs_diagonal():
    pairs = real_eigenpairs(_operator(np.diag([1.0, 2.0, 3.0])))
    lams = sorted(lam for lam, _, _ in pairs)
    assert np.allclose(lams, [1.0, 2.0, 3.0])
    for lam, basis, mult in pairs:
        assert mult == 1
        e = np.zeros(3)
        e[int(lam) - 1] = 1.0
        assert np.allclose(np.abs(basis[0]), e)


def test_eigenpairs_rotation_generator():
    pairs = real_eigenpairs(_operator(cross_matrix([0.0, 0.0, 1.0])))
    assert len(pairs) == 1
    lam, basis, mult = pairs[0]
    assert abs(lam) <= 1e-12 and mult == 1
    assert np.allclose(np.abs(basis[0]), [0, 0, 1])


def test_eigenpairs_residual_and_sign():
    rng = np.random.default_rng(7)
    for _ in range(50):
        F = rng.normal(size=(3, 3))
        for lam, basis, mult in real_eigenpairs(_operator(F)):
            for g in basis[:1]:  # primary vector of each pair
                assert np.linalg.norm(F @ g - lam * g) <= 1e-10 * (
                    1 + np.linalg.norm(F))
                first = g[np.abs(g) > 1e-8][0]
                assert first > 0


@pytest.mark.parametrize("k", [-1000, -500, -200, -100, -50, 50, 100, 200, 500, 1000])
def test_eigenpairs_are_exact_under_power_of_two_scaling(k):
    # F 2^k, with its size 2^k, has the eigenvalues lambda 2^k and the same
    # eigenvectors: F is scaled to unit size exactly before LAPACK sees it,
    # so the pairs agree bit for bit at any size of F
    rng = np.random.default_rng(3)
    for _ in range(50):
        F = rng.normal(size=(3, 3))
        pairs = real_eigenpairs(_operator(F))
        scaled = real_eigenpairs(replace(_operator(np.ldexp(F, k)), scale=math.ldexp(1.0, k)))
        assert ([(math.ldexp(lam, k), mult) for lam, _, mult in pairs]
                == [(lam, mult) for lam, _, mult in scaled])
        for (_, basis, _), (_, scaled_basis, _) in zip(pairs, scaled):
            assert np.array_equal(basis, scaled_basis)


@pytest.mark.parametrize("entry, scale", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf)])
def test_eigenpairs_refuse_a_non_finite_operator(entry, scale):
    F = np.eye(3)
    F[0, 1] = entry
    with pytest.raises(SolverError, match="not finite"):
        real_eigenpairs(replace(_operator(F), scale=scale))


def test_non_finite_steady_velocity_raises(rod_R, rod_mp):
    # F = 0 and its size is finite, but m_e / |K_tt| overflows: the momentum
    # gate scales with |xi| and would pass the state
    R = replace(rod_R, k_tt=1e-300 * rod_R.k_tt)
    mp = replace(rod_mp, m_e=1e10)
    assert math.isfinite(fall_operator(R, mp).scale)
    with pytest.raises(SolverError, match="steady velocity"):
        steady_states(R, mp)


def test_ring_steady_family(ring_R, ring_mp):
    states = steady_states(ring_R, ring_mp)
    assert len(states) == 1
    s = states[0]
    assert s.lam == 0.0 and s.multiplicity == 3
    assert np.allclose(s.omega, 0)
    xi_expected = np.linalg.solve(ring_R.k_tt, ring_mp.m_e * s.g)
    assert np.allclose(s.xi, xi_expected)
    assert s.momentum_residual <= 1e-10 * ring_mp.m_e


@pytest.mark.parametrize("panels, order", [(9, 6), (15, 4), (16, 4), (17, 6), (25, 4),
                                            (32, 6)])
def test_uniform_ring_has_exactly_one_zero_spin(ring_spec, params, panels, order):
    # a ring's F is roundoff, whose eigenvalues differ with P and k (odd P
    # gave |lambda| of 5e-37 to 4e-33); its zero cluster is 0.0 all the same
    body = discretize(ring_spec, panels=panels, order=order)
    states = steady_states(resistance_set(body, params), mass_properties(body))
    assert [(s.lam, s.multiplicity) for s in states] == [(0.0, 3)]


def test_ring_zero_spin_survives_roundoff_in_the_resistance(ring_R, ring_mp):
    # the grand matrix scaled entrywise by 1 + 1e-15 E, E seeded and
    # symmetric: the zero does not hang on the solver's rounding
    for seed in range(20):
        E = np.random.default_rng(seed).standard_normal((6, 6))
        G = ring_R.grand * (1.0 + 1e-15 * (E + E.T) / 2)
        R = replace(ring_R, grand=G, k_tt=G[:3, :3], k_tr=G[:3, 3:],
                    k_rt=G[3:, :3], k_rr=G[3:, 3:])
        states = steady_states(R, ring_mp)
        assert [(s.lam, s.multiplicity) for s in states] == [(0.0, 3)], seed


def test_rod_steady_transverse_isotropy(rod_R, rod_mp):
    states = steady_states(rod_R, rod_mp)
    assert all(abs(s.lam) <= 1e-10 for s in states)
    assert all(s.degenerate for s in states)
    evals = np.sort(np.linalg.eigvalsh(rod_R.k_tt))
    # transverse isotropy: two equal drag eigenvalues distinct from the axial
    assert abs(evals[2] - evals[1]) <= 1e-6 * evals[2]
    assert evals[1] - evals[0] > 1e-2 * evals[2]


def test_rod_oblique_drift(rod_R, rod_mp):
    # oblique g: drag anisotropy makes xi not parallel to g
    g = np.array([1.0, 0, 1.0]) / np.sqrt(2)
    xi = np.linalg.solve(rod_R.k_tt, rod_mp.m_e * g)
    cosang = xi @ g / np.linalg.norm(xi)
    assert cosang < 1 - 1e-3


def test_helix_chirality(helix_R, helix_mp):
    states = steady_states(helix_R, helix_mp)
    assert any(abs(s.lam) > 1e-3 for s in states)
    for s in states:
        assert abs(np.linalg.norm(s.g) - 1) <= 1e-12
        assert np.linalg.norm(np.cross(s.g, s.omega)) <= 1e-12
        assert s.eigen_residual <= 1e-10 * (1 + np.linalg.norm(
            fall_operator(helix_R, helix_mp).matrix))


def test_residual_sensitivity(helix_R, helix_mp):
    s = max(steady_states(helix_R, helix_mp), key=lambda st: abs(st.lam))
    assert residual(s.xi, s.omega, s.g, helix_R, helix_mp) <= 1e-10 * helix_mp.m_e
    perp = np.cross(s.g, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    g_pert = s.g + 1e-3 * perp
    g_pert /= np.linalg.norm(g_pert)
    assert residual(s.xi, s.omega, g_pert, helix_R, helix_mp) >= 1e-5 * helix_mp.m_e


def test_mirror_property(helix_R, helix_mp):
    for s in steady_states(helix_R, helix_mp):
        mirror = residual(-s.xi, -s.omega, -s.g, helix_R, helix_mp)
        assert mirror <= 1e-10 * helix_mp.m_e


def test_steady_density_carries_the_load(ring_body, ring_R, params):
    # at a steady state the fluid holds the body up: the force density of
    # the motion gives sum w phi = m_e g and sum w x x phi = -m_c r x g.
    # A graded density moves the center of mass off the centroid, r != 0
    spec = CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0,
                     density=lambda s: 1.0 + 0.3 * s)
    helix = discretize(spec, panels=32, order=6)
    assert np.linalg.norm(mass_properties(helix).r) > 1e-3
    for body, R in ((helix, resistance_set(helix, params)), (ring_body, ring_R)):
        mp = mass_properties(body, m_c=0.2 * body.length)
        w = body.weights[:, None]
        torque_scale = mp.m_e * np.abs(body.nodes).max()
        for s in steady_states(R, mp):
            phi = R.densities @ np.r_[s.xi, s.omega]
            force = (w * phi).sum(axis=0)
            torque = (w * np.cross(body.nodes, phi)).sum(axis=0)
            assert np.linalg.norm(force - mp.m_e * s.g) <= 1e-8 * mp.m_e
            assert (np.linalg.norm(torque + mp.m_c * np.cross(mp.r, s.g))
                    <= 1e-8 * torque_scale)


def test_scaling_covariance(helix_R, helix_mp):
    c = 3.0
    scaled_R = replace(helix_R, k_tt=c * helix_R.k_tt, k_tr=c * helix_R.k_tr,
                       k_rt=c * helix_R.k_rt, k_rr=c * helix_R.k_rr,
                       grand=c * helix_R.grand, densities=c * helix_R.densities)
    scaled_mp = MassProperties(m=c * helix_mp.m, m_c=c * helix_mp.m_c,
                               m_e=c * helix_mp.m_e, r=helix_mp.r,
                               inertia=c * helix_mp.inertia)
    F1 = fall_operator(helix_R, helix_mp).matrix
    F2 = fall_operator(scaled_R, scaled_mp).matrix
    assert np.allclose(F1, F2, rtol=1e-10)


def test_random_polylines_have_states(params):
    rng = np.random.default_rng(42)
    for _ in range(5):
        spec = random_polyline_spec(rng)
        body = discretize(spec, panels=8, order=4)
        mp = mass_properties(body, m_c=0.2 * body.length)
        R = resistance_set(body, params)
        states = steady_states(R, mp)
        assert len(states) >= 1


@pytest.mark.parametrize("name", ["helix", "ring", "rod"])
def test_steady_states_scale_with_viscosity(name, helix_body, ring_body, rod_body):
    # F goes as 1/mu, and so must every tolerance on it: at mu = 1e10 the
    # states are those of mu = 1 with lambda / mu. A helix keeps its spin
    # (an absolute floor of 1 used to merge its eigenvalues into one zero),
    # and the symmetric ring and rod still collapse to one zero of
    # multiplicity 3
    body = {"helix": helix_body, "ring": ring_body, "rod": rod_body}[name]
    mp = mass_properties(body)
    R = {mu: resistance_set(body, KernelParams(ell=0.1, mu=mu)) for mu in (1.0, 1e10)}
    states = {mu: steady_states(R[mu], mp) for mu in R}
    scale = fall_operator(R[1.0], mp).scale
    assert [s.multiplicity for s in states[1.0]] == [s.multiplicity for s in states[1e10]]
    if name == "helix":
        assert any(abs(s.lam) > 1e-3 for s in states[1.0])
    else:
        assert [s.multiplicity for s in states[1.0]] == [3]
    for s1, s2 in zip(states[1.0], states[1e10]):
        assert abs(s2.lam * 1e10 - s1.lam) <= 1e-8 * max(abs(s1.lam), 1e-8 * scale)
        assert np.allclose(s2.g, s1.g, rtol=0, atol=1e-8)
