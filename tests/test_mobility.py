"""Mobility module: collocation system, rigid solves, resistance matrices."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from slenderfall import (DiscreteBody, KernelParams, assemble_system, discretize,
                         energy_dissipation, evaluate_flow, force_torque,
                         kernel_scalars, resistance_set, solve_rigid_problem)
from slenderfall.errors import (AssemblyError, ConfigError, SingularEvaluationError,
                                SolverError)
from slenderfall import mobility
from slenderfall.mobility import _factorize

from conftest import (random_polyline_spec, random_walk_body, rfp_to_dense,
                      with_strip_rows)


def single_node_body(weight=0.25):
    return DiscreteBody(nodes=np.zeros((1, 3)), weights=np.array([weight]),
                        arclength=np.array([0.0]), density=np.array([1.0]),
                        panels=1, order=2, length=weight)


def test_single_node_system():
    p = KernelParams(ell=0.5, mu=2.0)
    w = 0.25
    M = rfp_to_dense(assemble_system(single_node_body(w), p))
    assert np.allclose(M, np.eye(3) / (6 * np.pi * p.mu * p.ell), rtol=1e-12)


def test_equal_weight_symmetry(params):
    # with equal node weights the unpacked matrix is symmetric, G being even
    n = 24
    th = 2 * np.pi * np.arange(n) / n
    nodes = np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)
    w = np.full(n, 2 * np.pi / n)
    body = DiscreteBody(nodes=nodes, weights=w, arclength=th, density=np.ones(n),
                        panels=n, order=2, length=float(w.sum()))
    M = rfp_to_dense(assemble_system(body, params))
    assert np.linalg.norm(M - M.T) <= 1e-12 * np.linalg.norm(M)


def test_duplicate_nodes_raise(params):
    body = DiscreteBody(nodes=np.zeros((2, 3)), weights=np.ones(2),
                        arclength=np.array([0.0, 1.0]), density=np.ones(2),
                        panels=1, order=2, length=2.0)
    with pytest.raises(AssemblyError):
        assemble_system(body, params)


def test_zero_motion_zero_force(rod_body, params):
    phi, f, t = solve_rigid_problem(rod_body, params, np.zeros(3), np.zeros(3))
    assert np.all(phi == 0) and np.all(f == 0) and np.all(t == 0)


def test_single_node_drag():
    p = KernelParams(ell=0.5, mu=2.0)
    phi, f, t = solve_rigid_problem(single_node_body(), p, [1.0, 0, 0], np.zeros(3))
    assert np.allclose(f, [-6 * np.pi * p.mu * p.ell, 0, 0], rtol=1e-12)
    assert np.allclose(t, 0)


def test_straight_rod_axial_spin_free(rod_body, params):
    phi, f, t = solve_rigid_problem(rod_body, params, np.zeros(3), [1.0, 0, 0])
    assert np.all(phi == 0) and np.all(f == 0) and np.all(t == 0)


def test_reciprocity(rod_R, ring_R, helix_R):
    for R in (rod_R, ring_R, helix_R):
        assert R.asymmetry <= 1e-8
        assert np.allclose(R.grand, R.grand.T)
        assert np.allclose(R.k_tr, R.k_rt.T)


def test_positivity(rod_R, ring_R, helix_R):
    for R in (rod_R, ring_R, helix_R):
        assert np.linalg.eigvalsh(R.k_tt).min() > 0
        scale = np.linalg.norm(R.grand)
        assert np.linalg.eigvalsh(R.grand).min() >= -1e-10 * scale
    # strict positivity for the non-straight bodies
    for R in (ring_R, helix_R):
        assert np.linalg.eigvalsh(R.grand).min() > 0


def test_rod_grand_matrix_axial_null(rod_R):
    # axial rotation of a straight rod generates no boundary data
    e_axis = np.array([0, 0, 0, 1.0, 0, 0])
    assert np.linalg.norm(rod_R.grand @ e_axis) == 0.0


def test_ring_no_coupling(ring_R):
    assert np.linalg.norm(ring_R.k_tr) <= 1e-8 * np.linalg.norm(ring_R.k_tt)


def test_helix_coupling_present(helix_R):
    assert np.linalg.norm(helix_R.k_tr) > 1e-2 * np.linalg.norm(helix_R.k_tt)


def test_force_density_identity(rod_body, rod_R, params):
    phi, f, t = solve_rigid_problem(rod_body, params, [1.0, 0, 0], np.zeros(3))
    assert np.allclose(f, -rod_R.k_tt @ [1.0, 0, 0], rtol=1e-8)
    assert np.allclose(t, -rod_R.k_rt @ [1.0, 0, 0], atol=1e-8 * np.abs(f).max())


def test_refinement_cauchy(rod_spec, params):
    grands = []
    for panels in (4, 8, 16):
        body = discretize(rod_spec, panels, order=4)
        grands.append(resistance_set(body, params).grand)
    d1 = np.linalg.norm(grands[1] - grands[0])
    d2 = np.linalg.norm(grands[2] - grands[1])
    assert d2 < d1


def test_evaluate_flow_collocation_identity(ring_body, params):
    xi, omega = np.array([0.2, -0.1, 0.4]), np.array([0.3, 0.0, -0.2])
    phi, _, _ = solve_rigid_problem(ring_body, params, xi, omega)
    q = 7
    xq = ring_body.nodes[q]
    u, p = evaluate_flow(ring_body, phi, xq, params, with_pressure=False)
    assert np.allclose(u, xi + np.cross(omega, xq), rtol=1e-10, atol=1e-12)
    assert p is None
    with pytest.raises(SingularEvaluationError):
        evaluate_flow(ring_body, phi, xq, params)


def test_evaluate_flow_far_field_decay(rod_body, params):
    phi, _, _ = solve_rigid_problem(rod_body, params, [0, 0, 1.0], np.zeros(3))
    u1, p1 = evaluate_flow(rod_body, phi, np.array([1e3, 0, 0]), params)
    u2, p2 = evaluate_flow(rod_body, phi, np.array([2e3, 0, 0]), params)
    ratio = np.linalg.norm(u2) / np.linalg.norm(u1)
    assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2
    assert np.isfinite(p1) and np.isfinite(p2)


def test_evaluate_flow_zero_density(rod_body, params):
    u, p = evaluate_flow(rod_body, np.zeros((rod_body.n_nodes, 3)),
                         np.array([1.0, 2.0, 3.0]), params)
    assert np.all(u == 0) and p == 0.0


def test_energy_dissipation(rod_R, ring_R):
    assert energy_dissipation(np.zeros(6), ring_R) == 0.0
    z = np.zeros(6)
    z[0] = 1.0
    assert energy_dissipation(z, ring_R) == pytest.approx(ring_R.k_tt[0, 0])
    assert energy_dissipation(z, ring_R) > 0
    # straight rod spun about its own axis dissipates nothing
    axial = np.zeros(6)
    axial[3] = 1.0
    assert energy_dissipation(axial, rod_R) == 0.0


def test_resistance_metadata(ring_body, ring_R, params):
    assert ring_R.n_nodes == ring_body.n_nodes
    assert ring_R.ell == params.ell and ring_R.mu == params.mu
    assert ring_R.shape_hash == ring_body.shape_hash()
    d = ring_R.to_dict()
    assert np.allclose(np.array(d["k_tt"]), ring_R.k_tt)


def weighted_lu_grand(body, params):
    """Grand matrix from an LU of the weighted Nystrom matrix M = G W."""
    x, w = body.nodes, body.weights
    n = body.n_nodes
    d = x[:, None, :] - x[None, :, :]
    r = np.linalg.norm(d, axis=2)
    A, B = kernel_scalars(r, params)
    xh = d / np.where(r == 0.0, 1.0, r)[:, :, None]
    G = A[:, :, None, None] * np.eye(3) + B[:, :, None, None] * (
        xh[:, :, :, None] * xh[:, :, None, :])
    M = (G * w[None, :, None, None]).transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    lu = sla.lu_factor(M)
    A6 = np.zeros((6, 6))
    for j in range(6):
        xi, omega = np.zeros(3), np.zeros(3)
        (xi if j < 3 else omega)[j % 3] = 1.0
        u = (xi[None, :] + np.cross(omega, x)).ravel()
        if np.linalg.norm(u) == 0.0:
            continue
        phi = sla.lu_solve(lu, u).reshape(n, 3)
        A6[:3, j] = (w[:, None] * phi).sum(axis=0)
        A6[3:, j] = (w[:, None] * np.cross(x, phi)).sum(axis=0)
    return 0.5 * (A6 + A6.T)


@pytest.mark.parametrize("body_name", ["rod_body", "ring_body", "helix_body", "polyline"])
def test_grand_matrix_matches_weighted_lu(body_name, request, params):
    if body_name == "polyline":
        spec = random_polyline_spec(np.random.default_rng(7), n_vertices=5)
        body = discretize(spec, panels=16, order=4)
    else:
        body = request.getfixturevalue(body_name)
    ref = weighted_lu_grand(body, params)
    grand = resistance_set(body, params).grand
    assert np.linalg.norm(grand - ref) <= 1e-12 * np.linalg.norm(ref)


def test_factorize_rejects_indefinite():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    G = Q @ np.diag([3.0, 2.0, 1.0, 0.5, -0.5, 1.5]) @ Q.T
    packed, info = lapack.dtrttf(0.5 * (G + G.T), transr="N", uplo="L")
    assert info == 0
    with pytest.raises(SolverError):
        _factorize(packed)


@pytest.mark.parametrize("m", [1, 2, 5, 6])
def test_rfp_diagonal_positions(m):
    # the entries whose finiteness _factorize checks, for both parities of m
    diagonal = np.arange(1.0, m + 1)
    packed, info = lapack.dtrttf(np.diag(diagonal), transr="N", uplo="L")
    assert info == 0
    assert np.array_equal(packed[mobility._rfp_diagonal(m)], diagonal)


def test_rotation_covariance(helix_spec, helix_body, helix_R, params):
    rng = np.random.default_rng(11)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R *= np.sign(np.linalg.det(R))
    b = helix_body
    rotated = DiscreteBody(nodes=b.nodes @ R.T, weights=b.weights,
                           arclength=b.arclength, density=b.density,
                           panels=b.panels, order=b.order, length=b.length)
    Rr = resistance_set(rotated, params)
    for name in ("k_tt", "k_tr", "k_rt", "k_rr"):
        K, Kr = getattr(helix_R, name), getattr(Rr, name)
        expected = R @ K @ R.T
        assert np.linalg.norm(Kr - expected) <= 1e-12 * np.linalg.norm(K), name


def test_assembly_beyond_memory_refused(params):
    n = 600_000
    body = DiscreteBody(nodes=np.zeros((n, 3)), weights=np.ones(n),
                        arclength=np.arange(n, dtype=float), density=np.ones(n),
                        panels=n // 2, order=2, length=float(n))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            assemble_system(body, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before any N x N array was allocated


def dense_green(x, params):
    """The Green matrix from whole N x N tables, the formula written out."""
    d = x[:, None, :] - x[None, :, :]
    r2 = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
    A, B = kernel_scalars(np.sqrt(r2), params)
    np.fill_diagonal(r2, np.inf)
    B = B / r2
    n = x.shape[0]
    G = np.empty((n, 3, n, 3))
    for a in range(3):
        for b in range(3):
            lo, hi = min(a, b), max(a, b)   # (b,a) is the same product as (a,b)
            G[:, a, :, b] = B * d[..., lo] * d[..., hi] + (A if a == b else 0.0)
    return G.reshape(3 * n, 3 * n)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 20, 29])
def test_assembly_strips_match_dense_reference(monkeypatch, params, n):
    # strips of 8 rows: one partial strip, one full strip, one row past it,
    # and four strips with a partial last one. Odd N gives an odd order
    # m = 3N, whose RFP split row h = (m + 1) / 2 falls inside a node; at
    # N = 16 h is a strip boundary, and at N = 20 the second strip straddles it
    with_strip_rows(monkeypatch, n, 8)
    body = random_walk_body(n)
    G = rfp_to_dense(assemble_system(body, params))
    assert np.array_equal(G, dense_green(body.nodes, params))


def test_assembly_default_strips_match_dense_reference(params):
    body = random_walk_body(300, seed=1)   # several strips of the default height
    G = rfp_to_dense(assemble_system(body, params))
    assert np.array_equal(G, dense_green(body.nodes, params))


@pytest.mark.parametrize("p, q", [(0, 28), (9, 27)])
def test_duplicate_nodes_in_different_strips_raise(monkeypatch, params, p, q):
    # nodes p and q sit in different strips; the pair is met in p's strip
    n = 29
    with_strip_rows(monkeypatch, n, 8)
    body = random_walk_body(n)
    body.nodes[q] = body.nodes[p]
    with pytest.raises(AssemblyError):
        assemble_system(body, params)


def test_assembly_peak_memory(helix_spec, params):
    body = discretize(helix_spec, panels=128, order=6)   # N = 768
    n = body.n_nodes
    tracemalloc.start()
    try:
        resistance_set(body, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 36 N^2 bytes of the packed matrix, factored in place, plus one
    # strip's temporaries
    assert peak <= 40 * n * n


def test_memory_guard_counts_packed_matrix(monkeypatch):
    # N = 1000 needs 36 N^2 bytes for the packed matrix plus about 1.6 MB of
    # strip temporaries: 40 N^2 bytes of RAM suffice, where the 72 N^2 of the
    # full square would not, and 30 N^2 do not
    n = 1000
    ram = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 40 * n * n}
    monkeypatch.setattr(mobility.os, "sysconf", ram.__getitem__)
    mobility._check_fits(n)
    ram["SC_PHYS_PAGES"] = 30 * n * n
    with pytest.raises(ConfigError):
        mobility._check_fits(n)
