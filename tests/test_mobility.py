"""Mobility module: collocation system, resistance matrices, basis force
densities."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from slenderfall import (CurveSpec, DiscreteBody, KernelParams, assemble_system,
                         discretize, kernel_scalars, resistance_set)
from slenderfall.errors import AssemblyError, ConfigError, SolverError
from slenderfall import geometry, mobility
from slenderfall.mobility import _factorize, rigid_data

from conftest import (dense_green, dense_min_separation, random_polyline_spec,
                      random_walk_body, rfp_to_dense, with_strip_rows)


def single_node_body(weight=0.25):
    return DiscreteBody(nodes=np.zeros((1, 3)), weights=np.array([weight]),
                        arclength=np.array([0.0]), density=np.array([1.0]),
                        panels=1, order=2, length=weight)


def test_single_node_system():
    p = KernelParams(ell=0.5, mu=2.0)
    w = 0.25
    M = rfp_to_dense(assemble_system(single_node_body(w), p)[0])
    assert np.allclose(M, np.eye(3) / (6 * np.pi * p.mu * p.ell), rtol=1e-12)


def test_equal_weight_symmetry(params):
    # with equal node weights the unpacked matrix is symmetric, G being even
    n = 24
    th = 2 * np.pi * np.arange(n) / n
    nodes = np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)
    w = np.full(n, 2 * np.pi / n)
    body = DiscreteBody(nodes=nodes, weights=w, arclength=th, density=np.ones(n),
                        panels=n, order=2, length=float(w.sum()))
    M = rfp_to_dense(assemble_system(body, params)[0])
    assert np.linalg.norm(M - M.T) <= 1e-12 * np.linalg.norm(M)


def test_duplicate_nodes_raise(params):
    body = DiscreteBody(nodes=np.zeros((2, 3)), weights=np.ones(2),
                        arclength=np.array([0.0, 1.0]), density=np.ones(2),
                        panels=1, order=2, length=2.0)
    with pytest.raises(AssemblyError):
        assemble_system(body, params)


def test_single_node_drag():
    # one node of weight w: the point force 6 pi mu ell per unit velocity
    # spread over w
    p = KernelParams(ell=0.5, mu=2.0)
    w = 0.25
    phi = resistance_set(single_node_body(w), p).densities[0]
    drag = 6 * np.pi * p.mu * p.ell / w
    assert np.allclose(phi[:, :3], drag * np.eye(3), rtol=1e-12, atol=0)
    assert np.all(phi[:, 3:] == 0)   # rotation about the node moves nothing


def test_straight_rod_axial_spin_free(rod_R):
    # the rod lies on the x axis: spinning about it generates no density
    assert np.all(rod_R.densities[:, :, 3] == 0)


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


def test_force_density_identity(rod_body, rod_R, ring_body, ring_R, helix_body,
                                helix_R, params):
    # sum w phi_j and sum w x x phi_j are column j of the grand matrix
    body = discretize(random_polyline_spec(np.random.default_rng(7), n_vertices=5),
                      panels=16, order=4)
    cases = ((rod_body, rod_R), (ring_body, ring_R), (helix_body, helix_R),
             (body, resistance_set(body, params)))
    for body, R in cases:
        w = body.weights[:, None, None]
        force = (w * R.densities).sum(axis=0)
        torque = (w * np.cross(body.nodes[:, :, None], R.densities, axis=1)).sum(axis=0)
        for j in range(6):
            column = np.r_[force[:, j], torque[:, j]]
            assert (np.linalg.norm(column - R.grand[:, j])
                    <= 1e-12 * np.linalg.norm(R.grand[:, j])), j


def test_refinement_cauchy(rod_spec, params):
    grands = []
    for panels in (4, 8, 16):
        body = discretize(rod_spec, panels, order=4)
        grands.append(resistance_set(body, params).grand)
    d1 = np.linalg.norm(grands[1] - grands[0])
    d2 = np.linalg.norm(grands[2] - grands[1])
    assert d2 < d1


def test_density_collocation_identity(ring_body, ring_R, helix_body, helix_R,
                                      params):
    # the flow of the point forces w phi, evaluated at the nodes, is the
    # rigid motion: G (W Phi) = U, for the six unit motions and a mixed one
    eye = np.eye(3)
    for body, R in ((ring_body, ring_R), (helix_body, helix_R)):
        x, w = body.nodes, body.weights[:, None]
        G = dense_green(x, params)
        motions = [(eye[j], np.zeros(3)) for j in range(3)]
        motions += [(np.zeros(3), eye[j]) for j in range(3)]
        motions += [([0.2, -0.1, 0.4], [0.3, 0.0, -0.2])]
        for xi, omega in motions:
            phi = R.densities @ np.r_[xi, omega]
            rigid = (xi + np.cross(omega, x)).ravel()
            assert (np.linalg.norm(G @ (w * phi).ravel() - rigid)
                    <= 1e-10 * np.linalg.norm(rigid)), (xi, omega)


def test_density_far_field_decay(rod_body, rod_R, params):
    # the flow of a translating rod falls off like a Stokeslet, 1/r: the
    # velocity at a far point is block row 0 of the Green matrix of that
    # point and the nodes, applied to the point forces w phi
    psi = (rod_body.weights[:, None] * rod_R.densities[:, :, 2]).ravel()
    u = [dense_green(np.vstack([[r, 0.0, 0.0], rod_body.nodes]), params)[:3, 3:] @ psi
         for r in (1e3, 2e3)]
    ratio = np.linalg.norm(u[1]) / np.linalg.norm(u[0])
    assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2


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


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 20, 29])
def test_assembly_strips_match_dense_reference(monkeypatch, params, n):
    # strips of 8 rows: one partial strip, one full strip, one row past it,
    # and four strips with a partial last one. Odd N gives an odd order
    # m = 3N, whose RFP split row h = (m + 1) / 2 falls inside a node; at
    # N = 16 h is a strip boundary, and at N = 20 the second strip straddles it
    with_strip_rows(monkeypatch, n, 8)
    body = random_walk_body(n)
    G = rfp_to_dense(assemble_system(body, params)[0])
    assert np.array_equal(G, dense_green(body.nodes, params))


def test_assembly_default_strips_match_dense_reference(params):
    body = random_walk_body(300, seed=1)   # several strips of the default height
    packed, separation = assemble_system(body, params)
    assert np.array_equal(rfp_to_dense(packed), dense_green(body.nodes, params))
    assert separation == dense_min_separation(body.nodes)[0]


def test_pair_strips_balanced():
    # consecutive strips cover the rows; every strip but the last is within
    # one row of _STRIP_PAIRS pairs, and none holds more than
    # max(_STRIP_PAIRS, its columns)
    for n in (1, 90, 91, 2304, 9000):
        x = np.zeros((n, 3))
        strips = [(p0, p1, r2.size) for p0, p1, _, r2 in geometry.pair_strips(x)]
        assert [p0 for p0, _, _ in strips] == [0] + [p1 for _, p1, _ in strips[:-1]]
        assert strips[-1][1] == n
        for p0, p1, size in strips:
            cols = n - p0
            assert size == (p1 - p0) * cols <= max(geometry._STRIP_PAIRS, cols)
            if p1 < n:
                assert size + cols > geometry._STRIP_PAIRS


def test_min_separation_across_strip_boundary(monkeypatch, params):
    n = 29
    with_strip_rows(monkeypatch, n, 8)
    body = random_walk_body(n)
    body.nodes[8] = body.nodes[7] + 1e-4   # rows 7 and 8 are in different strips
    ref, pair = dense_min_separation(body.nodes)
    assert sorted(pair) == [7, 8]
    R = resistance_set(body, params)
    assert R.blocks == (3 * n,) and R.min_separation == ref


def test_readme_helix_min_separation(helix_spec, params):
    body = discretize(helix_spec, panels=256, order=6)   # N = 1536
    ref, _ = dense_min_separation(body.nodes)
    R = resistance_set(body, params)
    assert R.blocks == () and R.solver["path"] == "toeplitz-pcg"
    assert abs(R.min_separation - ref) <= 1e-12 * ref   # measured 2.0e-14


def test_reciprocity_gate_measures_pcg_on_the_readme_helix(helix_spec, params):
    # on the block-Toeplitz path A6 = U^T psi is symmetric only as far as
    # PCG converged: the asymmetry gate reads its error (measured 9.5e-16)
    body = discretize(helix_spec, panels=256, order=6)   # N = 1536
    R = resistance_set(body, params)
    assert R.solver["path"] == "toeplitz-pcg"
    assert 0.0 < R.asymmetry <= 1e-12


def mirror_body(n, seed=0, close=None, gap=1e-3):
    """N nodes, the last N/2 the first N/2 in reverse order turned by pi
    about an axis, then rotated and moved. close = (p, q) puts node q at
    `gap` from node p: q < N/2 moves node q itself, q >= N/2 moves node
    N-1-q so that its mirror image lands there."""
    rng = np.random.default_rng(seed)
    h, turn = n // 2, np.array([1.0, -1.0, -1.0])
    y = rng.uniform(-1.0, 1.0, size=(h, 3))
    if close is not None:
        p, q = close
        target = y[p] + gap * np.array([0.6, 0.0, 0.8])
        if q < h:
            y[q] = target
        else:
            y[n - 1 - q] = target * turn
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    nodes = np.vstack([y, (y * turn)[::-1]]) @ Q.T + np.array([0.3, -1.2, 2.5])
    return DiscreteBody(nodes=nodes, weights=np.ones(n),
                        arclength=np.arange(n, dtype=float), density=np.ones(n),
                        panels=n, order=2, length=float(n))


@pytest.mark.parametrize("close", [(3, 20), (5, 29)], ids=["same-half", "across-halves"])
def test_symmetric_min_separation_across_strips(monkeypatch, params, close):
    # a reversal-symmetric body that is not panel-periodic takes the
    # one-block strip path. N = 48 in strips of 8 rows: nodes 3 and 20 sit
    # in different strips, and node 29, the mirror of node 18, in a
    # different strip from node 5
    n = 48
    with_strip_rows(monkeypatch, n, 8)
    body = mirror_body(n, close=close)
    ref, pair = dense_min_separation(body.nodes)
    p, q = close
    assert sorted(pair) in (sorted(close), sorted((n - 1 - p, n - 1 - q)))  # or its mirror
    R = resistance_set(body, params)
    assert R.blocks == (3 * n,) and R.min_separation == ref
    body = mirror_body(n, close=close, gap=0.0)
    assert mobility._reversal_symmetry(body.nodes) is not None
    with pytest.raises(AssemblyError):
        resistance_set(body, params)


@pytest.mark.parametrize("p, q", [(0, 28), (9, 27), (3, 20)])
def test_duplicate_nodes_in_different_strips_raise(monkeypatch, params, p, q):
    # nodes p and q sit in different strips; the pair is met in p's strip
    n = 29
    with_strip_rows(monkeypatch, n, 8)
    body = random_walk_body(n)
    body.nodes[q] = body.nodes[p]
    with pytest.raises(AssemblyError):
        assemble_system(body, params)


def test_assembly_peak_memory(params):
    # a body without reversal symmetry takes the one-block path
    spec = random_polyline_spec(np.random.default_rng(7), n_vertices=5)
    body = discretize(spec, panels=192, order=4)   # N = 768
    n = body.n_nodes
    tracemalloc.start()
    try:
        R = resistance_set(body, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert R.blocks == (3 * n,)
    # the 36 N^2 bytes of the packed matrix, factored in place, plus one
    # strip's temporaries
    assert peak <= 40 * n * n


def test_symmetric_assembly_peak_memory(monkeypatch, helix_spec, params):
    # an open body below N_x takes the two dense blocks
    monkeypatch.setattr(mobility, "_TOEPLITZ_MIN_NODES", 10 ** 9)
    body = discretize(helix_spec, panels=128, order=6)   # N = 768
    n = body.n_nodes
    tracemalloc.start()
    try:
        R = resistance_set(body, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert R.blocks == (3 * n // 2,) * 2
    # one packed block of order 3N/2 at a time, 9 N^2 bytes, plus the
    # generators and the 3N x 6 right-hand sides: measured 11.8 N^2
    assert peak <= 13.5 * n * n


def test_memory_guard_counts_packed_matrix(monkeypatch, params):
    # N = 1000 needs 36 N^2 bytes for the packed matrix plus about 1.4 MB of
    # strip temporaries: 40 N^2 bytes of RAM suffice, where the 72 N^2 of the
    # full square would not, and 30 N^2 do not
    n = 1000
    ram = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 40 * n * n}
    monkeypatch.setattr(mobility.os, "sysconf", ram.__getitem__)
    mobility._check_fits(n)
    ram["SC_PHYS_PAGES"] = 30 * n * n
    with pytest.raises(ConfigError):
        mobility._check_fits(n)
    # a ring of N = 1000 is solved by block-Toeplitz PCG, in memory linear
    # in N: it is solved in 12 N^2 bytes of RAM, where an asymmetric body
    # is refused
    ram["SC_PHYS_PAGES"] = 12 * n * n
    ring = discretize(CurveSpec(kind="ring", radius=1.0), panels=250, order=4)
    assert resistance_set(ring, params).blocks == ()
    with pytest.raises(ConfigError):
        resistance_set(random_walk_body(n), params)


def cholesky_reference(body, params):
    """Grand matrix and basis densities from a Cholesky solve with the
    whole dense Green matrix of conftest.dense_green."""
    eye, zero = np.eye(3), np.zeros(3)
    U = np.stack([rigid_data(body, eye[j], zero) for j in range(3)]
                 + [rigid_data(body, zero, eye[j]) for j in range(3)], axis=1)
    psi = sla.cho_solve(sla.cho_factor(dense_green(body.nodes, params)), U)
    grand = U.T @ psi
    return 0.5 * (grand + grand.T), psi.reshape(-1, 3, 6) / body.weights[:, None, None]


def _moved(body, transform):
    return replace(body, nodes=transform(body.nodes.copy()))


def _rotated_and_translated(x):
    Q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    return x @ Q.T + np.array([0.3, -1.2, 2.5])


def _one_node_moved(x):
    x[17, 2] += 1e-9
    return x


README_HELIX = CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0)
SYMMETRY_CASES = {
    # (body, diagonal blocks)
    # two blocks, filled from the panel generators: straight (rank-1
    # nodes) and chiral open bodies below N_x
    "rod": (lambda: discretize(CurveSpec(kind="rod", length=2.0), 16, 4), 2),
    # none: a closed body is solved by block-Toeplitz PCG at every N
    "ring": (lambda: discretize(CurveSpec(kind="ring", radius=1.0), 16, 4), 0),
    "README-helix": (lambda: discretize(README_HELIX, 32, 6), 2),
    "moved-helix": (lambda: _moved(discretize(README_HELIX, 16, 4),
                                   _rotated_and_translated), 2),
    "linear-density-rod": (lambda: discretize(CurveSpec(
        kind="rod", length=2.0, density=lambda s: 1.0 + s), 16, 4), 2),
    # odd P, even k: node N/2 = 30 falls inside panel 7
    "odd-P-rod": (lambda: discretize(CurveSpec(kind="rod", length=2.0), 15, 4), 2),
    # one block, assembled in strips: reversal-symmetric but not
    # panel-periodic (the V), odd N, or neither symmetry
    "V-polyline": (lambda: discretize(CurveSpec(
        kind="polyline", vertices=np.array([[-1.0, 1.5, 0], [0, 0, 0], [1, 1.5, 0]])),
        16, 4), 1),
    "odd-N-rod": (lambda: discretize(CurveSpec(kind="rod", length=2.0), 15, 3), 1),
    "odd-N-helix": (lambda: discretize(README_HELIX, 13, 3), 1),
    "random-polyline": (lambda: discretize(
        random_polyline_spec(np.random.default_rng(7), n_vertices=5), 16, 4), 1),
    "helix-one-node-moved": (lambda: _moved(discretize(README_HELIX, 16, 4),
                                            _one_node_moved), 1),
}


@pytest.mark.parametrize("name", SYMMETRY_CASES)
def test_reversal_symmetry_selects_the_path(name, params):
    # reversal-symmetric, panel-periodic bodies are solved by block-Toeplitz
    # PCG when closed, else on two half-size blocks filled from the
    # generators; every other body on one block assembled in strips. Every
    # path gives the dense Cholesky solution
    make, n_blocks = SYMMETRY_CASES[name]
    body = make()
    n = body.n_nodes
    R = resistance_set(body, params)
    assert R.blocks == {0: (), 1: (3 * n,), 2: (3 * n // 2,) * 2}[n_blocks]
    grand, densities = cholesky_reference(body, params)
    assert np.linalg.norm(R.grand - grand) <= 1e-13 * np.linalg.norm(grand)
    assert (np.linalg.norm(R.densities - densities)
            <= 1e-13 * np.linalg.norm(densities))


@pytest.mark.parametrize("name", ["README-helix", "rod", "ring"])
def test_toeplitz_path_matches_dense_reference(monkeypatch, name, params):
    # with N_x lowered, open bodies take block-Toeplitz PCG too; it solves
    # the same matrix to roundoff (measured: grand 3.5e-16 to 9.2e-16,
    # densities 7.8e-15 to 2.9e-13, least node distance 8.1e-15)
    monkeypatch.setattr(mobility, "_TOEPLITZ_MIN_NODES", 0)
    body = SYMMETRY_CASES[name][0]()
    R = resistance_set(body, params)
    assert R.blocks == () and R.solver["path"] == "toeplitz-pcg"
    assert 0 < R.solver["iterations"] and R.solver["residual"] <= mobility._PCG_RTOL
    grand, densities = cholesky_reference(body, params)
    assert np.linalg.norm(R.grand - grand) <= 1e-13 * np.linalg.norm(grand)
    assert (np.linalg.norm(R.densities - densities)
            <= 1e-10 * np.linalg.norm(densities))
    ref, _ = dense_min_separation(body.nodes)
    assert abs(R.min_separation - ref) <= 1e-13 * ref


def test_indefinite_toeplitz_matrix_is_a_solver_error(monkeypatch, params):
    # a large antisymmetric part of T'(1) leaves Chan's preconditioner of a
    # two-panel rod, which sees only its symmetric part, positive definite
    # but makes the matrix indefinite: PCG meets p^T A p < 0 and stops
    green = mobility._panel_green

    def skewed(*args):
        T, sep = green(*args)
        k = T.shape[1]
        A = np.random.default_rng(0).normal(size=(3 * k, 3 * k))
        T[1] += 1e3 * np.abs(T[0]).max() * (A - A.T).reshape(k, 3, k, 3)
        return T, sep

    monkeypatch.setattr(mobility, "_panel_green", skewed)
    monkeypatch.setattr(mobility, "_TOEPLITZ_MIN_NODES", 0)
    body = discretize(CurveSpec(kind="rod", length=2.0), 2, 4)
    with pytest.raises(SolverError, match="p\\^T A p = .* not positive"):
        resistance_set(body, params)


@pytest.mark.parametrize("panels, order", [(256, 6), (15, 4), (2, 2), (3, 16)])
def test_memory_guard_bounds_the_toeplitz_solve(params, panels, order):
    # the guard's count is an upper bound on what the kernel pass and the
    # solve allocate, T' held throughout for the dense fallback (measured
    # 0.32 to 0.89 of it)
    body = discretize(README_HELIX, panels, order)
    frame, panel_frames = periodic_frame(body)
    U3 = np.ones((body.n_nodes, 3, 6))
    tracemalloc.start()
    try:
        T, _ = mobility._panel_green(frame.nodes, order, panel_frames.W, params)
        A6 = mobility._toeplitz_pcg(T, panel_frames, U3, frame.closed)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A6 is not None
    assert 0 < peak <= 8 * mobility._toeplitz_doubles(body.n_nodes, order)


def test_block_pcg_on_dependent_and_zero_columns(monkeypatch, params):
    # the straight rod's columns decouple and its axial spin is zero; with
    # column 1 set to column 0 as well, the first basis narrows to rank 4,
    # and the block solve matches the solves of one column at a time
    calls, bases = [], []
    pcg, orthonormal = mobility._toeplitz_pcg, mobility._orthonormal
    monkeypatch.setattr(mobility, "_toeplitz_pcg",
                        lambda *args: calls.append(args) or pcg(*args))
    monkeypatch.setattr(mobility, "_orthonormal",
                        lambda *args: bases.append(orthonormal(*args)) or bases[-1])
    monkeypatch.setattr(mobility, "_TOEPLITZ_MIN_NODES", 0)
    resistance_set(SYMMETRY_CASES["rod"][0](), params)
    T, panels, U3, closed = calls[0]
    zero = ~U3.any(axis=(0, 1))
    assert zero.sum() == 1
    U3 = U3.copy()
    U3[..., 1] = U3[..., 0]
    bases.clear()
    A6, psi, solver = pcg(T, panels, U3, closed)
    assert bases[0][0].shape[1] == 4 and solver["residual"] <= mobility._PCG_RTOL
    columns = np.zeros_like(psi)
    for j in np.flatnonzero(~zero):
        one = np.zeros_like(U3)
        one[..., j] = U3[..., j]
        columns[..., j] = pcg(T, panels, one, closed)[1][..., j]
    assert np.all(psi[..., zero] == 0.0)
    grand = U3.reshape(-1, 6).T @ columns.reshape(-1, 6)
    assert np.linalg.norm(A6 - grand) <= 1e-13 * np.linalg.norm(grand)
    assert np.linalg.norm(psi - columns) <= 1e-10 * np.linalg.norm(columns)


def test_block_pcg_iterations_on_the_readme_helix(helix_spec, params):
    # one Krylov space per parity of the reversal, of the ranks of its
    # right-hand sides, 2 and 4: 17 iterations at N = 1536, where the six
    # rigid motions unfolded took 15 and one recurrence per column 24
    R = resistance_set(discretize(helix_spec, panels=256, order=6), params)
    assert R.solver["path"] == "toeplitz-pcg" and R.solver["iterations"] <= 17
    assert R.solver["widths"] == [2, 4]


@pytest.mark.parametrize("name", ["README-helix", "rod"])
def test_pcg_residual_is_the_largest_column_residual(monkeypatch, name, params):
    # PCG stops, and reports its residual, per original column j over both
    # parities, sqrt(|r+_j|^2 + |r-_j|^2) / sqrt(|U+_j|^2 + |U-_j|^2): the
    # relative residual of the returned forces in the dense Green matrix
    # (stopped at 1e-6, the two agreed to 1e-9)
    monkeypatch.setattr(mobility, "_TOEPLITZ_MIN_NODES", 0)
    monkeypatch.setattr(mobility, "_PCG_RTOL", 1e-6)
    body = SYMMETRY_CASES[name][0]()
    R = resistance_set(body, params)
    assert R.solver["path"] == "toeplitz-pcg" and 1e-8 < R.solver["residual"] <= 1e-6
    eye, zero = np.eye(3), np.zeros(3)
    U = np.stack([rigid_data(body, eye[j], zero) for j in range(3)]
                 + [rigid_data(body, zero, eye[j]) for j in range(3)], axis=1)
    psi = (R.densities * body.weights[:, None, None]).reshape(-1, 6)
    cols = np.linalg.norm(U, axis=0) > 0.0   # the rod's axial spin is zero
    residual = (np.linalg.norm(dense_green(body.nodes, params) @ psi - U, axis=0)[cols]
                / np.linalg.norm(U, axis=0)[cols])
    assert abs(R.solver["residual"] - residual.max()) <= 1e-6 * residual.max()


@pytest.mark.parametrize("mu", [1e-300, 1e300])
def test_toeplitz_path_at_extreme_mu(monkeypatch, mu):
    # the iteration is blind to the preconditioner's scale: at mu = 1e-300
    # the Green matrix is about 1e300 and PCG gives mu times the mu = 1 answer
    monkeypatch.setattr(mobility, "_TOEPLITZ_MIN_NODES", 0)
    body = SYMMETRY_CASES["README-helix"][0]()
    ref = resistance_set(body, KernelParams(ell=0.1))
    R = resistance_set(body, KernelParams(ell=0.1, mu=mu))
    assert R.solver["path"] == "toeplitz-pcg"
    assert np.linalg.norm(R.grand / mu - ref.grand) <= 1e-13 * np.linalg.norm(ref.grand)
    assert (np.linalg.norm(R.densities / mu - ref.densities)
            <= 1e-10 * np.linalg.norm(ref.densities))


@pytest.mark.parametrize("name, path", [("rod", "two blocks"), ("ring", "PCG"),
                                        ("README-helix", "fallback")])
def test_one_kernel_pass_per_panel_periodic_body(monkeypatch, name, path, params):
    # T' is the one generator of both solves: the kernel runs once per body
    # on the two blocks, on PCG, and on the two blocks after PCG's cap
    calls = {"_panel_green": 0, "kernel_scalars": 0}
    for fn in calls:
        original = getattr(mobility, fn)
        monkeypatch.setattr(mobility, fn, lambda *args, fn=fn, original=original:
                            calls.__setitem__(fn, calls[fn] + 1) or original(*args))
    if path == "fallback":
        monkeypatch.setattr(mobility, "_TOEPLITZ_MIN_NODES", 0)
        monkeypatch.setattr(mobility, "_PCG_MAX_ITER", 1)
    body = SYMMETRY_CASES[name][0]()
    R = resistance_set(body, params)
    assert calls == {"_panel_green": 1, "kernel_scalars": 1}
    assert R.blocks == (() if path == "PCG" else (3 * body.n_nodes // 2,) * 2)
    assert (R.solver["fallback"] is not None) == (path == "fallback")
    grand, _ = cholesky_reference(body, params)
    assert np.linalg.norm(R.grand - grand) <= 1e-13 * np.linalg.norm(grand)


def test_screw_fit_only_on_reversal_symmetric_bodies(monkeypatch, params):
    # a polyline without reversal symmetry goes to the strip path without
    # the screw fit; the README helix makes the one fit that selects its path
    calls = []
    fit = mobility._panel_frames
    monkeypatch.setattr(mobility, "_panel_frames",
                        lambda *args: calls.append(args) or fit(*args))
    body = SYMMETRY_CASES["random-polyline"][0]()
    assert resistance_set(body, params).blocks == (3 * body.n_nodes,)
    assert calls == []
    body = SYMMETRY_CASES["README-helix"][0]()
    assert resistance_set(body, params).blocks == (3 * body.n_nodes // 2,) * 2
    assert len(calls) == 1


DIMENSION = st.floats(min_value=0.1, max_value=10.0)
BUILT_IN_SPECS = st.one_of(
    st.builds(CurveSpec, kind=st.just("rod"), length=DIMENSION),
    st.builds(CurveSpec, kind=st.just("ring"), radius=DIMENSION),
    st.builds(CurveSpec, kind=st.just("helix"), radius=st.floats(0.1, 3.0),
              pitch=st.floats(0.1, 3.0), turns=st.floats(0.25, 4.0)))


@settings(max_examples=25, deadline=None)
@given(spec=BUILT_IN_SPECS, panels=st.integers(2, 40), order=st.sampled_from([2, 4, 6, 8]))
def test_built_in_bodies_take_the_two_block_path(params, spec, panels, order):
    # every rod, ring and helix of even N >= 8 passes both fits; one that
    # failed would fall to the one-block factor, four times the work. Open
    # bodies below N_x (all of these) take the two blocks, rings PCG. The
    # 4-node ring and helix (P = k = 2) fail Horn's simplicity test
    assume(panels * order >= 8)
    body = discretize(spec, panels, order)
    R = resistance_set(body, params)
    assert R.blocks == (() if spec.kind == "ring" else (3 * body.n_nodes // 2,) * 2)


@pytest.mark.parametrize("radius", [0.003, 0.001])
def test_thin_helices_take_the_panel_periodic_path(radius):
    # Horn's top eigenvalue is nearly double for a thin helix, and its
    # screw angle alone missed the node images by up to 5e-11 of the
    # extent; the Gauss-Newton step after it brings them within 1e-12
    for panels in range(2, 41):
        body = discretize(CurveSpec(kind="helix", radius=radius, pitch=1.0, turns=4.0),
                          panels, 6)
        c, Q, eps = mobility._reversal_symmetry(body.nodes)
        frame = replace(body, nodes=(body.nodes - c) @ Q)
        assert mobility._panel_frames(frame, eps) is not None, panels


def periodic_frame(body):
    """A panel-periodic body in the eigenframe of its reversal, and its
    panels."""
    c, Q, eps = mobility._reversal_symmetry(body.nodes)
    frame = replace(body, nodes=(body.nodes - c) @ Q)
    return frame, mobility._panel_frames(frame, eps)


def periodic_blocks(body, params):
    """The body of periodic_frame, its panels, and the two Green blocks it
    is solved on, D^T G+- D in the panel frames, as dense references
    independent of T': G+- from the whole Green matrix of
    conftest.dense_green, reduced by the reversal, and turned by the panel
    rotations W_i."""
    frame, panels = periodic_frame(body)
    n, rows = body.n_nodes, body.n_nodes // 2
    G = dense_green(frame.nodes, params).reshape(n, 3, n, 3)
    near, far = G[:rows, :, :rows], G[:rows, :, ::-1][:, :, :rows] * panels.eps
    W = panels.W[np.arange(rows) // body.order]
    blocks = [np.einsum("pca,pcqd,qdb->paqb", W, near + sign * far, W)
              .reshape(3 * rows, 3 * rows) for sign in (1.0, -1.0)]
    return frame, panels, blocks


@pytest.mark.parametrize("name", ["rod", "ring", "README-helix", "odd-P-rod"])
def test_panel_generators_match_dense_reference(name, params):
    # the blocks filled from the windows of T' and H'(sigma) = T'(P - 1 -
    # sigma)^T K are W^T G+- W in the eigenframe of the reversal
    frame, panels, blocks = periodic_blocks(SYMMETRY_CASES[name][0](), params)
    rows = frame.n_nodes // 2
    T, _ = mobility._panel_green(frame.nodes, panels.k, panels.W, params)
    Z, Y = mobility._generators(T, (rows - 1) // panels.k, panels)
    for sign, ref in zip((1.0, -1.0), blocks):
        got = rfp_to_dense(mobility._fill_periodic(Z, Y, rows, sign))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["README-helix", "rod", "ring", "odd-P-rod"])
def test_folded_product_matches_the_dense_blocks(name, params):
    # G+- times vectors of the first N/2 nodes in the panel frames, the
    # halves of reversal-even and -odd vectors, through real transforms of
    # length P (2P for odd P) and real symbols, is the product with the
    # dense reference block: open and straight (W = I), closed, and odd P,
    # whose middle panel the halves split
    frame, panels, blocks = periodic_blocks(SYMMETRY_CASES[name][0](), params)
    fold, product, _, embedded = folded(frame, panels, params)
    assert embedded == (name != "ring")
    x = np.random.default_rng(3).normal(size=(frame.n_nodes // 2, 3, 4))
    for parity, G in zip((1.0, -1.0), blocks):
        ref = (G @ x.reshape(-1, 4)).reshape(x.shape)
        got = fold.from_rep(fold.apply(product, fold.to_rep(x, parity),
                                       np.full(4, parity), embedded), parity)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def folded(frame, panels, params):
    """The folded vectors and symbols of mobility._operators for a body in
    the eigenframe of its reversal."""
    T, _ = mobility._panel_green(frame.nodes, panels.k, panels.W, params)
    return mobility._operators(T, panels, frame.closed)


def test_folded_preconditioner_inverts_a_ring(params):
    # a ring's Green matrix is its own block circulant: the inverse of
    # Chan's folded symbols, at unit scale, undoes the product to roundoff
    fold, product, inverse, embedded = folded(
        *periodic_frame(SYMMETRY_CASES["ring"][0]()), params)
    x = np.random.default_rng(4).normal(size=(fold.h * 3 * fold.k, 4))
    for side in (np.ones(4), -np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])):
        y = fold.apply(inverse, fold.apply(product, x, side, embedded), side, False)
        scale = (x * y).sum() / (x * x).sum()
        assert np.linalg.norm(y - scale * x) <= 1e-13 * np.linalg.norm(y)


@pytest.mark.parametrize("panels, order", [(64, 6), (15, 4), (100, 2)])
def test_memory_guard_bounds_the_periodic_fill(monkeypatch, params, panels, order):
    # the guard of the two-block solve counts the arrays its fill holds,
    # one packed block, T', Z and Y, and the ufunc's buffers: an upper bound
    # on what the kernel pass, the windows and the first block's fill
    # allocate (measured 0.32 to 0.97 of it)
    counted = []
    require = mobility.require_memory
    monkeypatch.setattr(mobility, "require_memory",
                        lambda m, where, temps=0: counted.append((m, temps)) or
                        require(m, where, temps))
    frame, panel_frames = periodic_frame(discretize(README_HELIX, panels, order))
    rows = frame.n_nodes // 2
    tracemalloc.start()
    try:
        T, _ = mobility._panel_green(frame.nodes, order, panel_frames.W, params)
        Z, Y = mobility._generators(T, (rows - 1) // order, panel_frames)
        mobility._fill_periodic(Z, Y, rows, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mobility._two_blocks(T, panel_frames, np.ones((frame.n_nodes, 3, 6)))
    (m, temporaries), = counted
    assert 0 < peak <= 8 * (m * (m + 1) // 2 + temporaries)
