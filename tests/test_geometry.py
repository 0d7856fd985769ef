"""Geometry module: discretization, mass properties, diagnostics."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slenderfall import (CurveSpec, cli, discretize, load_polyline_csv,
                         mass_properties, validate_geometry)
from slenderfall.errors import GeometryError

from conftest import dense_min_separation


def test_rod_arclength_exact(rod_spec):
    body = discretize(rod_spec, panels=4, order=4)
    assert body.n_nodes == 16
    assert abs(body.length - 1.0) <= 1e-12


def test_ring_arclength():
    body = discretize(CurveSpec(kind="ring", radius=1.0), panels=8, order=6)
    assert abs(body.length - 2 * np.pi) <= 1e-10


def test_helix_arclength(helix_spec):
    body = discretize(helix_spec, panels=16, order=6)
    exact = 2.0 * np.sqrt((2 * np.pi) ** 2 + 1.0)
    assert abs(body.length - exact) <= 1e-8


def test_discretize_deterministic(helix_spec):
    b1 = discretize(helix_spec, panels=8, order=4)
    b2 = discretize(helix_spec, panels=8, order=4)
    assert np.array_equal(b1.nodes, b2.nodes)
    assert np.array_equal(b1.weights, b2.weights)


def test_mass_centering(helix_spec):
    def rho(s):
        return 1.0 + 0.5 * np.asarray(s, float)

    spec = CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0, density=rho)
    body = discretize(spec, panels=16, order=6)
    mass_mean = (body.weights * body.density)[:, None] * body.nodes
    assert np.linalg.norm(mass_mean.sum(axis=0)) <= 1e-10 * body.length


def test_uniform_rod_centroid_zero(rod_body):
    mp = mass_properties(rod_body, m_c=0.0)
    assert np.linalg.norm(mp.r) <= 1e-12
    assert mp.m_e == mp.m - mp.m_c


def test_ring_inertia(ring_spec, ring_body, ring_mp):
    a = 1.0
    m = ring_mp.m
    expected = np.diag([m * a ** 2 / 2, m * a ** 2 / 2, m * a ** 2])
    assert np.allclose(ring_mp.inertia, expected, rtol=1e-8)


def test_ring_inertia_at_the_largest_mass(ring_body, ring_mp):
    # m = 1e308 on a unit ring: J33 = m a^2 = 1e308, so J + J^T overflows
    m = 1e308
    heavy = mass_properties(replace(ring_body, density=np.full_like(
        ring_body.weights, m / ring_body.length)))
    assert np.isfinite(heavy.inertia).all()
    assert np.abs(heavy.inertia - ring_mp.inertia * (m / ring_mp.m)).max() <= 1e-12 * m


def test_rod_inertia_null_axis(rod_mp):
    evals, evecs = np.linalg.eigh(rod_mp.inertia)
    assert evals[0] <= 1e-10 * evals[-1]
    axis = evecs[:, 0]
    assert abs(abs(axis[0]) - 1.0) <= 1e-10


def test_nonuniform_density_offsets_centroid(rod_spec):
    def rho(s):
        return 1.0 + 2.0 * np.asarray(s, float)

    spec = CurveSpec(kind="rod", length=1.0, density=rho)
    body = discretize(spec, panels=8, order=4)
    mp = mass_properties(body)
    # mass-weighted mean is the origin, so the uniform centroid shifts away
    assert np.linalg.norm(mp.r) > 1e-3


def diagnose(body, ell):
    return validate_geometry(body, ell, dense_min_separation(body.nodes)[0])


def test_validate_rod_straight(rod_body, params):
    diag = diagnose(rod_body, params.ell)
    assert diag.straightness < 1e-12
    assert not diag.closed


def test_validate_ring(ring_body, params):
    diag = diagnose(ring_body, params.ell)
    assert 0.1 < diag.straightness < 0.5
    assert diag.closed


def test_validate_open_c_polyline_not_closed():
    # the end nodes sit 0.01 apart, nearer than twice the node spacing
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0.01, 0.0]])
    body = discretize(CurveSpec(kind="polyline", vertices=verts), panels=32, order=4)
    assert not diagnose(body, 0.1).closed


def test_validate_coarse_ring_closed():
    body = discretize(CurveSpec(kind="ring", radius=1.0), panels=1, order=2)
    assert diagnose(body, 0.1).closed


def test_validate_close_nodes_warns(rod_spec):
    body = discretize(rod_spec, panels=32, order=8)  # spacing well below ell/10
    diag = diagnose(body, ell=1.0)
    assert any("ell/10" in w for w in diag.warnings)


def test_polyline_panels_per_edge():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 5.0]])
    spec = CurveSpec(kind="polyline", vertices=verts)
    body = discretize(spec, panels=6, order=3)
    # every edge carries at least one panel and panels never straddle a vertex,
    # so the arc-length coordinates of the edges separate the panel nodes
    assert body.panels >= 3
    assert body.n_nodes == 3 * body.panels
    edge_arcs = np.cumsum([0.0, 1.0, 1.0, 5.0])
    for s_edge in edge_arcs:
        assert np.abs(body.arclength - s_edge).min() > 1e-12


def test_polyline_self_intersection_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 0.5, 0], [0.5, -0.5, 0.0]])
    with pytest.raises(GeometryError):
        CurveSpec(kind="polyline", vertices=verts)


def test_zero_length_segment_rejected():
    verts = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0.0]])
    with pytest.raises(GeometryError):
        CurveSpec(kind="polyline", vertices=verts)


def test_bad_discretization_args(rod_spec):
    with pytest.raises(GeometryError):
        discretize(rod_spec, panels=0, order=4)
    with pytest.raises(GeometryError):
        discretize(rod_spec, panels=4, order=1)


@pytest.mark.parametrize("radius, pitch", [(1e300, 1.0), (1.0, 1e300)])
def test_overflowing_nodes_rejected(radius, pitch):
    # the length is finite, but centering at the center of mass overflows
    # (weights near 1e299 times coordinates near 1e300)
    spec = CurveSpec(kind="helix", radius=radius, pitch=pitch, turns=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError):
            discretize(spec, panels=12, order=4)


def test_negative_density_rejected():
    spec = CurveSpec(kind="rod", length=1.0, density=lambda s: np.asarray(s) - 10.0)
    with pytest.raises(GeometryError):
        discretize(spec, panels=4, order=4)


def test_bad_shapes_rejected():
    with pytest.raises(GeometryError):
        CurveSpec(kind="rod", length=-1.0)
    with pytest.raises(GeometryError):
        CurveSpec(kind="blob")


def test_load_polyline_csv(tmp_path):
    path = tmp_path / "poly.csv"
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0.0]])
    np.savetxt(path, verts, delimiter=",")
    spec = load_polyline_csv(path)
    assert spec.kind == "polyline"
    assert np.allclose(spec.vertices, verts)


@settings(max_examples=25, deadline=None)
@given(length=st.floats(min_value=1e-3, max_value=1e3),
       panels=st.integers(min_value=1, max_value=12))
def test_rod_quadrature_exact_any_length(length, panels):
    body = discretize(CurveSpec(kind="rod", length=length), panels, order=4)
    assert abs(body.length - length) <= 1e-12 * length
    assert np.all(body.weights > 0)


def test_gauss_rule_is_cached_read_only():
    # one rule per order, shared by every discretization: writes are refused,
    # and the nodes stay those of a fresh Gauss-Legendre rule
    from slenderfall.geometry import _gauss_rule
    spec = CurveSpec(kind="helix", radius=1.0, pitch=0.5, turns=1.5)
    before = discretize(spec, panels=5, order=6).nodes
    xg, wg = _gauss_rule(6)
    assert _gauss_rule(6)[0] is xg
    fresh = np.polynomial.legendre.leggauss(6)
    assert np.array_equal(xg, fresh[0]) and np.array_equal(wg, fresh[1])
    for a in (xg, wg):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert np.array_equal(discretize(spec, panels=5, order=6).nodes, before)


def test_segments_built_once_per_spec():
    # parse_config counts nodes from the segments and discretize places them:
    # both read the one tuple cached on the frozen spec
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 5.0]]
    cfg = cli.parse_config({"body": {"kind": "polyline", "vertices": verts},
                            "fluid": {"nondimensional": {"ell": 0.1}},
                            "discretization": {"panels": 6, "order": 3}})
    segs = vars(cfg.spec)["segments"]      # built by parse_config
    assert isinstance(segs, tuple) and len(segs) == 3
    body = discretize(cfg.spec, panels=6, order=3)
    assert cfg.spec.segments is segs
    # a fresh spec, its segments built anew, gives the same nodes
    fresh = CurveSpec(kind="polyline", vertices=np.array(verts, float))
    assert np.array_equal(discretize(fresh, panels=6, order=3).nodes, body.nodes)


def test_specs_compare_by_value():
    # two parses of one polyline config are equal; other vertices or another
    # `closed` are not, and no comparison raises; built-in shapes compare
    # field by field as before
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 5.0]]
    raw = {"body": {"kind": "polyline", "vertices": verts},
           "fluid": {"nondimensional": {"ell": 0.1}},
           "discretization": {"panels": 6, "order": 3}}
    first, second = (cli.parse_config(raw).spec for _ in range(2))
    assert first == second and not first != second
    moved = CurveSpec(kind="polyline", vertices=np.array(verts) + [0.0, 0.0, 1.0])
    closed = CurveSpec(kind="polyline", vertices=np.array(verts, float), closed=True)
    assert first != moved and first != closed and closed != moved
    assert CurveSpec(kind="rod", length=2.0) == CurveSpec(kind="rod", length=2.0)
    assert CurveSpec(kind="ring", radius=1.0) != CurveSpec(kind="ring", radius=2.0)
    helix = CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0)
    assert helix == CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0)
    assert helix != first and first != helix and helix != "helix"


def test_segment_distance_known_cases():
    # the float rewrite of the self-intersection distance: crossing,
    # parallel, skew and end-to-end segment pairs
    from slenderfall.geometry import _segment_distance
    cases = [([0, 0, 0], [1, 0, 0], [0.5, -1, 0], [0.5, 1, 0], 0.0),
             ([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], 1.0),
             ([0, 0, 0], [1, 0, 0], [0.5, -1, 2], [0.5, 1, 2], 2.0),
             ([0, 0, 0], [1, 0, 0], [3, 0, 0], [4, 0, 0], 2.0),
             ([0, 0, 0], [1, 1, 0], [2, 0, 0], [3, -1, 0], np.sqrt(2.0))]
    for p1, p2, q1, q2, d in cases:
        pts = [list(map(float, v)) for v in (p1, p2, q1, q2)]
        assert abs(_segment_distance(*pts) - d) <= 1e-15 * (1 + d)
