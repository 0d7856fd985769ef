"""Shared fixtures: reference bodies, kernel parameters, resistance sets."""

import math

import numpy as np
import pytest
from scipy.linalg import lapack

from slenderfall import (CurveSpec, DiscreteBody, KernelParams, discretize,
                         kernel_scalars, mass_properties, resistance_set)

ELL = 0.1


@pytest.fixture(scope="session")
def params():
    return KernelParams(ell=ELL)


@pytest.fixture(scope="session")
def rod_spec():
    return CurveSpec(kind="rod", length=1.0)


@pytest.fixture(scope="session")
def ring_spec():
    return CurveSpec(kind="ring", radius=1.0)


@pytest.fixture(scope="session")
def helix_spec():
    return CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0)


@pytest.fixture(scope="session")
def rod_body(rod_spec):
    return discretize(rod_spec, panels=16, order=4)   # N = 64


@pytest.fixture(scope="session")
def ring_body(ring_spec):
    return discretize(ring_spec, panels=16, order=4)  # N = 64


@pytest.fixture(scope="session")
def helix_body(helix_spec):
    return discretize(helix_spec, panels=32, order=6)  # N = 192


@pytest.fixture(scope="session")
def rod_R(rod_body, params):
    return resistance_set(rod_body, params)


@pytest.fixture(scope="session")
def ring_R(ring_body, params):
    return resistance_set(ring_body, params)


@pytest.fixture(scope="session")
def helix_R(helix_body, params):
    return resistance_set(helix_body, params)


@pytest.fixture(scope="session")
def rod_mp(rod_body):
    return mass_properties(rod_body, m_c=0.0)


@pytest.fixture(scope="session")
def ring_mp(ring_body):
    return mass_properties(ring_body, m_c=0.0)


@pytest.fixture(scope="session")
def helix_mp(helix_body):
    return mass_properties(helix_body, m_c=0.0)


def random_polyline_spec(rng, n_vertices=4):
    """A random non-self-intersecting open polyline with unit-scale edges."""
    while True:
        steps = rng.normal(size=(n_vertices - 1, 3))
        steps /= np.linalg.norm(steps, axis=1, keepdims=True)
        verts = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
        try:
            return CurveSpec(kind="polyline", vertices=verts)
        except Exception:
            continue


def random_walk_body(n, seed=0, step=0.01):
    """N nodes of a seeded random walk; neighbour distances straddle the
    kernel's near-field switch at 0.1 ell."""
    rng = np.random.default_rng(seed)
    nodes = np.cumsum(rng.normal(scale=step, size=(n, 3)), axis=0)
    return DiscreteBody(nodes=nodes, weights=np.ones(n),
                        arclength=np.arange(n, dtype=float), density=np.ones(n),
                        panels=n, order=2, length=float(n))


def with_strip_rows(monkeypatch, n, rows):
    """Fix the pairwise row strips at `rows` rows each for an N-node body,
    whatever their columns, so that strip boundaries fall at multiples of
    `rows`."""
    from slenderfall import geometry
    assert rows * n <= geometry._STRIP_PAIRS   # the strip buffers' size
    monkeypatch.setattr(geometry, "_strip_rows", lambda cols: rows)
    bounds = [(p0, p1) for p0, p1, _, _ in geometry.pair_strips(np.zeros((n, 3)))]
    assert bounds == [(p0, min(p0 + rows, n)) for p0 in range(0, n, rows)]


def dense_min_separation(x):
    """The smallest distance between two distinct nodes, from the whole
    N x N table of squared distances, and the pair of nodes at it."""
    d2 = sum((x[:, None, a] - x[None, :, a]) ** 2 for a in range(3))
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min())), np.unravel_index(np.argmin(d2), d2.shape)


def rfp_to_dense(packed):
    """The dense symmetric matrix held in an RFP array (TRANSR='N',
    UPLO='L'): LAPACK's dtfttr unpacks the lower triangle, and its strictly
    lower part is mirrored."""
    m = (math.isqrt(8 * packed.size + 1) - 1) // 2
    a, info = lapack.dtfttr(m, packed.reshape(-1), transr="N", uplo="L")
    assert info == 0
    lower = np.tril(a)
    return lower + np.tril(lower, -1).T


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
