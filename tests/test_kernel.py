"""Kernel module: closed form vs oracle, limits, symmetries, branches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slenderfall import KernelParams, fourier_oracle, kernel_scalars
from slenderfall.errors import KernelDomainError
from slenderfall.cli import KERNEL_CHECK_POINTS
from slenderfall.kernel import _A_COEF, _B_COEF, _SERIES_ORDER

from conftest import dense_green


def green_tensor(x, params):
    """G(x) = A I + B xhat xhat: block (0,1) of the Green matrix of the two
    nodes x and 0, or at |x| = 0 the diagonal block of one node."""
    x = np.asarray(x, dtype=float)
    if (x ** 2).sum() == 0.0:
        return dense_green(np.zeros((1, 3)), params)
    return dense_green(np.array([x, np.zeros(3)]), params)[:3, 3:]


def test_self_mobility_limit():
    for ell in (0.3, 1.0, 7.0):
        for mu in (1.0, 2.5):
            p = KernelParams(ell=ell, mu=mu)
            A, B = kernel_scalars(0.0, p)
            assert abs(A - 1.0 / (6 * np.pi * mu * ell)) <= 1e-10 * A
            assert B == 0.0


def test_oracle_at_zero():
    A, B = fourier_oracle(0.0, KernelParams(ell=1.0))
    assert abs(A - 1.0 / (6 * np.pi)) <= 1e-9
    assert B == 0.0


def test_closed_form_vs_oracle_midrange():
    p = KernelParams(ell=1.0)
    for r in (0.05, 1.0):
        closed = kernel_scalars(r, p)
        oracle = fourier_oracle(r, p)
        assert abs(closed.A - oracle.A) <= 1e-8 * abs(oracle.A)
        scale_b = max(abs(oracle.B), abs(oracle.A))
        assert abs(closed.B - oracle.B) <= 1e-8 * scale_b


def test_branch_continuity_at_switch():
    # at the switch kernel_scalars takes the series; the closed form, as
    # written out below, agrees with it there
    p = KernelParams(ell=1.0)
    series = kernel_scalars(p.switch_radius, p)
    gA, gB = written_out_closed_form(np.array([p.switch_radius / p.ell]))
    scale = 1.0 / (8.0 * np.pi * p.mu * p.ell)
    assert abs(series.A - scale * gA[0]) <= 1e-12 * abs(series.A)
    assert abs(series.B - scale * gB[0]) <= 1e-12 * abs(series.A)


def test_screening_of_exponential_part():
    # beyond the algebraic source-dipole tail, the remainder decays like
    # e^(-r/ell)/r: |A - (1 + 2/s^2) / (8 pi mu r)| <= C e^(-s) / r
    p = KernelParams(ell=1.0)
    C = 3.0
    for s in (5.0, 8.0, 12.0, 20.0):
        r = s * p.ell
        A, B = kernel_scalars(r, p)
        stokeslet = 1.0 / (8 * np.pi * r)
        assert abs(A - (1 + 2 / s ** 2) * stokeslet) <= C * np.exp(-s) / r
        assert abs(B - (1 - 6 / s ** 2) * stokeslet) <= C * np.exp(-s) / r


def test_far_field_approaches_stokeslet():
    # both scalars approach 1/(8 pi mu r) with an O(1/s^2) algebraic tail
    p = KernelParams(ell=1.0)
    for s in (1e3, 1e5):
        A, B = kernel_scalars(s * p.ell, p)
        stokeslet = 1.0 / (8 * np.pi * s * p.ell)
        assert abs(A / stokeslet - 1.0) <= 3.0 / s ** 2
        assert abs(B / stokeslet - 1.0) <= 7.0 / s ** 2


def test_trace_identity():
    p = KernelParams(ell=0.7, mu=1.3)
    for x in (np.array([0.3, -0.1, 0.2]), np.array([5.0, 1.0, -2.0])):
        G = green_tensor(x, p)
        A, B = kernel_scalars(float(np.linalg.norm(x)), p)
        assert abs(np.trace(G) - (3 * A + B)) <= 1e-14


def test_tensor_at_zero():
    p = KernelParams(ell=1.0)
    G = green_tensor(np.zeros(3), p)
    assert np.allclose(G, np.eye(3) / (6 * np.pi), rtol=1e-12)


def test_divergence_free():
    # row-divergence of G by central differences at x = (ell, 0, 0)
    p = KernelParams(ell=1.0)
    x0 = np.array([p.ell, 0.0, 0.0])
    h = p.ell / 100.0
    div = np.zeros(3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        div += (green_tensor(x0 + e, p)[:, j] - green_tensor(x0 - e, p)[:, j]) / (2 * h)
    assert np.linalg.norm(div) <= 1e-6


def test_mu_scaling():
    p1 = KernelParams(ell=0.5, mu=1.0)
    p2 = KernelParams(ell=0.5, mu=2.0)
    A1, B1 = kernel_scalars(0.3, p1)
    A2, B2 = kernel_scalars(0.3, p2)
    assert abs(A1 - 2 * A2) <= 1e-14
    assert abs(B1 - 2 * B2) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ell, s", [(ell, s) for ell in (0.1, 1.0)
                                    for s in KERNEL_CHECK_POINTS]
                         + [(10.0, 0.05), (100.0, 0.005)])
def test_oracle_agrees_with_closed_form(ell, s):
    # the kernel-check abscissas, and the points of the large-ell test
    # below, to 1e-10 with no QUADPACK warning
    p = KernelParams(ell=ell, mu=1.3)
    closed = kernel_scalars(s * ell, p)
    oracle = fourier_oracle(s * ell, p)
    assert abs(closed.A - oracle.A) <= 1e-10 * abs(oracle.A)
    assert abs(closed.B - oracle.B) <= 1e-10 * (abs(oracle.B) or abs(oracle.A))


def test_large_ell_self_mobility_scaling():
    # oracle evaluation at large ell shows the 1/(6 pi mu ell) scaling
    r = 0.5
    vals = [fourier_oracle(r, KernelParams(ell=ell)).A for ell in (10.0, 100.0)]
    assert abs(vals[0] / vals[1] - 10.0) <= 0.1 * 10.0


def test_domain_errors():
    p = KernelParams(ell=1.0)
    with pytest.raises(KernelDomainError):
        kernel_scalars(-1.0, p)
    with pytest.raises(KernelDomainError):
        KernelParams(ell=-1.0)
    with pytest.raises(KernelDomainError):
        KernelParams(ell=np.inf)


def test_array_evaluation_matches_scalar():
    p = KernelParams(ell=0.1)
    rs = np.array([0.0, 0.003, 0.05, 1.0, 30.0])
    A, B = kernel_scalars(rs, p)
    for i, r in enumerate(rs):
        a, b = kernel_scalars(float(r), p)
        assert A[i] == a and B[i] == b


def written_out_closed_form(s):
    """8 pi mu ell A and 8 pi mu ell B at s = r/ell, the closed form as one
    expression per scalar."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        es = np.exp(-s)
        gA = (1.0 - 2.0 * es + 2.0 * (1.0 - es * (1.0 + s)) / s ** 2) / s
        gB = (1.0 - 6.0 / s ** 2 + es * (2.0 + 6.0 / s + 6.0 / s ** 2)) / s
    return gA, gB


def written_out_kernel(r, params):
    """A(r), B(r): the written-out closed form, replaced by the Taylor
    series at and below the switch radius."""
    s = r / params.ell
    small = s <= params.switch_radius / params.ell
    gA, gB = written_out_closed_form(s)
    n = _SERIES_ORDER + 1
    gA[small] = np.polyval(_A_COEF[:n][::-1], s[small])
    gB[small] = np.polyval(_B_COEF[:n][::-1], s[small])
    scale = 1.0 / (8.0 * np.pi * params.mu * params.ell)
    return scale * gA, scale * gB


@pytest.mark.parametrize("ell, mu", [(0.1, 1.0), (1.0, 2.5), (3.7, 0.3)])
def test_kernel_matches_written_out_formula_bitwise(ell, mu):
    # 10^4 radii straddling the switch, r = 0 first; evaluated whole and in
    # sorted strips, of which the upper ones hold no near-field entry
    p = KernelParams(ell=ell, mu=mu)
    rng = np.random.default_rng(2)
    r = np.concatenate([[0.0], p.switch_radius * rng.uniform(0.0, 2.0, 4999),
                        ell * rng.uniform(0.0, 30.0, 5000)])
    assert np.array_equal(np.stack(kernel_scalars(r, p)),
                          np.stack(written_out_kernel(r, p)))
    strips = np.array_split(np.sort(r), 7)
    assert np.all(strips[-1] > p.switch_radius)
    for strip in strips:
        assert np.array_equal(np.stack(kernel_scalars(strip, p)),
                              np.stack(written_out_kernel(strip, p)))


def test_kernel_refuses_negative_distance_among_others():
    p = KernelParams(ell=1.0)
    with pytest.raises(KernelDomainError):
        kernel_scalars(np.array([0.5, 3.0, -1e-300, 2.0]), p)


@settings(max_examples=50, deadline=None)
@given(x=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3))
def test_tensor_even_and_symmetric(x):
    p = KernelParams(ell=1.0)
    x = np.asarray(x)
    G = green_tensor(x, p)
    assert np.allclose(G, G.T)
    assert np.allclose(G, green_tensor(-x, p))
    # finite self-mobility: positive quadratic form everywhere
    f = np.array([0.3, -1.2, 0.5])
    assert f @ G @ f > 0
