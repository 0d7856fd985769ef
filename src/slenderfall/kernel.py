"""Fundamental solution of the steady hyperviscous Stokes operator.

The operator is grad p - lap u + ell^2 lap lap u = point force, div u = 0.
Its velocity Green tensor is isotropic, G(x) = A(r) I + B(r) xhat xhat with
r = |x|. In wavenumber space the resolvent splits as

    1 / (k^2 (1 + ell^2 k^2)) = 1/k^2 - 1/(k^2 + ell^-2),

i.e. the tensor is a Stokeslet minus a screened Stokeslet with screening
length ell. Carrying out the inverse transform (s = r/ell):

    8 pi mu r A(r) = 1 - 2 e^-s + 2 (1 - e^-s (1+s)) / s^2
    8 pi mu r B(r) = 1 - 6/s^2 + e^-s (2 + 6/s + 6/s^2)

Both scalars are finite at r = 0 (A -> 1/(6 pi mu ell), B -> 0): a point
force produces a finite velocity, which is what makes curve adherence
well-posed. The closed form loses all significant digits near r = 0, so a
Taylor series in s is used below the switch radius. The far field carries,
besides exponentially screened terms, an algebraic source-dipole tail:
A ~ (1 + 2/s^2)/(8 pi mu r) and B ~ (1 - 6/s^2)/(8 pi mu r).
"""

from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import KernelDomainError, OracleError

# Taylor coefficients of 8*pi*mu*ell*A and 8*pi*mu*ell*B in powers of s:
#   a_n = 2 (-1)^n [ 1/(n+1)! - (n+2)/(n+3)! ]
#   b_n = 2 (-1)^(n+1) n (n+2) / (n+3)!
_MAX_SERIES = 24
_A_COEF = np.array([2.0 * (-1) ** n * (1.0 / factorial(n + 1)
                                       - (n + 2) / factorial(n + 3))
                    for n in range(_MAX_SERIES)])
_B_COEF = np.array([2.0 * (-1) ** (n + 1) * n * (n + 2) / factorial(n + 3)
                    for n in range(_MAX_SERIES)])


@dataclass(frozen=True)
class KernelParams:
    """Fluid parameters: effective thickness ell, viscosity mu.

    ``switch_radius`` is where evaluation switches from the closed form to
    the near-field Taylor series; ``series_order`` is the truncation order.
    The default switch at 0.1*ell keeps the closed-form cancellation error
    in B below 1e-10 relative while the order-12 series is converged to
    machine precision there.
    """

    ell: float
    mu: float = 1.0
    switch_radius: float = None
    series_order: int = 12

    def __post_init__(self):
        if self.ell <= 0:
            raise KernelDomainError("kernel.KernelParams: ell must be positive")
        if self.mu <= 0:
            raise KernelDomainError("kernel.KernelParams: mu must be positive")
        if self.switch_radius is None:
            object.__setattr__(self, "switch_radius", 0.1 * self.ell)
        if not (0 < self.switch_radius < self.ell):
            raise KernelDomainError("kernel.KernelParams: need 0 < switch_radius < ell")
        if not (1 <= self.series_order <= _MAX_SERIES):
            raise KernelDomainError(
                f"kernel.KernelParams: series_order must be in 1..{_MAX_SERIES}")


class KernelScalars(NamedTuple):
    """Scalars of the decomposition G = A I + B xhat xhat."""

    A: np.ndarray
    B: np.ndarray


def kernel_scalars(r, params):
    """Evaluate A(r), B(r). Accepts scalars or arrays; r must be >= 0.

    The closed form is evaluated in place on five arrays of r's size, with
    s^2 and 6/s^2 computed once; the near-field series runs only where some
    s is at or below the switch.
    """
    r_in = np.asarray(r, dtype=float)
    s = np.atleast_1d(r_in) / params.ell
    small = s <= params.switch_radius / params.ell   # holds every r < 0
    near = small.any()
    if near and np.any(np.atleast_1d(r_in)[small] < 0):
        raise KernelDomainError("kernel.kernel_scalars: negative distance")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        es = np.negative(s)
        np.exp(es, out=es)
        s2 = s * s
        A = s + 1.0
        A *= es
        np.subtract(1.0, A, out=A)
        A *= 2.0
        A /= s2                  # 2 (1 - e^-s (1 + s)) / s^2
        B = es * 2.0
        np.subtract(1.0, B, out=B)
        A += B
        A /= s
        np.divide(6.0, s2, out=s2)
        np.divide(6.0, s, out=B)
        B += 2.0
        B += s2
        B *= es                  # e^-s (2 + 6/s + 6/s^2)
        np.subtract(1.0, s2, out=s2)
        B += s2
        B /= s

    if near:
        n = params.series_order + 1
        ss = s[small]
        A[small] = np.polyval(_A_COEF[:n][::-1], ss)
        B[small] = np.polyval(_B_COEF[:n][::-1], ss)

    scale = 1.0 / (8.0 * np.pi * params.mu * params.ell)
    A *= scale
    B *= scale
    if r_in.ndim == 0:
        return KernelScalars(float(A[0]), float(B[0]))
    return KernelScalars(A.reshape(r_in.shape), B.reshape(r_in.shape))


def fourier_oracle(r, params, dps=30):
    """Verification oracle: A(r), B(r) by radial wavenumber quadrature.

    Integrates the spherical-Bessel reduction of the projected resolvent
    (I - khat khat)/(k^2 + ell^2 k^4) with mpmath (oscillatory quadrature
    for r > 0). Independent of the closed form; used by tests and the
    kernel-check subcommand. Slow by design.
    """
    import mpmath as mp

    if r < 0:
        raise KernelDomainError("kernel.fourier_oracle: negative distance")
    ell, mu = params.ell, params.mu
    try:
        with mp.workdps(dps):
            if r == 0.0:
                A = mp.quad(lambda k: (2.0 / 3.0) / (1 + (ell * k) ** 2),
                            [0, mp.inf]) / (2 * mp.pi ** 2 * mu)
                return KernelScalars(float(A), 0.0)

            def combo(k, c):
                u = k * r
                j0 = mp.sin(u) / u
                j1_over_u = mp.sin(u) / u ** 3 - mp.cos(u) / u ** 2
                return (j0 - c * j1_over_u) / (1 + (ell * k) ** 2)

            period = 2 * mp.pi / r
            A = mp.quadosc(lambda k: combo(k, 1), [0, mp.inf],
                           period=period) / (2 * mp.pi ** 2 * mu)
            B = -mp.quadosc(lambda k: combo(k, 3), [0, mp.inf],
                            period=period) / (2 * mp.pi ** 2 * mu)
        A, B = float(A), float(B)
    except Exception as exc:  # pragma: no cover - mpmath failure path
        raise OracleError(f"kernel.fourier_oracle: quadrature failed: {exc}")
    if not (np.isfinite(A) and np.isfinite(B)):
        raise OracleError("kernel.fourier_oracle: quadrature did not converge")
    return KernelScalars(A, B)
