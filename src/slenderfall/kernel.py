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

from dataclasses import dataclass, field
from math import cos, factorial, sin
from typing import NamedTuple

import numpy as np

from .errors import KernelDomainError, OracleError

# Taylor coefficients of 8*pi*mu*ell*A and 8*pi*mu*ell*B in powers of s,
# through the series order 12:
#   a_n = 2 (-1)^n [ 1/(n+1)! - (n+2)/(n+3)! ]
#   b_n = 2 (-1)^(n+1) n (n+2) / (n+3)!
_SERIES_ORDER = 12
_A_COEF = np.array([2.0 * (-1) ** n * (1.0 / factorial(n + 1)
                                       - (n + 2) / factorial(n + 3))
                    for n in range(_SERIES_ORDER + 1)])
_B_COEF = np.array([2.0 * (-1) ** (n + 1) * n * (n + 2) / factorial(n + 3)
                    for n in range(_SERIES_ORDER + 1)])

# the oracle raises when QUADPACK's error estimate exceeds this share of a value
_ORACLE_RTOL = 1e-10


@dataclass(frozen=True)
class KernelParams:
    """Fluid parameters: effective thickness ell, viscosity mu.

    ``switch_radius`` = 0.1*ell, not a parameter, is where evaluation
    switches from the closed form to the near-field Taylor series of order
    12. There the closed-form cancellation error in B stays below 1e-10
    relative while the series is converged to machine precision.
    """

    ell: float
    mu: float = 1.0
    switch_radius: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.ell < np.inf):
            raise KernelDomainError("kernel.KernelParams: ell must be positive and finite")
        if self.mu <= 0:
            raise KernelDomainError("kernel.KernelParams: mu must be positive")
        object.__setattr__(self, "switch_radius", 0.1 * self.ell)


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
        ss = s[small]
        A[small] = np.polyval(_A_COEF[::-1], ss)
        B[small] = np.polyval(_B_COEF[::-1], ss)

    scale = 1.0 / (8.0 * np.pi * params.mu * params.ell)
    A *= scale
    B *= scale
    if r_in.ndim == 0:
        return KernelScalars(float(A[0]), float(B[0]))
    return KernelScalars(A.reshape(r_in.shape), B.reshape(r_in.shape))


def fourier_oracle(r, params):
    """Verification oracle: A(r), B(r) by radial wavenumber quadrature.

    The projected resolvent (I - khat khat)/(k^2 + ell^2 k^4) reduces, with
    u = k r and s = r/ell, to the radial integrals

        A = I_1 / (2 pi^2 mu r),   B = -I_3 / (2 pi^2 mu r),
        I_c = int_0^inf (j0(u) - c j1(u)/u) / (1 + u^2/s^2) du,

    and at r = 0 to A = (2/3) int_0^inf dk / (1 + ell^2 k^2) / (2 pi^2 mu),
    B = 0. SciPy's QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber &
    Kahaner 1983) integrates the head u <= 20 adaptively, with a breakpoint
    at each decade from u = s up, and the tail as two Fourier integrals
    (QAWF) against sin u and cos u, from j0 = sin u / u and
    j1/u = sin u / u^3 - cos u / u^2. Below u = 0.5 the Bessel combination
    is summed from the Taylor series of j0 and j1/u, which cancels no
    digits. Nothing here uses the closed form or its series, so the oracle
    checks both; the tests and the kernel-check subcommand call it, at a
    few milliseconds a point. A QUADPACK warning, or an error estimate above
    1e-10 of either value, raises OracleError.
    """
    import warnings

    from scipy import integrate

    if r < 0:
        raise KernelDomainError("kernel.fourier_oracle: negative distance")
    ell, mu = params.ell, params.mu
    # j0(u) = sum (-1)^n u^2n / (2n+1)!,  j1(u)/u = sum (-1)^n (2n+2) u^2n / (2n+3)!
    j0_coef = [(-1) ** n / factorial(2 * n + 1) for n in range(10)]
    j1u_coef = [(-1) ** n * (2 * n + 2) / factorial(2 * n + 3) for n in range(10)]
    head_end = 20.0

    def checked(value, err):
        if not err <= _ORACLE_RTOL * abs(value):
            raise OracleError(
                f"kernel.fourier_oracle: error estimate {err:.2e} exceeds "
                f"{_ORACLE_RTOL:.0e} of the integral {value:.6e}")
        return value

    def radial(c, s):
        """I_c and the sum of QUADPACK's error estimates of its parts."""
        coef = [a - c * b for a, b in zip(j0_coef, j1u_coef)]

        def head(u):
            if u < 0.5:
                u2 = u * u
                bessel = sum(a * u2 ** n for n, a in enumerate(coef))
            else:
                sin_u, cos_u = sin(u), cos(u)
                bessel = sin_u / u - c * (sin_u / u - cos_u) / (u * u)
            t = u / s
            return bessel / (1.0 + t * t)

        def tail_sin(u):
            t = u / s
            return (1.0 - c / (u * u)) / u / (1.0 + t * t)

        def tail_cos(u):
            t = u / s
            return c / (u * u) / (1.0 + t * t)

        breaks = [b for b in (s * 10.0 ** k for k in range(60)) if b < head_end]
        value, err = integrate.quad(head, 0.0, head_end, epsabs=0.0, epsrel=1e-13,
                                    limit=200, points=breaks or None)
        for weight, f in (("sin", tail_sin), ("cos", tail_cos)):
            # QAWF takes an absolute tolerance only, and it must be positive
            v, e = integrate.quad(f, head_end, np.inf, weight=weight, wvar=1.0,
                                  epsabs=max(1e-13 * abs(value), np.finfo(float).tiny))
            value += v
            err += e
        return value, err

    scale = 2 * np.pi ** 2 * mu
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            if r == 0.0:
                # int_0^inf dk / (1 + ell^2 k^2) = (1/ell) int_0^inf dx / (1 + x^2)
                half_pi = checked(*integrate.quad(lambda x: 1.0 / (1.0 + x * x), 0.0,
                                                  np.inf, epsabs=0.0, epsrel=1e-13))
                A, B = (2.0 / 3.0) * half_pi / scale / ell, 0.0
            else:
                A = checked(*radial(1.0, r / ell)) / scale / r
                B = -checked(*radial(3.0, r / ell)) / scale / r
    except (integrate.IntegrationWarning, ArithmeticError) as exc:
        raise OracleError(f"kernel.fourier_oracle: quadrature failed: {exc}")
    if not (np.isfinite(A) and np.isfinite(B)):
        raise OracleError("kernel.fourier_oracle: quadrature did not converge")
    return KernelScalars(float(A), float(B))
