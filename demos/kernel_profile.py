"""Profile of the hyperviscous Green tensor scalars A(r), B(r).

The velocity response to a point force is G(x) = A(r) I + B(r) xhat xhat.
Unlike the classical Stokeslet (which diverges like 1/r), both scalars are
finite at r = 0: A(0) = 1/(6 pi mu ell), B(0) = 0. Far from the force the
tensor approaches the Stokeslet with an O((ell/r)^2) source-dipole tail.

Run with:  python demos/kernel_profile.py
"""

import numpy as np

from slenderfall import KernelParams, fourier_oracle, kernel_scalars

params = KernelParams(ell=1.0)

print("ell = 1, mu = 1;  Stokeslet scalar = 1/(8 pi r)")
print()
print("%10s %14s %14s %14s %14s" % ("r/ell", "A(r)", "B(r)",
                                    "A/stokeslet", "B/stokeslet"))
for s in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
    r = s * params.ell
    A, B = kernel_scalars(r, params)
    if r > 0:
        st = 1.0 / (8 * np.pi * r)
        print("%10.2f %14.6e %14.6e %14.6f %14.6f" % (s, A, B, A / st, B / st))
    else:
        print("%10.2f %14.6e %14.6e %14s %14s" % (s, A, B, "-", "-"))

print()
print("A(0) = %.12e,  1/(6 pi) = %.12e" % (kernel_scalars(0.0, params).A,
                                           1.0 / (6 * np.pi)))

print()
print("cross-check against the Fourier-space oracle (QUADPACK):")
for r in (0.01, 1.0):
    closed = kernel_scalars(r, params)
    oracle = fourier_oracle(r, params)
    print("  r = %-5g  |dA|/A = %.2e   |dB| = %.2e"
          % (r, abs(closed.A - oracle.A) / oracle.A, abs(closed.B - oracle.B)))
