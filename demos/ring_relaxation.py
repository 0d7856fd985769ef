"""Ring released from rest: relaxation toward terminal velocity.

For a ring falling along its own axis the quasi-steady equations reduce to
a scalar linear ODE with the closed-form solution

    xi_3(t) = (m_e / k) (1 - exp(-k t / m)),   k = (K_tt)_33.

The integrator reproduces this to ~1e-10, which is a direct check of both
the resistance matrix and the RK4 time stepping.

Run with:  python demos/ring_relaxation.py
"""

import numpy as np

from slenderfall import (CurveSpec, DynamicsParams, FallState, KernelParams,
                         discretize, integrate, mass_properties,
                         resistance_set, steady_states)

spec = CurveSpec(kind="ring", radius=1.0)
body = discretize(spec, panels=16, order=4)
mp = mass_properties(body)
R = resistance_set(body, KernelParams(ell=0.1))

k = R.k_tt[2, 2]
m, m_e = mp.m, mp.m_e
terminal = m_e / k
print("ring radius 1, ell = 0.1:  k = %.6f, m = %.6f" % (k, m))
print("terminal velocity m_e/k = %.6f" % terminal)
print()

params = DynamicsParams(re=0.0, dt=0.005, t_end=5.0 * m / k, stride=100)
traj = integrate(FallState.from_rest([0.0, 0.0, 1.0]), R, mp, params)

print("%10s %14s %14s %12s" % ("t", "xi_3", "closed form", "error"))
for s in traj:
    exact = terminal * (1.0 - np.exp(-k * s.t / m))
    print("%10.3f %14.8f %14.8f %12.2e" % (s.t, s.xi[2], exact,
                                           abs(s.xi[2] - exact)))

states = steady_states(R, mp)
print()
print("steady family: lambda = %g, multiplicity %d (any orientation works)"
      % (states[0].lam, states[0].multiplicity))
