"""Steady free fall of a uniform helix.

A chiral body couples translation and rotation, so it cannot fall without
spinning: the steady state has a nonzero eigenvalue lambda with omega =
lambda g. This script computes the resistance matrix of a two-turn helix,
enumerates its steady states and shows the eigenvalue stabilizing under
panel refinement.

Run with:  python demos/steady_helix.py
"""

import numpy as np

from slenderfall import (CurveSpec, KernelParams, discretize, mass_properties,
                         resistance_set, steady_states)

ELL = 0.1

spec = CurveSpec(kind="helix", radius=1.0, pitch=1.0, turns=2.0)
params = KernelParams(ell=ELL)

print("helix radius 1, pitch 1, 2 turns, ell = %.2f" % ELL)
print()
print("%8s %8s %16s %16s" % ("panels", "nodes", "lambda", "|K_tr|"))
for panels in (8, 16, 32, 64):
    body = discretize(spec, panels=panels, order=6)
    mp = mass_properties(body)
    R = resistance_set(body, params)
    states = steady_states(R, mp)
    lam = max((s.lam for s in states), key=abs)
    print("%8d %8d %16.8f %16.8f"
          % (body.panels, body.n_nodes, lam, np.linalg.norm(R.k_tr)))

body = discretize(spec, panels=32, order=6)
mp = mass_properties(body)
R = resistance_set(body, params)
print()
print("steady states at 32 panels:")
for s in steady_states(R, mp):
    print("  lambda = %+.6f  multiplicity %d" % (s.lam, s.multiplicity))
    print("    g     =", np.array2string(s.g, precision=5))
    print("    xi    =", np.array2string(s.xi, precision=5))
    print("    omega =", np.array2string(s.omega, precision=5))
    print("    momentum residual = %.2e" % s.momentum_residual)
    print("    (the mirrored state -g, -xi, -omega is also steady)")
