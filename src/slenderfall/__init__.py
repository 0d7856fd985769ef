"""Free fall of one-dimensional rigid bodies in a hyperviscous fluid.

A boundary-integral solver for the steady sedimentation (terminal velocity,
spin and orientation) and quasi-steady trajectories of slender rigid bodies
represented as curves, using the screened Green tensor of the hyperviscous
Stokes operator.
"""

__version__ = "0.1.0"

from .dynamics import DynamicsParams, FallState, Trajectory, integrate, rhs
from .freefall import FallOperator, SteadyState, fall_operator, real_eigenpairs, residual, steady_states
from .geometry import (CurveSpec, DiscreteBody, MassProperties, discretize,
                       load_polyline_csv, mass_properties, validate_geometry)
from .kernel import KernelParams, KernelScalars, fourier_oracle, kernel_scalars
from .mobility import ResistanceSet, assemble_system, resistance_set

__all__ = [
    "__version__",
    "CurveSpec", "DiscreteBody", "MassProperties",
    "discretize", "mass_properties", "validate_geometry", "load_polyline_csv",
    "KernelParams", "KernelScalars", "kernel_scalars", "fourier_oracle",
    "ResistanceSet", "assemble_system", "resistance_set",
    "FallOperator", "SteadyState", "fall_operator", "real_eigenpairs",
    "steady_states", "residual",
    "FallState", "DynamicsParams", "Trajectory", "rhs", "integrate",
]
