"""Moment-method transport of charged vortex wave packets through lens lattices.

The library propagates the transverse second-order moments (mean square
radius, its rate, mean square transverse velocity) and the longitudinal
state of a Laguerre-Gaussian packet through sequences of drifts and
axisymmetric electromagnetic lenses, evaluates waist-matching and transport
criteria, computes first-order corrections from linear field gradients, and
solves the inverse problems (matching field, direct-capture lens).  An
independent Runge-Kutta and quadrature oracle layer cross-checks every
closed form.
"""

from .elements import Drift, FieldSample, InhomogeneityWarning, LensConfig
from .lattice import (
    Beamline,
    NoCaptureFieldError,
    Trajectory,
    design_direct_capture,
    run,
    solve_matching,
    state_at,
)
from .moments import (
    MomentState,
    TransportReport,
    emittance,
    matching_ratio,
    propagate_drift,
    stationary_rho_sq,
    transport_check,
)
from .packet import LGPacket, OpticalFunctions, optical_functions, rho_sq_free, transverse_velocity_sq
from .perturbation import (
    CorrectionState,
    ZerothOrderInputs,
    approximation_ledger,
    correction_by_quadrature,
    correction_closed_form,
    verify_closed_form,
)
from .units import Particle

__version__ = "0.1.0"

__all__ = [
    "Beamline",
    "CorrectionState",
    "Drift",
    "FieldSample",
    "InhomogeneityWarning",
    "LGPacket",
    "LensConfig",
    "MomentState",
    "NoCaptureFieldError",
    "OpticalFunctions",
    "Particle",
    "Trajectory",
    "TransportReport",
    "ZerothOrderInputs",
    "approximation_ledger",
    "correction_by_quadrature",
    "correction_closed_form",
    "design_direct_capture",
    "emittance",
    "matching_ratio",
    "optical_functions",
    "propagate_drift",
    "rho_sq_free",
    "run",
    "solve_matching",
    "state_at",
    "stationary_rho_sq",
    "transport_check",
    "transverse_velocity_sq",
    "verify_closed_form",
]
