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

__version__ = "0.1.0"
