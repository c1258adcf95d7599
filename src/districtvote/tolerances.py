"""Numeric tolerances used across the package, each with its one meaning."""

#: Absolute slack on arithmetic identities this package controls end to end
#: (the aggregator property checks on vectors it draws itself).
EXACT_TOL = 1e-12
#: Absolute slack applied to user-supplied floating point data.
USER_TOL = 1e-9
#: Absolute slack when validating metric axioms on user-supplied matrices.
TRIANGLE_TOL = 1e-9
#: Absolute slack when comparing a scale-free distortion ratio with a bound.
BOUND_TOL = 1e-9
#: Relative slack on the lambda-acceptance threshold, so alternatives sitting
#: exactly on the boundary (up to floating point noise) count as acceptable
#: at any coordinate scale.
ACCEPT_SLACK = 1e-12
