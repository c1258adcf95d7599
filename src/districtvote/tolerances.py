"""Numeric tolerances used across the package, each with its one meaning."""

#: Absolute slack on arithmetic identities this package controls end to end
#: (the aggregator property checks on vectors it draws itself).
EXACT_TOL = 1e-12
#: Slack on comparisons of values computed from user-supplied data (the
#: single-peakedness scan of a custom aggregator), relative to the larger
#: magnitude of the two values compared, so a check means the same at any
#: coordinate scale.
USER_TOL = 1e-9
#: Slack on the metric axioms of a user-supplied distance matrix, relative to
#: the entries each check compares: d(i,j) may differ from d(j,i), and exceed
#: a two-hop path, by ``TRIANGLE_TOL`` times the larger entry; d(i,i) may be up
#: to ``TRIANGLE_TOL`` times the distance from i to its nearest other point.
#: Rounding is forgiven and a violation caught at any scale.
TRIANGLE_TOL = 1e-9
#: Absolute slack when comparing a scale-free distortion ratio with a bound.
BOUND_TOL = 1e-9
#: Relative slack on the lambda-acceptance threshold, so alternatives sitting
#: exactly on the boundary (up to floating point noise) count as acceptable
#: at any coordinate scale.
ACCEPT_SLACK = 1e-12
