"""Numeric tolerances and size limits, centralized so no module hardcodes its own.

All comparisons in the package use max-norm (largest entry magnitude) unless a
function documents otherwise.
"""

# Structural checks on operator tensors.
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-10

# Diagonal entries (potentia) must be real and inside [0, 1] up to this slack.
DIAGONAL_TOL = 1e-9

# General projectors: idempotence and Hermiticity.
PROJECTOR_TOL = 1e-9
COMMUTATOR_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9

# Valuation checks.
ADDITIVITY_TOL = 1e-8
VALUATION_TOL = 1e-8
SPECTRUM_TOL = 1e-9

# Extend-then-remove round trips.
ROUNDTRIP_TOL = 1e-10
MARGINAL_TOL = 1e-12

# Product-structure test across a bipartition.
PRODUCT_TOL = 1e-8
SCHMIDT_RANK_TOL = 1e-9

# State vectors: construction is strict, file loading is looser because text
# round trips accumulate a little drift. Loaded states are renormalized only
# past the machine-level threshold, so canonical files round-trip exactly.
STATE_NORM_TOL = 1e-10
FILE_NORM_TOL = 1e-8
FILE_RENORM_EPS = 1e-13

PURITY_TOL = 1e-9

# Total dimension cap. Read at call time, so a caller who really needs a
# larger desk can raise it before building configurations.
DIMENSION_CAP = 4096
