"""Numeric tolerances and size limits, centralized so no module hardcodes its own.

All comparisons in the package use max-norm (largest entry magnitude) unless a
function documents otherwise.
"""

# Structural checks on operator tensors.
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-10
# Shift of the Cholesky that proves positivity where files are read and
# written. If the floating-point Cholesky of A = alpha + s*I succeeds, then
# A + dA = R^H R with |dA| <= gamma_{N+1} |R^H||R| (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., Thm 10.5), and
# || |R^H||R| ||_2 <= ||R||_F^2 = tr(A + dA), about 1 + N*s for a trace-one
# alpha. So lambda_min(alpha) >= -s - gamma_{N+1}(1 + N*s). eigvalsh adds a
# backward error of about N*u*||alpha||_2 (u = 2^-53, ||alpha||_2 about 1).
# A pass is an eigvalsh pass when s + gamma_{N+1}(1 + N*s) + N*u*||alpha||_2
# <= -PSD_EIGENVALUE_FLOOR; at N = DIMENSION_CAP = 4096 the left side is
# about 5.09e-11 for s = 5e-11. The shift also lets rank-deficient
# arrangements (pure states, low-rank mixtures) pass.
PSD_CHOLESKY_SHIFT = 5e-11
TRACE_TOL = 1e-10

# Diagonal entries (potentia) must be real and inside [0, 1] up to this slack.
DIAGONAL_TOL = 1e-9

# General projectors: idempotence and Hermiticity.
PROJECTOR_TOL = 1e-9
COMMUTATOR_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9

# Valuation checks.
ADDITIVITY_TOL = 1e-8
# verify_basis_invariance holds VALUATION_TOL against sqrt(N) ||a - lam^H b lam||_F,
# a bound on the valuation gap of every projector, which is pure rounding for
# a unitary lam. For a two-term random arrangement and a Haar lam it reads
# 2.2e-14, 4.7e-14 and 7.0e-14 at N = 256, 1024 and 2048, growing by about
# 1.5 per doubling, so near 1e-13 at N = DIMENSION_CAP = 4096: five orders of
# magnitude under the tolerance. (The worst-case matmul rounding bound is far
# looser and does not fit under it; the headroom is measured, not proven.)
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
