"""
Changing the description without changing the physics
=====================================================

A unitary change of basis rewrites every entry of an arrangement, yet the
spectrum, the trace, and every transformed projector valuation stay put.
Refactorization goes further: the same entries reread under another
screen grouping, bit for bit.
"""

import numpy as np

import qlab

shape = qlab.configuration(2, 2)
ea = qlab.random_arrangement(shape, 42, label="demo arrangement")

print("original diagonal:", np.round(ea.potentia_table(), 6))

# A seeded random unitary on the full space.
bt = qlab.BasisTransformation.random(shape, seed=7)
moved = qlab.change_basis(ea, bt)
print("moved diagonal:   ", np.round(moved.potentia_table(), 6))

# Entries moved, spectra did not.
before = np.linalg.eigvalsh(ea.alpha.entries)
after = np.linalg.eigvalsh(moved.alpha.entries)
print("spectrum drift:", float(np.max(np.abs(before - after))))

# The bundled verifier checks the spectrum, and bounds the valuation gap of
# every projector at once by sqrt(N) times one Frobenius norm.
report = qlab.verify_basis_invariance(ea, bt)
print("spectrum residual:", report.spectrum_residual)
print("valuation bound over every projector:", report.valuation_residual)
print("passed:", report.passed)

# Transformations may also land in a different factorization of the same
# total dimension, for instance two 2-detector screens become one
# 4-detector screen.
wide = qlab.BasisTransformation.random(shape, seed=8, target_shape=qlab.configuration(4))
print("cross factorization passed:", qlab.verify_basis_invariance(ea, wide).passed)

# Refactorization is the special case with the identity unitary. The
# stored entries are reused unchanged.
flat = qlab.refactorize(ea, qlab.configuration(4))
print("refactor keeps bytes:",
      flat.alpha.entries.tobytes() == ea.alpha.entries.tobytes())
print("power (2, 2) seen flat:", flat.potentia((4,)) == ea.potentia((2, 2)))
