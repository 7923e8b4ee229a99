"""The projector-family tolerance of the projection_family check.

The protocol measures in the rank-1 family f_k f_k* of each frame
F = (f_1 .. f_d). The channel route applies it as dephasing in F and never
builds a projector; bounds.CHECKS holds the final frame's Gram defect to
FAMILY_TOL.
"""

FAMILY_TOL = 1e-9
