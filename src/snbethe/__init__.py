"""Exact construction and verification of the commuting (Bethe) subalgebras
of the symmetric group algebra: the rational (Gaudin-type) family, its
hbar-deformation (XXX type), and the homogeneous family, together with the
representation-theoretic block model, tensor-space cross-checks, spectral
analysis, and a batch verification CLI.
"""
