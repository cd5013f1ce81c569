"""Exact spectral calculus for star and comb products of rooted graphs.

The package computes eigenvalues, transforms, cumulants and limit behavior of
adjacency matrices of iterated graph products through exact rational-function
convolution identities, and validates everything against built-in brute-force
operator models.
"""

__version__ = "0.1.0"
