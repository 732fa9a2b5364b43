"""Adjacency and Laplacian spectra of zero-divisor graphs of finite rings.

The graph of a ring decomposes as a generalized join over its compressed
graph of associate (or equal-neighborhood) classes; spectra assemble
from the cells plus one small quotient matrix per flavor and are verified
against a dense LAPACK eigendecomposition of the whole graph.

Each name is imported from the module that defines it; the package
namespace holds only `__version__`.
"""

__version__ = "0.1.0"
