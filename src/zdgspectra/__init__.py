"""Adjacency and Laplacian spectra of zero-divisor graphs of finite rings.

The graph of a ring decomposes as a generalized join over its compressed
graph of associate (or equal-neighborhood) classes; spectra assemble
from the cells plus one small quotient matrix per flavor and are verified
against a dense LAPACK eigendecomposition of the whole graph.
"""

from .classes import (
    ClassPartition,
    VertexClass,
    classes_annihilator,
    classes_for,
    classes_neighborhood,
)
from .counts import (
    SemisimpleProfile,
    class_count_matrix,
    class_size_matrix,
    compressed_degree_matrix,
    idempotent_count,
    nilpotent2_count,
    q_binomial,
    rank_count,
    semisimple_class_degree,
    semisimple_class_size,
    semisimple_vertex_degree,
)
from .eig import BACKEND, dense_eigenvalues
from .graph import (
    ZeroDivisorGraph,
    build_zdg,
    connected_component_count,
    degree,
    degree_matring,
    degree_zn,
)
from .rings import (
    GF,
    MatRing,
    ProductRing,
    Ring,
    RingError,
    Zn,
    parse_ring_spec,
)
from .spectra import (
    JoinDecomposition,
    LiftError,
    MultisetMatch,
    SpectrumMultiset,
    assemble_adjacency_spectrum,
    assemble_laplacian_spectrum,
    boolean_pairing_report,
    brute_spectrum,
    check_shift_lemma,
    decompose,
    decomposition_semisimple_closed,
    duplicate_lift,
    fiedler_check,
    fiedler_combine,
    multiset_equal,
    quotient_matrix,
    ring_join_decomposition,
    verify_ring,
    zn_profile,
)

__version__ = "0.1.0"
