"""Adjacency and Laplacian spectra of zero-divisor graphs of finite rings.

The graph of a ring decomposes as a generalized join over its compressed
graph of associate (or equal-neighborhood) classes; spectra assemble
from the cells plus two small quotient matrices and are verified against
a dense LAPACK eigendecomposition of the whole graph.
"""

from .classes import (
    ClassPartition,
    VertexClass,
    check_relation_agreements,
    classes_annihilator,
    classes_associate,
    classes_for,
    classes_neighborhood,
    partitions_equal,
)
from .counts import (
    BooleanSkeleton,
    QBinomTable,
    SemisimpleProfile,
    ZnProfile,
    boolean_skeleton,
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
    zn_profile,
)
from .eig import (
    BACKEND,
    JacobiConvergenceError,
    dense_eigenvalues,
    jacobi_eigen,
    jacobi_eigen_system,
)
from .graph import (
    ZeroDivisorGraph,
    annihilator_set,
    build_zdg,
    connected_component_count,
    degree,
    degree_matring,
    degree_zn,
    neighborhood,
)
from .rings import (
    GF,
    MatRing,
    ProductRing,
    Ring,
    RingError,
    Zn,
    construct_field,
    is_reduced,
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
    quotient_adjacency,
    quotient_laplacian,
    ring_join_decomposition,
    spectrum_zn,
    verify_ring,
)

__version__ = "0.1.0"
