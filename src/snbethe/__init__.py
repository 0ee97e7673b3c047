"""Exact construction and verification of the commuting (Bethe) subalgebras
of the symmetric group algebra: the rational (Gaudin-type) family, its
hbar-deformation (XXX type), and the homogeneous family, together with the
representation-theoretic block model, tensor-space cross-checks, spectral
analysis, and a batch verification CLI.
"""

from .rings import (
    BiPoly,
    MultiPoly,
    SeededRandom,
    UPoly,
    series_exp,
    series_inverse,
    series_log,
    squarefree_test,
)
from .permutations import (
    CycleData,
    GroupAlgebraElement,
    Permutation,
    antiinvolution,
    antisymmetrizer,
    cycle_data,
    embed,
    ga_perm,
    ga_transposition,
    trace_map,
)
from .reps import (
    BlockMatrix,
    IrrepAction,
    central_idempotent,
    character,
    content_poly,
    dimension,
    partitions_of,
    represent,
    seminormal_rep,
    standard_tableaux,
)
from .gaudin import (
    KZFamily,
    ParameterSet,
    check_relations_H,
    check_relations_Ht,
    det_presentation,
    gz_spanning_set,
    jm_elements,
    kz_elements,
    phi_gen,
    phi_polys,
    phi_tilde,
)
from .xxx import (
    QKZFamily,
    XXXParams,
    check_relations_Hh,
    det_P_hbar,
    qkz_elements,
    s_k_poly,
    t_gen,
    t_m_poly,
    xxx_params,
)
from .homogeneous import (
    charge_from_density,
    det_P_hat,
    g_cycles,
    gamma_perm,
    homogeneous_generators,
    local_charges,
    local_density,
)
from .tensoract import (
    TensorOperator,
    gaudin_diffop_coeffs,
    partial_trace,
    varpi,
    yangian_transfer,
)
from .spectra import (
    EigenRecord,
    PolySpace,
    SpanBasis,
    algebra_span,
    casorati,
    check_O_relations,
    commutant_dim,
    cyclic_vector,
    f_bivariate,
    joint_eigen,
    reconstruct_subspace,
    simple_spectrum_cert,
    span_distance,
    wronskian,
)
from .suites import run_suite
