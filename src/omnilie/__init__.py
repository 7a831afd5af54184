"""Exact symbolic calculus on the derivation algebra of a trivialized line bundle.

Scalars are multivariate rational functions over the rationals; on top
of them sit derivations, alternating section-valued forms with their
cochain calculus, order-p bracket structures with twists and gauge
moves, Hamiltonian observable algebras over isotropic involutive
subbundles, truncated strong homotopy structures with a residual
oracle, and biderivation brackets.  Every claimed identity is certified
to literal zero.
"""

from .errors import (
    ArityError,
    ArityMismatch,
    DegreeOverflow,
    Degenerate,
    DivisionByZero,
    IndexOutOfRange,
    NonInvertible,
    NotClosed,
    NotHamiltonian,
    OrderMismatch,
    TwistArityError,
    UnknownDemo,
    ZeroScale,
)
from .scalar import Polynomial, Scalar, derive, random_scalar
from .gauge import Derivation, commutator, symbol
from .atiyah import (
    AtiyahForm,
    contract,
    differential,
    evaluate,
    lie_derivative,
    primitive,
)
from .dcourant import (
    Connection,
    DSection,
    LCourantStructure,
    courant,
    curvature,
    dorfman,
    gauge_auto,
    lcourant_axioms,
    pairing,
    script_D,
)
from .observables import (
    HamiltonianForm,
    Subbundle,
    graph_of_form,
    hamiltonian_ambiguity,
    hamiltonian_derivation,
    hamiltonian_form,
    is_involutive,
    is_isotropic,
    observable_bracket,
    useful_lemma_residual,
)
from .linf import (
    GradedElement,
    LInfinityStructure,
    LInfMorphism,
    build_dg_leibniz,
    build_graph_linf,
    build_semidirect,
    build_three_term,
    build_two_term,
    cohomologous_iso,
    derivation_residual,
    ge_is_zero,
    injective_graph_morphism,
    jacobi_residual,
    kappa,
    koszul_sign,
    leibniz_residual,
    morphism_residuals,
    observable_linf,
    perm_signature,
    rep_homotopy_data,
    rescale_iso,
    unshuffles,
)
from .jacobi import (
    JacobiBiderivation,
    dirac_gauge,
    gauge_jacobi,
    is_jacobi,
    jacobi_bracket,
    sharp,
    twisted_jacobi_residual,
    twisted_jet_bracket,
)

__version__ = "0.1.0"
