"""Exact symbolic calculus on the derivation algebra of a trivialized line bundle.

Scalars are multivariate rational functions over the rationals; on top
of them sit derivations, alternating section-valued forms with their
cochain calculus, order-p bracket structures with twists and gauge
moves, Hamiltonian observable algebras over isotropic involutive
subbundles, truncated strong homotopy structures with a residual
oracle, and biderivation brackets.  Every claimed identity is certified
to literal zero.

Importing the package loads no layer: each public name below imports its
home module on first access (PEP 562), so a command compiles only the
layers it uses.
"""

# Each public name, keyed to the module that defines it.
_HOME = {
    name: module
    for module, names in {
        "errors": """ArityError ArityMismatch DegreeOverflow Degenerate DivisionByZero
            IndexOutOfRange NonInvertible NotClosed NotHamiltonian OrderMismatch
            TwistArityError ZeroScale""",
        "scalar": "Polynomial Scalar derive random_scalar",
        "gauge": "Derivation commutator symbol",
        "atiyah": "AtiyahForm contract differential evaluate lie_derivative primitive",
        "dcourant": """Connection DSection LCourantStructure courant curvature dorfman
            gauge_auto lcourant_axioms pairing script_D""",
        "observables": """HamiltonianForm Subbundle graph_of_form hamiltonian_ambiguity
            hamiltonian_derivation hamiltonian_form is_involutive is_isotropic
            observable_bracket useful_lemma_residual""",
        "linf": """GradedElement LInfinityStructure LInfMorphism RepHomotopyData
            build_dg_leibniz build_graph_linf build_semidirect build_three_term
            build_two_term cohomologous_iso derivation_residual ge_is_zero
            injective_graph_morphism jacobi_residual kappa koszul_sign leibniz_residual
            morphism_residuals observable_linf perm_signature rescale_iso unshuffles""",
        "jacobi": """JacobiBiderivation dirac_gauge gauge_jacobi is_jacobi jacobi_bracket
            sharp twisted_jacobi_residual twisted_jet_bracket""",
    }.items()
    for name in names.split()
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # with a fromlist, __import__ returns the module itself
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value
