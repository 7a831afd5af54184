"""Biderivation brackets on sections, their graphs, twists and gauge moves.

A biderivation is stored as an antisymmetric matrix over the jet dual
basis, which makes antisymmetry and the induced derivation-valued sharp
map structural.  The bracket-level and graph-level characterizations of
the integrability condition are both implemented and cross-checked: the
bracket route decides exactly on the spanning family of monomials of
total degree two, matching the graph involutivity test.  The bracket of
an antisymmetric matrix is antisymmetric, so its Jacobiator is an
alternating trilinear operator, and the bracket route evaluates it on
strictly increasing triples of the family only.
"""

from __future__ import annotations

import itertools

from .errors import NonInvertible, NotClosed
from .gauge import Derivation, commutator
from .atiyah import (
    AtiyahForm,
    _summed,
    contract,
    differential,
    evaluate,
    random_form,
)
from .dcourant import DSection, _dorfman_terms, gauge_auto
from .observables import Subbundle, is_involutive
from .sampling import CheckResult, Family
from .scalar import Scalar, monomial_scalars, random_polynomial, sum_of_products
from . import linalg


class JacobiBiderivation:
    """Antisymmetric matrix over the dual basis directions 1..n, unit."""

    __slots__ = ("n", "matrix")

    def __init__(self, n, matrix):
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != n + 1 or any(len(row) != n + 1 for row in matrix):
            raise ValueError("the matrix must be (n+1) x (n+1)")
        for a in range(n + 1):
            for b in range(a, n + 1):
                if not (matrix[a][b] + matrix[b][a]).is_zero():
                    raise ValueError("the matrix must be antisymmetric")
        self.n = n
        self.matrix = matrix

    @classmethod
    def zero(cls, n):
        z = Scalar.zero(n)
        return cls(n, [[z] * (n + 1) for _ in range(n + 1)])

    @classmethod
    def from_entries(cls, n, entries):
        """Build from {(a, b): Scalar} for a < b; antisymmetry is filled in."""
        z = Scalar.zero(n)
        matrix = [[z] * (n + 1) for _ in range(n + 1)]
        for (a, b), value in entries.items():
            matrix[a][b] = value
            matrix[b][a] = -value
        return cls(n, matrix)

    @classmethod
    def from_closed_form(cls, omega):
        """The bracket induced by a closed nondegenerate 2-form.

        Solves the contraction equation for each jet basis direction, so
        the induced bracket on sections contracts the first Hamiltonian
        derivation into the second differential.
        """
        n = omega.n
        if omega.degree != 2:
            raise ValueError("the inducing form must have degree 2")
        if not differential(omega).is_zero():
            raise NotClosed("the inducing form must be closed")
        inv = linalg.inverse(_tilde_matrix(omega))
        if inv is None:
            raise NonInvertible("the inducing form is degenerate")
        matrix = [[-inv[a][b] for b in range(n + 1)] for a in range(n + 1)]
        return cls(n, matrix)

    def pair(self, alpha, beta):
        """Value on two 1-forms: sum of J[a][b] * alpha_a * beta_b."""
        return contract(sharp(self, alpha), beta).scalar()

    def __eq__(self, other):
        if not isinstance(other, JacobiBiderivation):
            return NotImplemented
        return self.n == other.n and self.matrix == other.matrix

    def __repr__(self):
        rows = "; ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.matrix
        )
        return f"JacobiBiderivation({rows})"


def jacobi_bracket(J, s, t):
    """Bracket of two sections: the section derivation of s applied to t.

    The differential of t is (d_1 t, ..., d_n t, t), so pairing it
    against sharp(J, ds) is exactly applying that derivation to t.
    """
    return section_derivation(J, s).apply(t)


def sharp(J, alpha):
    """The derivation pairing a 1-form against jet prolongations.

    Its coefficient along direction b is the column sum of alpha_a * J[a][b].
    """
    n = J.n
    rows = [
        (alpha.coeffs[(a,)], J.matrix[a]) for a in range(n + 1) if (a,) in alpha.coeffs
    ]
    return Derivation(
        sum_of_products(n, [(1, ca, row[b]) for ca, row in rows if not row[b].is_zero()])
        for b in range(n + 1)
    )


def section_derivation(J, s):
    """The derivation bracketing a fixed section from the left."""
    return sharp(J, differential(s))


def graph(J):
    """Span of (sharp of a dual direction, that dual direction)."""
    n = J.n
    gens = []
    for a in range(n + 1):
        form = AtiyahForm.basis(n, (a,))
        gens.append(DSection(sharp(J, form), form))
    return Subbundle(gens)


def _jacobiator(*pairs):
    """{s1, {s2, s3}} + {s2, {s3, s1}} + {s3, {s1, s2}} from three pairs
    (si, Xi), where Xi is the section derivation of si: {si, t} = Xi(t)."""
    (s1, X1), (s2, X2), (s3, X3) = pairs
    terms = X1.apply_terms(X2(s3)) + X2.apply_terms(X3(s1)) + X3.apply_terms(X1(s2))
    return sum_of_products(X1.n, terms)


def _with_derivations(J, sections):
    """(section, its section derivation) pairs."""
    return [(s, section_derivation(J, s)) for s in sections]


def failing_triple(J, omega=None):
    """The first monomial triple whose Jacobiator, minus ``omega`` on the
    section derivations when a twist is given, is nonzero, as
    ``(sections, residual)``; None when there is none.

    The residual is alternating: the Jacobiator of an antisymmetric
    bracket is, and so is a 3-form.  It vanishes when a monomial repeats
    and changes sign under a swap, so the first nonzero triple in the
    order of all ordered triples is strictly increasing, and the strictly
    increasing triples, in that order, find it with the same residual.
    Each monomial's section derivation is built on its first use.
    """
    family = monomial_scalars(J.n, 2)
    derivations = [None] * len(family)

    def pair(i):
        if derivations[i] is None:
            derivations[i] = section_derivation(J, family[i])
        return family[i], derivations[i]

    for indices in itertools.combinations(range(len(family)), 3):
        triple = [pair(i) for i in indices]
        residual = _jacobiator(*triple)
        if omega is not None:
            residual = residual - evaluate(omega, *(X for _, X in triple))
        if not residual.is_zero():
            return [s for s, _ in triple], residual
    return None


def _triple_witness(found):
    """The witness ``{"triple", "residual"}`` of a failing triple, or None."""
    if found is None:
        return None
    sections, residual = found
    return {"triple": [str(s) for s in sections], "residual": str(residual)}


def is_jacobi(J):
    """Decide the bracket's Jacobi identity, reporting both routes.

    The bracket route is exact: the Jacobiator is an alternating
    trilinear differential operator of order at most two per slot, so it
    vanishes identically iff it vanishes on all strictly increasing
    triples of monomials of total degree <= 2.  The graph route decides
    involutivity of the graph.  The verdict is their shared answer; the
    witness holds both routes' verdicts, plus the first failure's
    ``witness`` exactly when the verdict is False.
    """
    witness = _triple_witness(failing_triple(J))
    graph_result = is_involutive(graph(J))
    detail = {"bracket_route": witness is None, "graph_route": graph_result.ok}
    if witness is not None:
        detail["witness"] = witness
    elif not graph_result.ok:
        detail["witness"] = graph_result.witness
    return CheckResult(witness is None and graph_result.ok, detail)


def _check_closed(omega):
    if not differential(omega).is_zero():
        raise NotClosed("the twist must be closed")


def twisted_jacobi_residual(J, omega, s1, s2, s3):
    """Cyclic double bracket minus the twist evaluated on the section derivations."""
    _check_closed(omega)
    pairs = _with_derivations(J, (s1, s2, s3))
    return _jacobiator(*pairs) - evaluate(omega, *(X for _, X in pairs))


def is_twisted_jacobi(J, omega):
    """Exact decision of the twisted condition on the monomial spanning family."""
    _check_closed(omega)
    witness = _triple_witness(failing_triple(J, omega))
    return CheckResult(witness is None, witness)


def twisted_jet_bracket(J, omega, alpha, beta):
    """Bracket of 1-forms transported through the graph of the sharp map: the
    form of the twisted Dorfman bracket of (sharp alpha, alpha) and
    (sharp beta, beta), L_a beta - i_b d alpha - i_b i_a omega with a and
    b the two sharps, summed once per coefficient."""
    e1 = DSection(sharp(J, alpha), alpha)
    e2 = DSection(sharp(J, beta), beta)
    return _summed(J.n, 1, _dorfman_terms(e1, e2, omega))


def jet_algebroid_residuals(J, omega, samples, seed, max_degree=1, coeff_bound=2, tag="jet"):
    """Skewness, Jacobi, module Leibniz and anchor morphism of the jet bracket."""
    n = J.n

    def bracket(a, b):
        return twisted_jet_bracket(J, omega, a, b)

    def draw(rng, case):
        al, be, ga = (random_form(n, 1, rng, max_degree, coeff_bound) for _ in range(3))
        return al, be, ga, random_polynomial(n, rng, max_degree, coeff_bound)

    def checks(al, be, ga, f):
        ab = bracket(al, be)
        sharp_al = sharp(J, al)
        return {
            "skew": ab + bracket(be, al),
            "jacobi": bracket(al, bracket(be, ga))
            - bracket(ab, ga)
            - bracket(be, bracket(al, ga)),
            "leibniz": bracket(al, be.scale(f))
            - ab.scale(f)
            - be.scale(sharp_al.symbol_apply(f)),
            "anchor": commutator(sharp_al, sharp(J, be)) - sharp(J, ab),
        }

    return Family(tag, samples, draw, checks, seed=seed)


def _sharp_matrix(J):
    """Columns = images of the dual basis in derivation coordinates."""
    n = J.n
    return [[J.matrix[a][b] for a in range(n + 1)] for b in range(n + 1)]


def _tilde_matrix(b_form):
    """Matrix of contraction against a 2-form, derivations to jet coordinates."""
    n = b_form.n
    return [
        [
            evaluate(b_form, Derivation.basis(n, t), Derivation.basis(n, a))
            for t in range(n + 1)
        ]
        for a in range(n + 1)
    ]


def gauge_jacobi(J, b_form):
    """Transformed biderivation whose graph is the gauge shift of the old graph.

    Raises NonInvertible when the defining jet-bundle map cannot be
    inverted.
    """
    n = J.n
    M = _sharp_matrix(J)
    N = _tilde_matrix(b_form)
    one = Scalar.one(n)
    zero = Scalar.zero(n)
    NM = linalg.matmul(N, M)
    system = [
        [
            (one if a == b else zero) + NM[a][b]
            for b in range(n + 1)
        ]
        for a in range(n + 1)
    ]
    inv = linalg.inverse(system)
    if inv is None:
        raise NonInvertible("the jet-bundle endomorphism is singular")
    new_sharp = linalg.matmul(M, inv)
    matrix = [
        [new_sharp[b][a] for b in range(n + 1)] for a in range(n + 1)
    ]
    return JacobiBiderivation(n, matrix)


def dirac_gauge(xi, b_form):
    """Gauge shift of an order-1 subbundle by a closed 2-form."""
    if xi.p != 1:
        raise ValueError("gauge shifts act on order-1 subbundles")
    if not differential(b_form).is_zero():
        raise NotClosed("the gauge form must be closed")
    return Subbundle([gauge_auto(b_form, g) for g in xi.generators])


def span_equal(xi1, xi2):
    """Mutual membership of generators plus equal rank."""
    if xi1.cached_rank != xi2.cached_rank:
        return False
    return all(xi2.contains(g) is not None for g in xi1.generators) and all(
        xi1.contains(g) is not None for g in xi2.generators
    )


def find_noninvertible_pair(n, bound=2):
    """Deterministic search for a gauge move with vanishing determinant.

    Scans biderivations and 2-forms with small constant or degree-one
    coefficients in enumeration order and returns the first singular
    pair; used by the negative-control cases.
    """
    from .atiyah import index_subsets

    one = Scalar.one(n)
    j_candidates = []
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            j_candidates.append(
                JacobiBiderivation.from_entries(n, {(a, b): one})
            )
    form_keys = index_subsets(n, 2)
    for J in j_candidates:
        for key in form_keys:
            for c in range(1, bound + 1):
                for sign in (1, -1):
                    b_form = AtiyahForm(
                        n, 2, {key: Scalar.from_fraction(n, sign * c)}
                    )
                    try:
                        gauge_jacobi(J, b_form)
                    except NonInvertible:
                        return J, b_form
    return None
