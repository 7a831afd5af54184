"""Isotropic involutive subbundles and their Hamiltonian observable calculus.

A subbundle is presented by a list of independent generating sections;
membership, Hamiltonian-derivation solving and the ambiguity kernel are
all decided exactly over the rational-function field, so degenerate
subbundles are fully supported.  The observable bracket contracts a
Hamiltonian derivation into the differential of the other form; the
checker lemmas used by the higher structures live here too.
"""

from __future__ import annotations

import itertools

from .errors import NotHamiltonian
from .gauge import Derivation, commutator
from .atiyah import (
    AtiyahForm,
    as_form,
    contract,
    differential,
    index_subsets,
    random_form,
)
from .dcourant import DSection, dorfman, pairing
from .sampling import CheckResult, Family
from .scalar import random_polynomial
from . import linalg


def section_coordinates(e):
    """Flat coordinate vector of a section: derivation slots then form slots."""
    coords = [e.der.coefficient(t) for t in range(e.n + 1)]
    for key in index_subsets(e.n, e.p):
        coords.append(e.form.coefficient(key))
    return coords


def form_coordinates(form):
    return [form.coefficient(key) for key in index_subsets(form.n, form.degree)]


class Subbundle:
    """Span of independent sections of fixed order over the scalar field."""

    __slots__ = ("n", "p", "generators", "cached_rank")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("a subbundle needs at least one generator")
        self.n = generators[0].n
        self.p = generators[0].p
        for g in generators:
            if g.n != self.n or g.p != self.p:
                raise ValueError("generators must share the model and order")
        self.generators = generators
        matrix = self._full_matrix()
        self.cached_rank = linalg.rank(matrix)
        if self.cached_rank != len(generators):
            raise ValueError("generators are linearly dependent over the fraction field")

    def _full_matrix(self):
        cols = [section_coordinates(g) for g in self.generators]
        return [[col[i] for col in cols] for i in range(len(cols[0]))]

    def _form_matrix(self):
        cols = [form_coordinates(g.form) for g in self.generators]
        return [[col[i] for col in cols] for i in range(len(cols[0]))]

    def contains(self, e):
        """Coefficients expressing e in the generators, or None."""
        if e.n != self.n or e.p != self.p:
            return None
        return linalg.solve_least(self._full_matrix(), section_coordinates(e))

    def random_element(self, rng, max_degree, coeff_bound):
        """A random module combination of the generators."""
        out = DSection.zero(self.n, self.p)
        for g in self.generators:
            out = out + g.scale(random_polynomial(self.n, rng, max_degree, coeff_bound))
        return out

    def __repr__(self):
        return f"Subbundle(n={self.n}, p={self.p}, rank={self.cached_rank})"


def graph_of_form(omega):
    """The graph subbundle of contraction against a degree-(p+1) form."""
    if omega.degree < 1:
        raise ValueError("graphs need a form of degree at least 1")
    n = omega.n
    gens = []
    for t in range(n + 1):
        d = Derivation.basis(n, t)
        gens.append(DSection(d, contract(d, omega)))
    return Subbundle(gens)


def is_isotropic(xi):
    """Pairing of every generator pair vanishes (sufficient by bilinearity)."""
    gens = xi.generators
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            value = pairing(gens[i], gens[j])
            if not value.is_zero():
                return CheckResult(
                    False,
                    "isotropy",
                    {
                        "pair": (i, j),
                        "pairing": str(value),
                    },
                )
    return CheckResult(True, "isotropy")


def failing_pair(xi, twist=None):
    """The first pair of generators, as ``((i, j), bracket)`` with i < j,
    whose bracket (twisted by ``twist`` when given) leaves the span of
    ``xi``; None when there is none."""
    gens = xi.generators
    for i, j in itertools.combinations(range(len(gens)), 2):
        bracket = dorfman(gens[i], gens[j], twist)
        if xi.contains(bracket) is None:
            return (i, j), bracket
    return None


def is_involutive(xi, twist=None):
    """Brackets of generator pairs stay in the span.

    For an isotropic subbundle the generator pairs decide the question.
    By the bracket's module Leibniz rule, the bracket of two module
    combinations of generators is a combination of the generators'
    brackets, plus multiples of the generators, plus a term in their
    pairing, which vanishes on an isotropic subbundle; a generator's
    bracket with itself is such a pairing term too.  Every caller passes
    an isotropic subbundle: the graph of a form, the graph of a
    biderivation, or a gauge shift of one.
    """
    found = failing_pair(xi, twist)
    if found is None:
        return CheckResult(True, "involutivity")
    pair, bracket = found
    return CheckResult(False, "involutivity", {"pair": pair, "bracket": str(bracket)})


def hamiltonian_derivation(alpha, xi):
    """A derivation whose pairing with d(alpha) lies in the subbundle.

    Solves the form-part linear system over the fraction field with the
    least-index pivot rule and zero free variables, so the answer is
    deterministic; raises NotHamiltonian when no solution exists.
    """
    alpha = as_form(alpha)
    target = form_coordinates(differential(alpha))
    coeffs = linalg.solve_least(xi._form_matrix(), target)
    if coeffs is None:
        raise NotHamiltonian(
            "the differential does not match any derivation inside the subbundle"
        )
    return _combination(xi, coeffs)


def hamiltonian_ambiguity(xi):
    """Basis of derivations paired with the zero form inside the subbundle."""
    return [_combination(xi, vec) for vec in linalg.nullspace(xi._form_matrix())]


def _combination(xi, coeffs):
    """The sum of the generators' derivations weighted by ``coeffs``."""
    delta = Derivation.zero(xi.n)
    for c, g in zip(coeffs, xi.generators):
        if not c.is_zero():
            delta = delta + g.der.scale(c)
    return delta


class HamiltonianForm:
    """A form of degree p-1 carrying one choice of Hamiltonian derivation."""

    __slots__ = ("alpha", "ham_der")

    def __init__(self, alpha, ham_der):
        self.alpha = alpha
        self.ham_der = ham_der

    @property
    def n(self):
        return self.alpha.n

    def is_zero(self):
        # the derivation is auxiliary data; the element is the form
        return self.alpha.is_zero()

    def __add__(self, other):
        if not isinstance(other, HamiltonianForm):
            return NotImplemented
        return HamiltonianForm(self.alpha + other.alpha, self.ham_der + other.ham_der)

    def __sub__(self, other):
        if not isinstance(other, HamiltonianForm):
            return NotImplemented
        return HamiltonianForm(self.alpha - other.alpha, self.ham_der - other.ham_der)

    def __neg__(self):
        return HamiltonianForm(-self.alpha, -self.ham_der)

    def scale(self, f):
        return HamiltonianForm(self.alpha.scale(f), self.ham_der.scale(f))

    def __eq__(self, other):
        if not isinstance(other, HamiltonianForm):
            return NotImplemented
        return self.alpha == other.alpha

    def __str__(self):
        return f"{self.alpha} [der {self.ham_der}]"

    def __repr__(self):
        return f"HamiltonianForm({self})"


def hamiltonian_form(alpha, xi):
    alpha = as_form(alpha)
    return HamiltonianForm(alpha, hamiltonian_derivation(alpha, xi))


def observable_bracket(a, b):
    """Contract the first Hamiltonian derivation into the other differential."""
    return contract(a.ham_der, differential(b.alpha))


def observable_bracket_hamiltonian(a, b):
    """The bracket packaged with its canonical Hamiltonian derivation."""
    return HamiltonianForm(
        observable_bracket(a, b), commutator(a.ham_der, b.ham_der)
    )


def jacobiator_residual(a, b, c):
    """Cyclic double bracket plus the exact correction term; zero when valid."""
    total = observable_bracket(a, observable_bracket_hamiltonian(b, c))
    total = total + observable_bracket(b, observable_bracket_hamiltonian(c, a))
    total = total + observable_bracket(c, observable_bracket_hamiltonian(a, b))
    correction = differential(
        contract(a.ham_der, observable_bracket(b, c))
    )
    return total + correction


def _contraction_chain(form, derivations):
    """Apply contractions right to left: the first list entry is innermost."""
    out = form
    for delta in derivations:
        out = contract(delta, out)
    return out


def useful_lemma_residual(hams):
    """Residual of the hatted contraction identity on n >= 3 Hamiltonian forms."""
    n = len(hams)
    if n < 3:
        raise ValueError("the identity needs at least three forms")
    ders = {k: hams[k - 1].ham_der for k in range(1, n + 1)}

    def brk(i, j):
        return observable_bracket_hamiltonian(hams[i - 1], hams[j - 1])

    lhs = differential(
        _contraction_chain(
            observable_bracket(hams[0], hams[1]),
            [ders[k] for k in range(3, n + 1)],
        )
    )
    if (n + 1) % 2:
        lhs = -lhs
    rhs = None
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            chain = [ders[k] for k in range(2, n + 1) if k != i and k != j]
            term = _contraction_chain(
                observable_bracket(brk(i, j), hams[0]), chain
            )
            if (i + j - 1) % 2:
                term = -term
            rhs = term if rhs is None else rhs + term
    for j in range(3, n + 1):
        chain = [ders[k] for k in range(3, n + 1) if k != j]
        term = _contraction_chain(
            observable_bracket(brk(1, j), hams[1]), chain
        )
        if j % 2:
            term = -term
        rhs = term if rhs is None else rhs + term
    chain = [ders[k] for k in range(4, n + 1)]
    term = _contraction_chain(
        observable_bracket(brk(1, 2), hams[2]), chain
    )
    rhs = term if rhs is None else rhs + term
    return lhs - rhs


def induced_algebroid_residuals(xi, samples, seed, max_degree=1, coeff_bound=2, tag="algebroid"):
    """Restriction of the bracket to the subbundle is a Lie algebroid.

    Checks skewness, the Jacobi identity, the module Leibniz rule and
    closure of the bracket on seeded module combinations.
    """

    def draw(rng, case):
        a, b, c = (xi.random_element(rng, max_degree, coeff_bound) for _ in range(3))
        return a, b, c, random_polynomial(xi.n, rng, max_degree, coeff_bound)

    def checks(a, b, c, f):
        ab = dorfman(a, b)
        closed = xi.contains(ab) is not None
        return {
            "skew": ab + dorfman(b, a),
            "jacobi": dorfman(a, dorfman(b, c)) - dorfman(ab, c) - dorfman(b, dorfman(a, c)),
            "leibniz": dorfman(a, b.scale(f)) - ab.scale(f) - b.scale(a.der.symbol_apply(f)),
            "closure": CheckResult(closed, "closure", None if closed else {"bracket": str(ab)}),
        }

    return Family(tag, samples, draw, checks, seed=seed)


def random_hamiltonian(xi, rng, max_degree, coeff_bound):
    """Random Hamiltonian form for the subbundle.

    Draws a random form of degree p-1 and solves; when the solve fails
    (degenerate subbundle) falls back to an exact form, which is always
    Hamiltonian with the zero derivation.
    """
    n, p = xi.n, xi.p
    alpha = random_form(n, p - 1, rng, max_degree, coeff_bound)
    try:
        delta = hamiltonian_derivation(alpha, xi)
    except NotHamiltonian:
        # exact forms are always Hamiltonian with the zero derivation;
        # at order 1 only the zero section is available generically
        if p >= 2:
            alpha = differential(random_form(n, p - 2, rng, max_degree, coeff_bound))
        else:
            alpha = AtiyahForm.zero(n, 0)
        delta = hamiltonian_derivation(alpha, xi)
    return HamiltonianForm(alpha, delta)
