"""Suite tables of the observable and Jacobi layers: observables,
useful-lemma, jacobi, twisted-jacobi and gauge.  ``omnilie.suites``
imports this module on the first call of one of these tables."""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import NonInvertible
from .sampling import CheckResult, Family
from .scalar import Scalar, Polynomial, random_polynomial
from .gauge import Derivation
from .atiyah import AtiyahForm, differential, random_form
from .dcourant import DSection, LCourantStructure, gauge_auto, random_section
from .observables import (
    HamiltonianForm,
    Subbundle,
    failing_pair,
    graph_of_form,
    hamiltonian_ambiguity,
    hamiltonian_form,
    induced_algebroid_residuals,
    is_involutive,
    is_isotropic,
    jacobiator_residual,
    observable_bracket,
    observable_bracket_hamiltonian,
    random_hamiltonian,
    useful_lemma_residual,
)
from .jacobi import (
    JacobiBiderivation,
    _check_closed,
    dirac_gauge,
    failing_triple,
    find_noninvertible_pair,
    gauge_jacobi,
    graph,
    is_jacobi,
    is_twisted_jacobi,
    jacobi_bracket,
    jet_algebroid_residuals,
    section_derivation,
    span_equal,
    twisted_jacobi_residual,
)
from . import linalg
from .suites import Row
from .suites_forms import default_twist


def _degenerate_fixture(n):
    """An order-1 isotropic involutive span with nonzero ambiguity."""
    gens = [
        DSection(Derivation.partial(n, 1), AtiyahForm.basis(n, (n,))),
        DSection(Derivation.unit(n), -AtiyahForm.basis(n, (0,))),
        DSection(Derivation.partial(n, 2), AtiyahForm.zero(n, 1)),
    ]
    return Subbundle(gens)


def _fixture_hamiltonian(xi, rng, coeff_bound):
    """Hamiltonian section of the degenerate fixture: depends on x1 only."""
    n = xi.n
    terms = {}
    for k in range(3):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            mono = tuple(k if i == 0 else 0 for i in range(n))
            terms[mono] = Fraction(c)
    s = Scalar(Polynomial(n, terms))
    return hamiltonian_form(AtiyahForm.from_scalar(s), xi)


def observables(ctx):
    n = ctx.n
    xi = graph_of_form(default_twist(ctx))

    def draw(rng, case):
        return tuple(
            random_hamiltonian(xi, rng, ctx.max_degree, ctx.coeff_bound) for _ in range(3)
        )

    def checks(a, b, c):
        bracket = observable_bracket_hamiltonian(a, b)
        member = xi.contains(DSection(bracket.ham_der, differential(bracket.alpha)))
        return {
            "antisymmetry": observable_bracket(a, b) + observable_bracket(b, a),
            "jacobiator": jacobiator_residual(a, b, c),
            "closure": CheckResult(
                member is not None, None if member is not None else {"bracket": str(bracket)}
            ),
        }

    def ambiguity_empty():
        ambiguity = hamiltonian_ambiguity(xi)
        return CheckResult(not ambiguity, {"basis": [str(d) for d in ambiguity]})

    table = [
        Row("graph-isotropic", lambda: is_isotropic(xi)),
        Row("graph-involutive", lambda: is_involutive(xi)),
        Family("obs", ctx.samples, draw, checks, seed=ctx.seed),
        induced_algebroid_residuals(xi, max(3, ctx.samples // 10), ctx.seed, tag="obs-alg"),
    ]
    if linalg.rank(xi._form_matrix()) == n + 1:
        table.append(Row("ambiguity-empty", ambiguity_empty))

    # representative independence on a degenerate fixture
    fixture = _degenerate_fixture(n)
    amb = cache(lambda: hamiltonian_ambiguity(fixture))

    def draw_fixture(rng, case):
        a = _fixture_hamiltonian(fixture, rng, ctx.coeff_bound)
        b = _fixture_hamiltonian(fixture, rng, ctx.coeff_bound)
        return a, b, [random_polynomial(n, rng, 1, ctx.coeff_bound) for _ in amb()]

    def fixture_checks(a, b, shifts):
        shifted_der = a.ham_der
        for amb_d, c in zip(amb(), shifts):
            shifted_der = shifted_der + amb_d.scale(c)
        shifted = HamiltonianForm(a.alpha, shifted_der)
        return {
            "representative-independence": observable_bracket(shifted, b)
            - observable_bracket(a, b)
        }

    return table + [
        Row(
            "fixture-ambiguity-nonzero",
            lambda: CheckResult(bool(amb()), {"error": "expected a nonzero ambiguity basis"}),
        ),
        Family("obs-fix", max(3, ctx.samples // 5), draw_fixture, fixture_checks, seed=ctx.seed),
    ]


def useful_lemma(ctx):
    xi = graph_of_form(default_twist(ctx))

    def draw(rng, case):
        return tuple(
            random_hamiltonian(xi, rng, min(ctx.max_degree, 2), ctx.coeff_bound)
            for _ in range(4)
        )

    def checks(*hams):
        return {
            "three-forms": useful_lemma_residual(hams[:3]),
            "four-forms": useful_lemma_residual(hams),
        }

    return [Family("useful", ctx.samples, draw, checks, seed=ctx.seed)]


def _random_biderivation(n, rng, coeff_bound):
    entries = {}
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            entries[(a, b)] = random_polynomial(n, rng, 1, coeff_bound)
    return JacobiBiderivation.from_entries(n, entries)


def _route_agreement(J, twist=None):
    """Whether the bracket route and the graph route decide the (twisted)
    Jacobi identity of J alike; a disagreement's witness is the two
    verdicts.  Only the verdicts are read, so no failure is rendered."""
    if twist is not None:
        _check_closed(twist)
    routes = {
        "bracket_route": failing_triple(J, twist) is None,
        "graph_route": failing_pair(graph(J), twist) is None,
    }
    agree = routes["bracket_route"] == routes["graph_route"]
    return CheckResult(agree, None if agree else routes)


def jacobi(ctx):
    n = ctx.n

    def draw(rng, case):
        J = _random_biderivation(n, rng, 2)
        s, t, f = (random_polynomial(n, rng, 2, 2) for _ in range(3))
        return J, s, t, f

    def checks(J, s, t, f):
        agreement = _route_agreement(J)
        X = section_derivation(J, s)
        return {
            "route-agreement": agreement,
            # biderivation property of the induced bracket {s, -} = X
            "biderivation": X(f * t) - f * X(t) - X.symbol_apply(f) * t,
        }

    # the canonical contact-type bracket in one variable
    contact = JacobiBiderivation.from_closed_form(AtiyahForm.basis(1, (0, 1)))
    flipped = JacobiBiderivation(1, [[-v for v in row] for row in contact.matrix])

    def contact_value():
        value = jacobi_bracket(contact, Scalar.variable(1, 1), Scalar.one(1))
        return CheckResult(value == -1, {"got": str(value)})

    return [
        Family("jacobi", ctx.samples, draw, checks, seed=ctx.seed),
        Row("contact-bracket-value", contact_value),
        Row("contact-is-jacobi", lambda: is_jacobi(contact)),
        Row("evaluation-orientation-is-jacobi", lambda: is_jacobi(flipped)),
    ]


def twisted_jacobi(ctx):
    n = ctx.n

    def draw(rng, case):
        J = _random_biderivation(n, rng, 2)
        return J, differential(random_form(n, 2, rng, 1, 2))

    def checks(J, twist):
        return {"cross-oracle": _route_agreement(J, twist)}

    table = [Family("twj", max(2, ctx.samples // 5), draw, checks, seed=ctx.seed)]
    if n >= 2:
        # a genuinely twisted structure: gauge a product bracket by a
        # non-closed 2-form and twist by its differential
        base = JacobiBiderivation.from_entries(n, {(0, 1): Scalar.one(n)})
        shear = AtiyahForm(n, 2, {(1, n): Scalar.variable(n, 1)})
        twist = differential(shear)
        twisted = gauge_jacobi(base, shear)
        table.append(Row("gauged-is-twisted", lambda: is_twisted_jacobi(twisted, twist)))
    else:
        # one variable admits no nonzero twist: fall back to the
        # canonical contact-type bracket
        twisted = JacobiBiderivation.from_closed_form(AtiyahForm.basis(1, (0, 1)))
        twist = AtiyahForm.zero(1, 3)
    table.append(
        jet_algebroid_residuals(
            twisted, twist, max(2, ctx.samples // 10), ctx.seed, tag="twj-jet"
        )
    )

    def spanning_twist_detected():
        # fixed three-variable negative control: a contact-type bracket is
        # untwisted, so a spanning twist must leave a nonzero residual
        n3 = 3
        alpha = AtiyahForm(n3, 1, {(0,): Scalar.variable(n3, 2), (2,): Scalar.one(n3)})
        contact = JacobiBiderivation.from_closed_form(differential(alpha))
        residual = twisted_jacobi_residual(
            contact,
            AtiyahForm.basis(n3, (0, 1, 3)),
            Scalar.variable(n3, 1),
            Scalar.variable(n3, 2),
            Scalar.variable(n3, 3),
        )
        detected = not residual.is_zero()
        return CheckResult(detected, {"error": "residual vanished"})

    return table + [Row("spanning-twist-detected", spanning_twist_detected)]


def gauge(ctx):
    n = ctx.n
    omni = LCourantStructure.omni(n)

    def draw(rng, case):
        b_closed = differential(random_form(n, 1, rng, ctx.max_degree, ctx.coeff_bound))
        e1 = random_section(n, 1, rng, 1, ctx.coeff_bound)
        return b_closed, e1, random_section(n, 1, rng, 1, ctx.coeff_bound)

    def checks(b_closed, e1, e2):
        return {
            "auto-intertwines": gauge_auto(b_closed, omni.bracket(e1, e2))
            - omni.bracket(gauge_auto(b_closed, e1), gauge_auto(b_closed, e2))
        }

    base = JacobiBiderivation.from_entries(n, {(0, 1): Scalar.one(n)})
    xi = graph(base)

    def draw_tau(rng, case):
        return tuple(differential(random_form(n, 1, rng, 1, 2)) for _ in range(2))

    def tau_checks(b1, b2):
        shifted = dirac_gauge(xi, b1)
        same = span_equal(dirac_gauge(shifted, b2), dirac_gauge(xi, b1 + b2))
        out = {
            "tau-composes": CheckResult(same, None if same else {"error": "span mismatch"}),
            "tau-involutive": is_involutive(shifted),
        }
        try:
            transformed = gauge_jacobi(base, b1)
        except NonInvertible:
            # singular draw: the graph law is vacuous here
            out["graph-law"] = CheckResult(True)
            return out
        same = span_equal(graph(transformed), shifted)
        out["graph-law"] = CheckResult(same, None if same else {"error": "graph mismatch"})
        return out

    def noninvertible_witness():
        found = find_noninvertible_pair(max(2, n))
        if found is None:
            return CheckResult(False, {"error": "no singular pair found in the search box"})
        try:
            gauge_jacobi(*found)
        except NonInvertible:
            return CheckResult(True)
        return CheckResult(False, {"error": "expected the gauge move to be singular"})

    return [
        Family("gauge", ctx.samples, draw, checks, seed=ctx.seed),
        Family("gauge-tau", max(2, ctx.samples // 5), draw_tau, tau_checks, seed=ctx.seed),
        Row("noninvertible-witness", noninvertible_witness),
    ]
