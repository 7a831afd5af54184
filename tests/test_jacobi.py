import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from omnilie.errors import NonInvertible, NotClosed
from omnilie import jacobi, linalg
from omnilie.gauge import Derivation
from omnilie.atiyah import (
    AtiyahForm,
    contract,
    differential,
    evaluate,
    lie_derivative,
    random_form,
)
from omnilie.dcourant import dorfman
from omnilie.observables import (
    hamiltonian_derivation,
    is_involutive,
    section_coordinates,
)
from omnilie.jacobi import (
    JacobiBiderivation,
    dirac_gauge,
    failing_triple,
    find_noninvertible_pair,
    gauge_jacobi,
    graph,
    is_jacobi,
    _jacobiator,
    _triple_witness,
    _with_derivations,
    is_twisted_jacobi,
    jacobi_bracket,
    jet_algebroid_residuals,
    monomial_scalars,
    section_derivation,
    sharp,
    span_equal,
    twisted_jacobi_residual,
    twisted_jet_bracket,
)
from omnilie.scalar import Polynomial, Scalar, monomials_upto, random_polynomial
from omnilie.suites_jacobi import _random_biderivation

CONTACT1 = JacobiBiderivation.from_closed_form(AtiyahForm.basis(1, (0, 1)))


def test_bracket_examples():
    x = Scalar.variable(1, 1)
    assert jacobi_bracket(CONTACT1, x, Scalar.one(1)) == -Scalar.one(1)
    assert jacobi_bracket(CONTACT1, x * x, x) == -(x * x)
    rng = random.Random(1)
    for _ in range(4):
        s = random_polynomial(1, rng, 2, 2)
        assert jacobi_bracket(CONTACT1, s, s).is_zero()


def test_antisymmetry_validation():
    one = Scalar.one(1)
    with pytest.raises(ValueError):
        JacobiBiderivation(1, [[one, one], [one, one]])


def test_sharp_examples():
    x = Scalar.variable(1, 1)
    assert sharp(CONTACT1, differential(x)) == Derivation((x, -Scalar.one(1)))
    assert sharp(CONTACT1, AtiyahForm.basis(1, (1,))) == Derivation.partial(1, 1)
    assert CONTACT1.matrix[0][1] == -Scalar.one(1)
    rng = random.Random(2)
    for _ in range(4):
        f = random_polynomial(1, rng, 2, 2)
        alpha = random_form(1, 1, rng, 2, 2)
        assert sharp(CONTACT1, alpha.scale(f)) == sharp(CONTACT1, alpha).scale(f)


def test_sharp_matches_hamiltonian_solver():
    # the contact bracket's section derivations solve the graph equation
    gr = graph(CONTACT1)
    rng = random.Random(3)
    for _ in range(4):
        s = random_polynomial(1, rng, 2, 2)
        assert section_derivation(CONTACT1, s) == hamiltonian_derivation(
            s, graph_of_contact()
        )


def graph_of_contact():
    from omnilie.observables import graph_of_form

    return graph_of_form(AtiyahForm.basis(1, (0, 1)))


def test_is_jacobi_verdicts():
    assert is_jacobi(CONTACT1).ok
    assert set(is_jacobi(CONTACT1).witness) == {"bracket_route", "graph_route"}
    assert is_jacobi(JacobiBiderivation.zero(2)).ok
    product = JacobiBiderivation.from_entries(2, {(0, 1): Scalar.one(2)})
    assert is_jacobi(product).ok
    flipped = JacobiBiderivation(
        1, [[-v for v in row] for row in CONTACT1.matrix]
    )
    assert is_jacobi(flipped).ok


def test_is_jacobi_routes_agree_and_find_witnesses():
    rng = random.Random(4)
    saw_false = False
    for trial in range(30):
        entries = {}
        for a in range(3):
            for b in range(a + 1, 3):
                entries[(a, b)] = random_polynomial(2, rng, 1, 2)
        J = JacobiBiderivation.from_entries(2, entries)
        verdict = is_jacobi(J)
        assert verdict.witness["bracket_route"] == verdict.witness["graph_route"]
        routes = {"bracket_route", "graph_route"}
        assert set(verdict.witness) == (routes if verdict.ok else routes | {"witness"})
        if not verdict.ok:
            saw_false = True
            assert "witness" in verdict.witness
            # a zero twist takes the same route to the same first triple
            twisted = is_twisted_jacobi(J, AtiyahForm.zero(2, 3))
            assert not twisted.ok
            assert twisted.witness["triple"] == verdict.witness["witness"]["triple"]
    assert saw_false



def _product_order_triple(J, omega=None):
    # the walk over all ordered triples, kept as the oracle of the
    # alternating route
    family = _with_derivations(J, monomial_scalars(J.n, 2))
    for triple in itertools.product(family, repeat=3):
        residual = _jacobiator(*triple)
        if omega is not None:
            residual = residual - evaluate(omega, *(X for _, X in triple))
        if not residual.is_zero():
            return {"triple": [str(s) for s, _ in triple], "residual": str(residual)}
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alternating_triples_find_the_product_order_witness(n):
    rng = random.Random(40 + n)
    cases = []
    for J in [JacobiBiderivation.zero(n)] + [_random_biderivation(n, rng, 2) for _ in range(3)]:
        closed = differential(random_form(n, 2, rng, 1, 2))
        cases += [(J, None), (J, AtiyahForm.zero(n, 3)), (J, closed)]
    if n >= 2:
        # a bracket that satisfies its nonzero twisted condition
        shear = AtiyahForm(n, 2, {(1, 2): Scalar.variable(n, 1)})
        base = JacobiBiderivation.from_entries(n, {(0, 1): Scalar.one(n)})
        cases.append((gauge_jacobi(base, shear), differential(shear)))
    witnesses = [_triple_witness(failing_triple(J, omega)) for J, omega in cases]
    assert witnesses == [_product_order_triple(J, omega) for J, omega in cases]
    # in one variable every biderivation is Jacobi and every 3-form zero
    assert None in witnesses and (n == 1 or any(w is not None for w in witnesses))


def test_the_twisted_jacobi_residual_is_alternating():
    rng = random.Random(47)
    for n in (2, 3):
        J = _random_biderivation(n, rng, 2)
        omega = differential(random_form(n, 2, rng, 1, 2))
        sections = [random_polynomial(n, rng, 2, 2) for _ in range(3)]
        p = _with_derivations(J, sections)

        def residual(*pairs):
            return _jacobiator(*pairs) - evaluate(omega, *(X for _, X in pairs))

        for twisted in (_jacobiator, residual):
            value = twisted(*p)
            assert not value.is_zero()
            assert twisted(p[1], p[0], p[2]) == -value
            assert twisted(p[0], p[2], p[1]) == -value
            assert twisted(p[2], p[1], p[0]) == -value
            assert twisted(p[0], p[0], p[2]).is_zero()
            assert twisted(p[0], p[1], p[1]).is_zero()
            assert twisted(p[2], p[1], p[2]).is_zero()


def test_the_alternating_route_evaluates_increasing_triples_once(monkeypatch):
    calls, built = [], []

    def counted_jacobiator(*pairs):
        calls.append([s for s, _ in pairs])
        return _jacobiator(*pairs)

    def counted_derivation(J, s):
        built.append(s)
        return section_derivation(J, s)

    monkeypatch.setattr(jacobi, "_jacobiator", counted_jacobiator)
    monkeypatch.setattr(jacobi, "section_derivation", counted_derivation)
    assert failing_triple(JacobiBiderivation.zero(2)) is None
    assert len(calls) == 20  # C(6, 3)
    assert len(built) == 6
    assert all(len(set(map(str, triple))) == 3 for triple in calls)
    calls.clear()
    assert failing_triple(CONTACT1) is None
    assert len(calls) == 1
    # each monomial's derivation is built once, on its first use
    rng = random.Random(48)
    partial = False
    for _ in range(6):
        calls.clear()
        built.clear()
        assert failing_triple(_random_biderivation(3, rng, 2)) is not None
        used = {str(s) for triple in calls for s in triple}
        assert sorted(map(str, built)) == sorted(used)
        partial = partial or len(built) < 10
    assert partial


def test_nondegenerate_two_form_correspondence():
    # evaluating a closed nondegenerate 2-form on section derivations
    # yields the mirror bracket of the induced one
    omega = AtiyahForm.basis(1, (0, 1))
    gr = graph_of_contact()
    rng = random.Random(5)
    for _ in range(4):
        s = random_polynomial(1, rng, 2, 2)
        t = random_polynomial(1, rng, 2, 2)
        ds = hamiltonian_derivation(s, gr)
        dt = hamiltonian_derivation(t, gr)
        direct = evaluate(omega, ds, dt)
        assert direct == -jacobi_bracket(CONTACT1, s, t)


def test_twisted_residual_examples():
    product = JacobiBiderivation.from_entries(2, {(0, 1): Scalar.one(2)})
    zero_twist = AtiyahForm.zero(2, 3)
    rng = random.Random(6)
    for _ in range(3):
        s1, s2, s3 = (random_polynomial(2, rng, 2, 2) for _ in range(3))
        assert twisted_jacobi_residual(product, zero_twist, s1, s2, s3).is_zero()
    with pytest.raises(NotClosed):
        bad = AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)})
        twisted_jacobi_residual(
            JacobiBiderivation.zero(3), bad, Scalar.one(3), Scalar.one(3), Scalar.one(3)
        )


def test_is_twisted_jacobi_rejects_an_open_twist():
    bad = AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)})
    with pytest.raises(NotClosed):
        is_twisted_jacobi(JacobiBiderivation.zero(3), bad)


def test_gauged_bracket_is_twisted():
    base = JacobiBiderivation.from_entries(2, {(0, 1): Scalar.one(2)})
    shear = AtiyahForm(2, 2, {(1, 2): Scalar.variable(2, 1)})
    twist = differential(shear)
    assert not twist.is_zero()
    twisted = gauge_jacobi(base, shear)
    assert is_twisted_jacobi(twisted, twist).ok
    assert is_involutive(graph(twisted), twist=twist).ok


def test_cross_oracle_on_random_brackets():
    rng = random.Random(7)
    for trial in range(10):
        entries = {}
        for a in range(3):
            for b in range(a + 1, 3):
                entries[(a, b)] = random_polynomial(2, rng, 1, 2)
        J = JacobiBiderivation.from_entries(2, entries)
        twist = differential(random_form(2, 2, rng, 1, 2))
        assert is_twisted_jacobi(J, twist).ok == is_involutive(
            graph(J), twist=twist
        ).ok


def test_spanning_twist_breaks_untwisted_bracket():
    n = 3
    alpha = AtiyahForm(n, 1, {(0,): Scalar.variable(n, 2), (2,): Scalar.one(n)})
    contact3 = JacobiBiderivation.from_closed_form(differential(alpha))
    assert is_jacobi(contact3).ok
    spanning = AtiyahForm.basis(n, (0, 1, 3))
    residual = twisted_jacobi_residual(
        contact3,
        spanning,
        Scalar.variable(n, 1),
        Scalar.variable(n, 2),
        Scalar.variable(n, 3),
    )
    assert not residual.is_zero()


def test_jet_bracket_algebroid():
    zero_twist = AtiyahForm.zero(1, 3)
    entries = jet_algebroid_residuals(CONTACT1, zero_twist, 5, seed=9)
    assert all(ok for _, ok, _ in entries)
    base = JacobiBiderivation.from_entries(2, {(0, 1): Scalar.one(2)})
    shear = AtiyahForm(2, 2, {(1, 2): Scalar.variable(2, 1)})
    entries = jet_algebroid_residuals(
        gauge_jacobi(base, shear), differential(shear), 4, seed=10
    )
    assert all(ok for _, ok, _ in entries)
    # Leibniz by direct expansion
    rng = random.Random(11)
    for _ in range(3):
        al = random_form(1, 1, rng, 1, 2)
        be = random_form(1, 1, rng, 1, 2)
        f = random_polynomial(1, rng, 1, 2)
        lhs = twisted_jet_bracket(CONTACT1, zero_twist, al, be.scale(f))
        rhs = twisted_jet_bracket(CONTACT1, zero_twist, al, be).scale(f) + be.scale(
            sharp(CONTACT1, al).symbol_apply(f)
        )
        assert lhs == rhs


def _three_term_jet_bracket(J, omega, alpha, beta):
    # the bracket as three forms and two subtractions, kept as the oracle
    # of twisted_jet_bracket
    sa = sharp(J, alpha)
    sb = sharp(J, beta)
    return (
        lie_derivative(sa, beta)
        - contract(sb, differential(alpha))
        - contract(sb, contract(sa, omega))
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisted_jet_bracket_is_the_three_term_formula(n):
    rng = random.Random(300 + n)
    twists = [AtiyahForm.zero(n, 3)]
    if n >= 2:
        twists.append(differential(random_form(n, 2, rng, 1, 2)))
    if n == 3:
        # not closed: the bracket does not rest on d omega = 0
        twists.append(AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)}))
    for omega in twists:
        entries = {
            (a, b): random_polynomial(n, rng, 1, 2)
            for a in range(n + 1)
            for b in range(a + 1, n + 1)
        }
        J = JacobiBiderivation.from_entries(n, entries)
        for _ in range(3):
            alpha, beta = (random_form(n, 1, rng, 2, 2) for _ in range(2))
            assert twisted_jet_bracket(J, omega, alpha, beta) == _three_term_jet_bracket(
                J, omega, alpha, beta
            )


def test_gauge_jacobi_laws():
    base = JacobiBiderivation.from_entries(2, {(0, 1): Scalar.one(2)})
    assert gauge_jacobi(base, AtiyahForm.zero(2, 2)) == base
    rng = random.Random(12)
    xi = graph(base)
    exercised = 0
    for _ in range(8):
        b1 = differential(random_form(2, 1, rng, 1, 2))
        b2 = differential(random_form(2, 1, rng, 1, 2))
        assert span_equal(
            dirac_gauge(dirac_gauge(xi, b1), b2), dirac_gauge(xi, b1 + b2)
        )
        assert is_involutive(dirac_gauge(xi, b1)).ok
        try:
            transformed = gauge_jacobi(base, b1)
        except NonInvertible:
            continue  # the gauged span is not a graph for this draw
        exercised += 1
        assert span_equal(graph(transformed), dirac_gauge(xi, b1))
        # undoing the shift recovers the original bracket
        assert gauge_jacobi(transformed, -b1) == base
    assert exercised >= 2
    with pytest.raises(NotClosed):
        dirac_gauge(xi, AtiyahForm(2, 2, {(1, 2): Scalar.variable(2, 1)}))


def test_dirac_gauge_identity_at_zero():
    base = JacobiBiderivation.from_entries(2, {(0, 1): Scalar.one(2)})
    xi = graph(base)
    assert span_equal(dirac_gauge(xi, AtiyahForm.zero(2, 2)), xi)


def test_bracket_is_a_biderivation():
    rng = random.Random(14)
    for _ in range(5):
        s = random_polynomial(1, rng, 2, 2)
        t = random_polynomial(1, rng, 2, 2)
        f = random_polynomial(1, rng, 2, 2)
        lhs = jacobi_bracket(CONTACT1, s, f * t)
        rhs = f * jacobi_bracket(CONTACT1, s, t) + section_derivation(
            CONTACT1, s
        ).symbol_apply(f) * t
        assert lhs == rhs


def test_noninvertible_witness():
    pair = find_noninvertible_pair(2)
    assert pair is not None
    J_bad, B_bad = pair
    with pytest.raises(NonInvertible):
        gauge_jacobi(J_bad, B_bad)


def _polynomial_graph():
    """graph(J) for a fixed biderivation with degree-1 polynomial entries in
    three variables, and the brackets of its generator pairs."""
    rng = random.Random(20240611)
    J = JacobiBiderivation.from_entries(
        3,
        {
            (a, b): random_polynomial(3, rng, 1, 2)
            for a in range(4)
            for b in range(a + 1, 4)
        },
    )
    xi = graph(J)
    gens = xi.generators
    brackets = [dorfman(g, h) for i, g in enumerate(gens) for h in gens[i + 1 :]]
    return xi, brackets


def test_membership_in_a_polynomial_graph_takes_no_gcd(count_operations):
    # The form rows of graph(J) hold an identity block, so every pivot of
    # the membership system is a constant and no rational function forms.
    xi, brackets = _polynomial_graph()
    counts = count_operations()
    assert [xi.contains(br) for br in brackets] == [None] * len(brackets)
    for k, g in enumerate(xi.generators):
        assert xi.contains(g) == [
            Scalar.one(3) if i == k else Scalar.zero(3) for i in range(4)
        ]
    assert counts["gcd"] == 0


def test_determinant_matches_the_recorded_counts(count_operations):
    # determinant, which the cohomologous-iso suite runs, reads the
    # fraction-free elimination: polynomial rows take Bareiss's step where
    # a column holds no constant, and the result is built as one Scalar
    # over the denominator 1, so no gcd runs.  The matrices are sharp(J, .)
    # with a bracket's coordinates in the first column, and a change to
    # the steps or the pivots shows in the counts.
    xi, brackets = _polynomial_graph()
    sharp = xi._full_matrix()[:4]
    matrices = [
        [[col[i]] + sharp[i][1:] for i in range(4)]
        for col in (section_coordinates(br) for br in brackets)
    ]
    counts = count_operations()
    assert not any(linalg.determinant(m).is_zero() for m in matrices)
    assert counts == {"poly_mul": 527, "coeff_products": 23628, "gcd": 0}


# An oracle for the bracket that shares no code with jacobi.py: the double
# sum sum_{a,b} J[a][b] * alpha_a * beta_b written with Scalar * and +.
# J is drawn with polynomial entries and with true quotients, so both the
# polynomial lane of sum_of_products and its Scalar fallback are covered.

N = 2


@st.composite
def polynomials(draw, max_degree):
    coefficient = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    monos = monomials_upto(N, max_degree)
    return Scalar(Polynomial(N, {m: draw(coefficient) for m in monos if draw(st.booleans())}))


@st.composite
def biderivations(draw):
    quotient = st.builds(
        lambda p, k: p / (Scalar.variable(N, 1) + k), polynomials(1), st.integers(1, 3)
    )
    entry = st.one_of(polynomials(1), quotient)
    return JacobiBiderivation.from_entries(
        N, {(a, b): draw(entry) for a in range(N + 1) for b in range(a + 1, N + 1)}
    )


def jet(s):
    """(d_1 s, ..., d_n s, s), the coefficients of differential(s)."""
    return [s.derive(i + 1) for i in range(N)] + [s]


def one_form_coefficients(alpha):
    return [alpha.coefficient((a,)) for a in range(N + 1)]


def double_sum(J, alpha, beta):
    total = Scalar.zero(N)
    for a in range(N + 1):
        for b in range(N + 1):
            total = total + J.matrix[a][b] * alpha[a] * beta[b]
    return total


def bracket_oracle(J, s, t):
    return double_sum(J, jet(s), jet(t))


def sharp_oracle(J, alpha):
    column = []
    for b in range(N + 1):
        total = Scalar.zero(N)
        for a in range(N + 1):
            total = total + alpha[a] * J.matrix[a][b]
        column.append(total)
    return Derivation(column)


one_forms = st.builds(
    lambda coeffs: AtiyahForm(N, 1, {(a,): c for a, c in enumerate(coeffs)}),
    st.lists(polynomials(1), min_size=N + 1, max_size=N + 1),
)


@settings(max_examples=40, deadline=None)
@given(biderivations(), polynomials(2), polynomials(2), one_forms, one_forms)
def test_bracket_pair_and_sharp_match_the_double_sum(J, s, t, alpha, beta):
    assert jacobi_bracket(J, s, t) == bracket_oracle(J, s, t)
    assert J.pair(alpha, beta) == double_sum(
        J, one_form_coefficients(alpha), one_form_coefficients(beta)
    )
    assert sharp(J, alpha) == sharp_oracle(J, one_form_coefficients(alpha))
    assert section_derivation(J, s) == sharp_oracle(J, jet(s))


@settings(max_examples=25, deadline=None)
@given(biderivations(), st.lists(polynomials(1), min_size=3, max_size=3), one_forms)
def test_jacobiator_matches_the_nested_brackets(J, sections, alpha):
    s1, s2, s3 = sections
    nested = (
        bracket_oracle(J, s1, bracket_oracle(J, s2, s3))
        + bracket_oracle(J, s2, bracket_oracle(J, s3, s1))
        + bracket_oracle(J, s3, bracket_oracle(J, s1, s2))
    )
    pairs = [(s, sharp_oracle(J, jet(s))) for s in sections]
    assert _jacobiator(*pairs) == nested
    # a closed twist, evaluated on the section derivations
    omega = differential(AtiyahForm(N, 2, {(0, 1): s1, (1, 2): alpha.coefficient((0,))}))
    twist = evaluate(omega, *(X for _, X in pairs))
    assert twisted_jacobi_residual(J, omega, s1, s2, s3) == nested - twist
