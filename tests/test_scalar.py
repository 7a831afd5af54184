import random
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omnilie import linalg, scalar
from omnilie.errors import DegreeOverflow, DivisionByZero, IndexOutOfRange
from omnilie.scalar import (
    MAX_DEGREE,
    Polynomial,
    Scalar,
    _units,
    derive,
    divexact,
    monomials_upto,
    random_polynomial,
    random_scalar,
    sum_of_products,
)


def variables(n):
    return [Scalar.variable(n, i + 1) for i in range(n)]


def test_addition_and_normalization_examples():
    (x,) = variables(1)
    assert x + x == 2 * x
    assert (x**2 - 1) / (x - 1) == x + 1
    assert x / x == Scalar.one(1)


def test_division_by_zero():
    (x,) = variables(1)
    with pytest.raises(DivisionByZero):
        x / Scalar.zero(1)
    with pytest.raises(DivisionByZero):
        Scalar(Polynomial.one(1), Polynomial.zero(1))


def test_derive_examples():
    x, y = variables(2)
    assert (x**2).derive(1) == 2 * x
    assert derive(1 / x, 1) == -1 / (x**2)
    assert y.derive(1) == Scalar.zero(2)
    with pytest.raises(IndexOutOfRange):
        x.derive(3)
    with pytest.raises(IndexOutOfRange):
        x.derive(0)


def test_random_scalar_contracts():
    a = random_scalar(2, 99, 3, 5)
    b = random_scalar(2, 99, 3, 5)
    assert a == b
    for seed in range(1000):
        s = random_scalar(2, seed, 3, 5)
        assert s.is_polynomial()
        assert s.num.total_degree() <= 3
        assert all(
            abs(c) <= 5 and c.denominator == 1 for _, c in s.num.items()
        )


def test_denominator_monic_canonical_form():
    (x,) = variables(1)
    s = x / (2 * x + 2)
    assert s.den.leading()[1] == 1
    assert s == (x / 2) / (x + 1)


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def scalars(draw, n=2, max_degree=2):
    monos = monomials_upto(n, max_degree)
    terms = {}
    for mono in monos:
        if draw(st.booleans()):
            terms[mono] = draw(small_fraction)
    return Scalar(Polynomial(n, terms))


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert (b / a) * a == b
        assert a / a == Scalar.one(2)


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_derive_commutes_and_quotient_rule(a, b):
    assert a.derive(1).derive(2) == a.derive(2).derive(1)
    if not b.is_zero():
        q = a / b
        assert q.derive(1).derive(2) == q.derive(2).derive(1)


@settings(max_examples=30, deadline=None)
@given(scalars(), scalars())
def test_canonicalization_idempotent(a, b):
    if b.is_zero():
        return
    q = a / b
    again = Scalar(q.num, q.den)
    assert again.num == q.num and again.den == q.den


def _quotient(num, den):
    return Scalar(num) if den.is_zero() else Scalar(num, den)


@st.composite
def quotient_pairs(draw):
    """a = p1 g / (q1 f) and b = p2 / (q2 f g) for drawn p, q and linear
    f, g: polynomials or true quotients whose denominators share f and
    where g cancels across a product.  Half the time b becomes b - a, so
    that a + b cancels a's denominator."""
    p1, q1, p2, q2 = (draw(scalars()).num for _ in range(4))
    f, g = (draw(scalars(max_degree=1)).num for _ in range(2))
    a, b = _quotient(p1 * g, q1 * f), _quotient(p2, q2 * f * g)
    return (a, b - a) if draw(st.booleans()) else (a, b)


@settings(max_examples=40, deadline=None)
@given(quotient_pairs())
def test_henrici_sum_and_product_match_the_plain_formulas(pair):
    for a, b in (pair, pair[::-1]):
        n1, d1, n2, d2 = a.num, a.den, b.num, b.den
        assert a + b == Scalar(n1 * d2 + n2 * d1, d1 * d2)
        assert a * b == Scalar(n1 * n2, d1 * d2)


def test_serialization_order_fixed():
    monos = monomials_upto(2, 2)
    assert monos[0] == (0, 0)
    assert len(monos) == 6
    assert monos == sorted(monos, key=lambda m: (sum(m), m))


def test_monomials_upto_returns_a_new_list():
    monos = monomials_upto(2, 2)
    monos.append((9, 9))
    monos[0] = (5, 5)
    assert monomials_upto(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_rational_arithmetic_with_python_numbers():
    (x,) = variables(1)
    assert x * Fraction(1, 2) + x / 2 == x
    assert 1 - x + x == Scalar.one(1)


def test_monomials_upto_matches_the_filtered_product():
    import itertools

    for n in range(1, 5):
        for max_degree in range(5):
            old = [
                m
                for m in itertools.product(range(max_degree + 1), repeat=n)
                if sum(m) <= max_degree
            ]
            old.sort(key=lambda m: (sum(m), m))
            assert monomials_upto(n, max_degree) == old


def test_coefficient_and_items_round_trip():
    terms = {(2, 0, 1): Fraction(-3, 4), (0, 0, 0): 5, (1, 1, 0): Fraction(2, 3)}
    p = Polynomial(3, terms)
    assert p.items() == sorted(
        ((m, Fraction(c)) for m, c in terms.items()), key=lambda t: (sum(t[0]), t[0])
    )
    assert all(isinstance(c, Fraction) for _, c in p.items())
    for mono, c in terms.items():
        assert p.coefficient(mono) == c
    assert p.coefficient((0, 1, 0)) == 0
    assert Polynomial(3, dict(p.items())) == p
    assert p.leading() == ((2, 0, 1), Fraction(-3, 4))
    assert Polynomial(3, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): 0}).items() == [
        ((1, 0, 0), Fraction(1, 2))
    ]


def test_packing_near_the_field_limit():
    top = MAX_DEGREE
    terms = {(top, 0): 3, (0, top): Fraction(-1, 2), (top - 1, 1): 7, (0, 0): 1}
    p = Polynomial(2, terms)
    assert dict(p.items()) == terms
    assert p.total_degree() == top
    assert str(p) == f"3*x1^{top} + 7*x1^{top - 1}*x2 - 1/2*x2^{top} + 1"
    assert p.derivative(1).coefficient((top - 1, 0)) == 3 * top
    assert p.derivative(2).coefficient((top - 1, 0)) == 7
    x1 = Polynomial.variable(2, 1)
    high = Polynomial(2, {(top - 1, 0): 1})
    assert (high * x1).items() == [((top, 0), 1)]
    assert divexact(high * x1, x1) == high
    assert divexact(p * Polynomial.one(2), p) == Polynomial.one(2)
    with pytest.raises(ArithmeticError):
        divexact(Polynomial(2, {(top, 0): 1}), Polynomial(2, {(0, 1): 1}))
    with pytest.raises(DegreeOverflow):
        Polynomial(2, {(top, 0): 1}) * x1
    with pytest.raises(DegreeOverflow):
        Polynomial(2, {(top, 1): 1})


def test_constructor_rejects_malformed_monomials():
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(1, {(-1,): 1})
    with pytest.raises(ValueError, match="exponents"):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError, match="above the limit"):
        Polynomial(1, {(MAX_DEGREE + 1,): 1})


def test_equality_and_hash_are_structural():
    a = Polynomial(2, {(1, 0): Fraction(2, 6), (0, 1): Fraction(4, 6)})
    b = Polynomial(2, {(1, 0): 1}).scale(Fraction(1, 3)) + Polynomial(
        2, {(0, 1): Fraction(2, 3)}
    )
    assert a == b and hash(a) == hash(b)
    assert a.scale(3) == Polynomial(2, {(1, 0): 1, (0, 1): 2})
    assert (Scalar(a) / Scalar(a)).is_polynomial()
    assert not (Scalar.one(2) / Scalar(a)).is_polynomial()


def test_exact_division_by_negative_single_terms():
    minus_one = Polynomial.constant(2, -1)
    assert divexact(minus_one, minus_one) == Polynomial.one(2)
    x1 = Polynomial.variable(2, 1)
    assert divexact(x1.scale(6), x1.scale(Fraction(-3, 2))) == Polynomial.constant(2, -4)


@st.composite
def difference_pairs(draw):
    """Two polynomials whose terms come in drawn orders.  The second repeats
    some of the first's terms, so their difference cancels them."""
    monos = monomials_upto(2, 3)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    a_terms = draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=6))
    shared = draw(st.lists(st.sampled_from(sorted(a_terms)), unique=True)) if a_terms else []
    b_terms = {m: a_terms[m] for m in shared}
    b_terms.update(draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=6)))
    order = draw(st.permutations(list(b_terms)))
    return Polynomial(2, a_terms), Polynomial(2, {m: b_terms[m] for m in order})


@settings(max_examples=200, deadline=None)
@given(difference_pairs())
def test_subtraction_is_addition_of_the_negation(pair):
    # The gcd's content loop visits terms in insertion order, so a - b must
    # match a + (-b) in term order as well as in value.
    a, b = pair
    diff, reference = a - b, a + (-b)
    assert diff == reference
    assert list(diff.terms) == list(reference.terms)
    sa, sb = Scalar(a), Scalar(b)
    assert list((sa - sb).num.terms) == list((sa + (-sb)).num.terms)


def test_counted_operations_match_the_recorded_counts(count_operations):
    # Multiplies, coefficient products and gcd calls of a small jacobi run,
    # as the benchmark's tracer counts them.  The counts depend on the term
    # order of every product, sum and difference, so a change that reorders
    # terms or adds or drops a counted operation shows here.
    from omnilie.suites import SUITES, SuiteContext

    ctx = SuiteContext(n=3, samples=1, seed=20240611, max_degree=2, coeff_bound=2)
    counts = count_operations()
    cases = SUITES["jacobi"].runner(ctx)
    assert len(cases) == 5 and all(ok for _, ok, _ in cases)
    assert counts == {"poly_mul": 44, "coeff_products": 9414, "gcd": 0}


def test_quotient_rank_matches_the_recorded_counts(count_operations):
    # The elimination divides no rational function; only the lcm of each
    # row's denominators takes gcds.  Their count depends on the term order
    # of the gcd's results, which no other counter guard reaches.  The
    # matrix is 4x4 over Q(x1, x2): each entry a polynomial of degree <= 2
    # over a non-constant one of degree 1.
    rng = random.Random(1)

    def denominator():
        while (den := random_polynomial(2, rng, 1, 3)).num.is_constant():
            pass
        return den

    rows = [[random_polynomial(2, rng, 2, 3) / denominator() for _ in range(4)] for _ in range(4)]
    counts = count_operations()
    assert linalg.rank(rows) == 4
    assert counts == {"poly_mul": 284, "coeff_products": 446228, "gcd": 46}


x1 = Scalar.variable(2, 1)


def _left_to_right(n, terms):
    total = Scalar.zero(n)
    for sign, a, b in terms:
        term = a if b is None else a * b
        total = total + term if sign > 0 else total - term
    return total


@st.composite
def product_terms(draw, quotients=False):
    """(sign, a, b) triples over rational polynomials, optionally with true
    quotients among them; some draws repeat terms with the other sign, so
    the sum cancels in part or in full."""
    factor = scalars(max_degree=2)
    if quotients:
        shift = st.integers(min_value=1, max_value=3)
        quotient = st.builds(lambda p, k: p / (x1 + k), scalars(max_degree=1), shift)
        factor = st.one_of(factor, quotient)
    triple = st.tuples(
        st.sampled_from([1, -1]), factor, st.one_of(st.none(), factor)
    )
    terms = draw(st.lists(triple, max_size=6))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    terms += [(-sign, a, b) for sign, a, b in cancelled]
    return draw(st.permutations(terms))


@settings(max_examples=100, deadline=None)
@given(product_terms())
def test_sum_of_products_matches_scalar_arithmetic(terms):
    total = sum_of_products(2, terms)
    assert total == _left_to_right(2, terms)
    assert total.den is _units(2)[1]


@settings(max_examples=40, deadline=None)
@given(product_terms(quotients=True))
def test_sum_of_products_matches_scalar_arithmetic_on_quotients(terms):
    assert sum_of_products(2, terms) == _left_to_right(2, terms)


def test_sum_of_products_edge_cases():
    x, y = variables(2)
    half = Scalar.from_fraction(2, Fraction(1, 2))
    q = x / (y + 1)
    assert sum_of_products(2, []) == Scalar.zero(2)
    # a single unscaled term is returned as it is
    assert sum_of_products(2, [(1, q, None)]) is q
    assert sum_of_products(2, [(-1, q, None)]) == -q
    # unequal denominators, and products that cancel to zero
    terms = [(1, half * x, x / 3), (-1, x / 6, x), (1, y / 4, None), (-1, y, half / 2)]
    assert sum_of_products(2, terms) == Scalar.zero(2)
    assert sum_of_products(2, terms[:3]) == y / 4
    # a true quotient takes the Scalar arithmetic
    assert sum_of_products(2, [(1, q, y + 1), (-1, x, None)]) == Scalar.zero(2)
    assert sum_of_products(2, [(1, q, x), (1, y, None)]) == q * x + y


def test_sum_of_products_checks_the_degree_limit():
    high = Scalar(Polynomial(2, {(MAX_DEGREE, 0): 1}))
    x, y = variables(2)
    assert sum_of_products(2, [(1, high, y.derive(2))]) == high
    with pytest.raises(DegreeOverflow):
        sum_of_products(2, [(1, x, x), (1, high, x)])
    with pytest.raises(DegreeOverflow):
        # the products cancel, but each is past the limit
        sum_of_products(2, [(1, high, y), (-1, high, y)])


@contextmanager
def kronecker_sums(arg=0):
    """Record the variable count (argument ``arg`` of the kernel; 4 is the
    slot width) of every sum that takes the Kronecker path."""
    taken = []
    kernel = scalar._kronecker_sum

    def counted(*args):
        taken.append(args[arg])
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_kronecker_sum", counted)
        yield taken


@st.composite
def dense_product_terms(draw):
    """8-16 products of dense polynomials in 3 variables of degree <= 3,
    with integer coefficients up to the scenario cap of 10^6 over drawn
    denominators, up to 3 lone terms (b None), and terms repeated at the
    other sign, all of them or some, so that the sum cancels in full or in
    part.  Each factor has at least 8 terms, so a sum makes at least 512
    coefficient products and its slot box holds at most 7^3 = 343 slots:
    every draw takes the Kronecker path."""
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
        st.sampled_from([1, 1, 1, 2, 3, 7, 12]),
    )
    monos = st.sampled_from(monomials_upto(3, 3))
    factor = st.dictionaries(monos, coeff, min_size=8, max_size=20).map(
        lambda t: Scalar(Polynomial(3, t))
    )
    sign = st.sampled_from([1, -1])
    terms = draw(st.lists(st.tuples(sign, factor, factor), min_size=8, max_size=16))
    terms += draw(st.lists(st.tuples(sign, factor, st.none()), max_size=3))
    some = st.lists(st.sampled_from(terms), max_size=len(terms))
    cancelled = draw(st.one_of(st.just(list(terms)), some))
    terms += [(-sign, a, b) for sign, a, b in cancelled]
    return draw(st.permutations(terms))


@settings(max_examples=60, deadline=None)
@given(dense_product_terms())
def test_kronecker_sums_match_the_loop_and_scalar_arithmetic(terms):
    with kronecker_sums() as taken:
        total = sum_of_products(3, terms)
    assert taken == [3]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_KRONECKER_WORK", float("inf"))
        looped = sum_of_products(3, terms)
    assert total == looped == _left_to_right(3, terms)
    assert total.den is _units(3)[1]


@pytest.mark.parametrize("bits", [16, 24, 32, 64])
def test_kronecker_slots_hold_coefficients_at_their_bound(bits):
    # 256 equal products c * x1 with c = 2^(bits - 9): the one coefficient
    # of the sum is its bound 2^(bits - 1), whose bit length is a whole
    # number of bytes, so the slot needs one more bit for the sign.  At 64
    # bits that is past the widest slot, and the sum takes the loop.
    x = Scalar.variable(3, 1)
    c = Scalar.from_fraction(3, 2 ** (bits - 9))
    for sign in (1, -1):
        with kronecker_sums() as taken:
            assert sum_of_products(3, [(sign, c, x)] * 256) == x * (sign * 2 ** (bits - 1))
        assert taken == ([3] if bits < 64 else [])


def test_dense_sums_take_the_kronecker_path_and_sparse_ones_do_not():
    # Four products of 20-term factors, 1,600 coefficient products, of
    # degree 6 either way: the box holds 7^3 = 343 slots at n = 3, but
    # 7^8 at n = 8, where the 20 monomials are drawn from 165.
    rng = random.Random(3)
    coeffs = [c for c in range(-5, 6) if c]

    def factor(n):
        monos = rng.sample(monomials_upto(n, 3), 20)
        return Scalar(Polynomial(n, {m: rng.choice(coeffs) for m in monos}))

    for n in (3, 8):
        terms = [(rng.choice([1, -1]), factor(n), factor(n)) for _ in range(4)]
        with kronecker_sums() as taken:
            total = sum_of_products(n, terms)
        assert taken == ([3] if n == 3 else [])
        assert total == _left_to_right(n, terms)


# For each slot width, a coefficient cap M at its edge: four products of
# 8-term factors whose largest coefficient is M have the slot bound
# 4 * 8 * M^2, whose bit length plus a sign bit is the width itself (7
# of the 8 bits at the narrowest, where M = 2 would need 9).
SLOT_EDGES = {8: 1, 16: 30, 32: 8191, 64: 2**29 - 1}


def slot_factor(draw, n, cap, max_degree=3):
    """An 8-term polynomial scalar of degree ``max_degree`` with integer
    coefficients in -cap..cap, one of them +-cap."""
    monos = monomials_upto(n, max_degree)
    top = draw(st.sampled_from([m for m in monos if sum(m) == max_degree]))
    monos = [top] + draw(st.permutations([m for m in monos if m != top]))[:7]
    sign = st.sampled_from([1, -1])
    coeffs = [draw(sign) * draw(st.integers(1, cap)) for _ in monos[1:]]
    coeffs.append(draw(sign) * cap)
    return Scalar(Polynomial(n, dict(zip(monos, coeffs))))


@settings(max_examples=15, deadline=None)
@given(st.data())
@pytest.mark.parametrize("width", sorted(SLOT_EDGES))
def test_kronecker_sums_at_each_slot_width(width, data):
    # One polynomial, `shared`, takes part in four sums: two of the same
    # layout (its second image comes from its memo), one of a wider slot
    # and one of a higher degree (a new box).  Each sum is checked
    # against the dict loop and against Scalar arithmetic.
    n, cap = 2, SLOT_EDGES[width]
    shared = slot_factor(data.draw, n, cap)
    sign = st.sampled_from([1, -1])

    def sum_with(cap, max_degree=3):
        others = [slot_factor(data.draw, n, cap, max_degree) for _ in range(7)]
        pairs = [(shared, others[0])] + list(zip(others[1::2], others[2::2]))
        return [(data.draw(sign), a, b) for a, b in pairs]

    sums = [(sum_with(cap), width, 7), (sum_with(cap), width, 7)]
    wider = [w for w in sorted(SLOT_EDGES) if w > width]
    if wider:
        sums.append((sum_with(SLOT_EDGES[wider[0]]), wider[0], 7))
    sums.append((sum_with(cap, 4), width, 9))
    for terms, slot, base in sums:
        with kronecker_sums(4) as taken:
            total = sum_of_products(n, terms)
        assert taken == [slot]
        assert shared.num._memo[0][0] == (base, slot)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scalar, "_KRONECKER_WORK", float("inf"))
            looped = sum_of_products(n, terms)
        assert total == looped == _left_to_right(n, terms)
        assert list(total.num.terms) == sorted(total.num.terms)


def _product_by_items(a, b):
    terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            terms[mono] = terms.get(mono, 0) + ca * cb
    return Polynomial(a.nvars, terms)


def test_large_products_take_the_kronecker_path(count_operations):
    # 20 x 20 terms of degree <= 3 in 3 variables: 400 coefficient
    # products into a box of 7^3 = 343 slots.
    rng = random.Random(16)
    a, b = (random_polynomial(3, rng, 3, 10**6).num for _ in range(2))
    assert len(a.terms) == len(b.terms) == 20
    with kronecker_sums() as taken:
        product = a * b
    assert taken == [3]
    assert list(product.terms) == sorted(product.terms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_KRONECKER_WORK", float("inf"))
        with kronecker_sums() as taken:
            looped = a * b
        assert taken == []
    assert product == looped == _product_by_items(a, b)
    # a small product keeps the loop
    with kronecker_sums() as taken:
        assert a * Polynomial.variable(3, 1) == _product_by_items(a, Polynomial.variable(3, 1))
    assert taken == []
    counts = count_operations()
    a * b
    assert counts == {"poly_mul": 1, "coeff_products": 400, "gcd": 0}


def test_a_product_past_the_degree_limit_raises_before_any_work(monkeypatch):
    high = Polynomial(3, {(MAX_DEGREE, 0, 0): 1})
    a = random_polynomial(3, random.Random(1), 3, 5).num

    def forbidden(*args):
        raise AssertionError("products added up")

    monkeypatch.setattr(scalar, "_add_products", forbidden)
    with pytest.raises(DegreeOverflow):
        high * a


def _derivative_by_items(p, i):
    for mono, c in p.items():
        if mono[i - 1]:
            yield tuple(e - (k == i - 1) for k, e in enumerate(mono)), c * mono[i - 1]


def test_derivatives_are_kept():
    p = random_polynomial(3, random.Random(2), 3, 5).num
    for i in (1, 2, 3):
        d = p.derivative(i)
        assert p.derivative(i) is d
        assert d == Polynomial(3, dict(_derivative_by_items(p, i)))
    with pytest.raises(IndexOutOfRange):
        p.derivative(4)
    s = Scalar(p)
    assert s.derive(2).num is p.derivative(2)


def test_random_polynomial_draws_as_the_constructor_did():
    # The same randint calls in the same order, and the same terms in the
    # same insertion order, as building each draw through Polynomial().
    for n, max_degree, bound in [(1, 0, 1), (2, 3, 5), (3, 2, 10**6), (3, 1, 0)]:
        new, old = random.Random(n), random.Random(n)
        for _ in range(20):
            drawn = random_polynomial(n, new, max_degree, bound)
            terms = {}
            for mono in monomials_upto(n, max_degree):
                c = old.randint(-bound, bound)
                if c:
                    terms[mono] = c
            built = Scalar(Polynomial(n, terms))
            assert drawn == built and list(drawn.num.terms) == list(built.num.terms)
            assert drawn.den is _units(n)[1]
        assert new.random() == old.random()


def test_scale_takes_any_rational():
    p = Polynomial(2, {(1, 0): 2, (0, 1): Fraction(1, 3)})
    half = Polynomial(2, {(1, 0): 1, (0, 1): Fraction(1, 6)})
    assert p.scale(Fraction(1, 2)) == p.scale(Decimal("0.5")) == p.scale(0.5) == half
    assert p.scale(2) == p.scale(Fraction(2)) == p + p
    assert p.scale(0).is_zero()


def test_polynomial_scalars_share_one_unit_denominator():
    from omnilie import serialize

    unit = _units(2)[1]
    x, y = variables(2)
    num = Polynomial(2, {(1, 0): Fraction(2, 3), (0, 0): 1})
    built = [
        Scalar(num),
        Scalar(num, Polynomial.constant(2, 3)),
        Scalar(num, Polynomial.one(2)),
        (x * x - y * y) / (x + y),
        (x * y) / (2 * x),
        serialize.scalar_from_obj(2, serialize.scalar_to_obj(x * y + 1)),
        Scalar.from_fraction(2, Fraction(-5, 7)),
        Scalar.zero(2),
        Scalar.one(2),
        Scalar.variable(2, 2),
        (x / (y + 1)) * (y + 1),
        (x / (y + 1)).derive(1) * (y + 1),
    ]
    for s in built:
        assert s.den is unit, s
        assert s.is_polynomial()
    assert not (x / (y + 1)).is_polynomial()


def test_polynomial_arithmetic_makes_no_structural_unit_test(monkeypatch):
    x, y = variables(2)
    a, b = x * y + 1, x - Fraction(1, 3)

    def forbidden(self):
        raise AssertionError("Polynomial.is_one called")

    monkeypatch.setattr(Polynomial, "is_one", forbidden)
    assert (a + b) - b == a
    assert (a * b).derive(2) == x * b
    assert a.is_polynomial() and (a - a).is_polynomial()
    assert sum_of_products(2, [(1, a, b), (-1, b, a)]) == Scalar.zero(2)
