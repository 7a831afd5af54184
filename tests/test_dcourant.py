import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omnilie.errors import OrderMismatch, TwistArityError
from omnilie.gauge import Derivation, commutator, random_derivation
from omnilie.atiyah import (
    AtiyahForm,
    contract,
    differential,
    evaluate,
    index_subsets,
    lie_derivative,
    primitive,
    random_form,
)
from omnilie.dcourant import (
    Connection,
    DSection,
    LCourantStructure,
    courant,
    curvature,
    dorfman,
    gauge_auto,
    lcourant_axioms,
    pairing,
    random_section,
    script_D,
)
from omnilie.scalar import Scalar, random_polynomial


def test_pairing_examples():
    e = DSection(Derivation.partial(2, 1), AtiyahForm.basis(2, (1, 2)))
    f = DSection(Derivation.partial(2, 2), AtiyahForm.zero(2, 2))
    assert pairing(e, f) == AtiyahForm.basis(2, (2,))

    x = Scalar.variable(1, 1)
    a = DSection(Derivation.partial(1, 1), AtiyahForm.basis(1, (1,)))
    b = DSection(Derivation.unit(1), AtiyahForm.zero(1, 1))
    assert pairing(a, b).scalar() == Scalar.one(1)

    rng = random.Random(1)
    for _ in range(5):
        omega = random_form(2, 3, rng, 2, 2)
        d = random_derivation(2, rng, 2, 2)
        graph_section = DSection(d, contract(d, omega))
        assert pairing(graph_section, graph_section).is_zero()

    with pytest.raises(OrderMismatch):
        pairing(e, a)


def test_dorfman_examples():
    x = Scalar.variable(1, 1)
    lhs = dorfman(
        DSection(Derivation.partial(1, 1), AtiyahForm.zero(1, 1)),
        DSection(Derivation.zero(1), AtiyahForm(1, 1, {(1,): x})),
    )
    assert lhs.der.is_zero() and lhs.form == AtiyahForm.basis(1, (1,))

    omega = AtiyahForm.basis(2, (0, 1, 2))
    tw = dorfman(
        DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1)),
        DSection(Derivation.partial(2, 2), AtiyahForm.zero(2, 1)),
        omega,
    )
    assert tw.der.is_zero() and tw.form == -AtiyahForm.basis(2, (2,))

    rng = random.Random(2)
    a = DSection(Derivation.zero(2), random_form(2, 2, rng, 2, 2))
    b = DSection(Derivation.zero(2), random_form(2, 2, rng, 2, 2))
    assert dorfman(a, b).is_zero()

    with pytest.raises(TwistArityError):
        dorfman(a, b, random_form(2, 3, rng, 1, 1))  # twists only at order 1
    with pytest.raises(TwistArityError):
        e1 = random_section(2, 1, rng, 1, 1)
        dorfman(e1, e1, random_form(2, 2, rng, 1, 1))


def test_dorfman_leibniz_and_jacobi_identities():
    rng = random.Random(3)
    omega = differential(random_form(2, 2, rng, 1, 2))
    for twist in (None, omega):
        for _ in range(4):
            e1 = random_section(2, 1, rng, 1, 2)
            e2 = random_section(2, 1, rng, 1, 2)
            e3 = random_section(2, 1, rng, 1, 2)
            lhs = dorfman(e1, dorfman(e2, e3, twist), twist)
            rhs = dorfman(dorfman(e1, e2, twist), e3, twist) + dorfman(
                e2, dorfman(e1, e3, twist), twist
            )
            assert (lhs - rhs).is_zero()
            from omnilie.scalar import random_polynomial

            f = random_polynomial(2, rng, 1, 2)
            leib = (
                dorfman(e1, e2.scale(f), twist)
                - dorfman(e1, e2, twist).scale(f)
                - e2.scale(e1.der.symbol_apply(f))
            )
            assert leib.is_zero()


def test_higher_order_bracket_identities():
    # the non-skew bracket obeys its Leibniz-Jacobi laws at any order
    rng = random.Random(21)
    for p in (0, 2):
        for _ in range(3):
            e1 = random_section(2, p, rng, 1, 2)
            e2 = random_section(2, p, rng, 1, 2)
            e3 = random_section(2, p, rng, 1, 2)
            lhs = dorfman(e1, dorfman(e2, e3))
            rhs = dorfman(dorfman(e1, e2), e3) + dorfman(e2, dorfman(e1, e3))
            assert (lhs - rhs).is_zero()
            from omnilie.scalar import random_polynomial

            f = random_polynomial(2, rng, 1, 2)
            leib = (
                dorfman(e1, e2.scale(f))
                - dorfman(e1, e2).scale(f)
                - e2.scale(e1.der.symbol_apply(f))
            )
            assert leib.is_zero()
            assert (courant(e1, e2) + courant(e2, e1)).is_zero()


def test_courant_examples_and_skewness():
    x = Scalar.variable(1, 1)
    value = courant(
        DSection(Derivation.partial(1, 1), AtiyahForm.zero(1, 1)),
        DSection(Derivation.zero(1), AtiyahForm(1, 1, {(1,): x})),
    )
    assert value.form == AtiyahForm.basis(1, (1,))

    omega = AtiyahForm.basis(2, (0, 1, 2))
    tw = courant(
        DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1)),
        DSection(Derivation.partial(2, 2), AtiyahForm.zero(2, 1)),
        omega,
    )
    assert tw.form == -AtiyahForm.basis(2, (2,))

    rng = random.Random(4)
    for _ in range(6):
        a = random_section(2, 1, rng, 2, 2)
        b = random_section(2, 1, rng, 2, 2)
        assert courant(a, a).is_zero()
        assert (courant(a, b) + courant(b, a)).is_zero()


def test_courant_halves_coboundary_of_pairing():
    rng = random.Random(5)
    for _ in range(5):
        e = random_section(1, 1, rng, 2, 2)
        lhs = dorfman(e, e)
        rhs = script_D(pairing(e, e).scalar() * Fraction(1, 2))
        assert lhs == rhs  # the fourth axiom in bracket form


def test_script_D():
    x = Scalar.variable(1, 1)
    sd = script_D(x**2)
    assert sd.der.is_zero()
    assert sd.form == AtiyahForm(1, 1, {(0,): 2 * x, (1,): x**2})
    assert script_D(Scalar.one(1)).form == AtiyahForm.basis(1, (1,))
    # injectivity through the unit contraction
    rng = random.Random(6)
    from omnilie.scalar import random_polynomial

    for _ in range(5):
        s = random_polynomial(2, rng, 2, 2)
        if script_D(s).is_zero():
            assert s.is_zero()


def test_axiom_checker_passes_shipped_instances():
    omni = LCourantStructure.omni(2)
    entries = lcourant_axioms(omni, 6, seed=42)
    assert all(ok for _, ok, _ in entries)
    twisted = LCourantStructure.twisted(AtiyahForm.basis(2, (0, 1, 2)))
    entries = lcourant_axioms(twisted, 6, seed=43)
    assert all(ok for _, ok, _ in entries)


def test_axiom_checker_catches_nonclosed_twist():
    bad = AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)})
    assert not differential(bad).is_zero()
    entries = lcourant_axioms(LCourantStructure.twisted(bad), 6, seed=44)
    failed = [label for label, ok, _ in entries if not ok]
    assert any(label.startswith("LC1") for label in failed)
    witnesses = [w for label, ok, w in entries if not ok and w]
    assert witnesses and "residual" in witnesses[0]


def _cyclic_pairing(structure, e1, e2, e3):
    # the definition of the 3-bracket scalar, kept as the oracle of trilinear
    total = Scalar.zero(structure.n)
    for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        total = total + pairing(courant(a, b, structure.twist), c).scalar()
    return total * Fraction(1, 6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trilinear_closed_form_is_the_cyclic_pairing_of_skew_brackets(n):
    structures = [LCourantStructure.omni(n)]
    if n >= 2:
        structures.append(LCourantStructure.twisted(AtiyahForm.basis(n, (0, 1, n))))
    if n == 3:
        # not closed: the closed form does not rest on dH = 0
        structures.append(
            LCourantStructure.twisted(AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)}))
        )
    zero_form = AtiyahForm.zero(n, 1)
    for structure in structures:
        rng = random.Random(100 + n)
        for _ in range(4):
            e1, e2, e3 = (random_section(n, 1, rng, 2, 3) for _ in range(3))
            d1, d2 = (random_derivation(n, rng, 2, 3) for _ in range(2))
            alpha = random_form(n, 1, rng, 2, 3)
            triples = [
                (e1, e2, e3),
                # the shape of RepHomotopyData.nu: two bare derivations, one form
                (
                    DSection(d1, zero_form),
                    DSection(d2, zero_form),
                    DSection(Derivation.zero(n), alpha),
                ),
                (DSection(d1, zero_form), DSection(d2, zero_form), e3),
                (e1, DSection(Derivation.zero(n), alpha), e2),
            ]
            for triple in triples:
                assert structure.trilinear(*triple) == _cyclic_pairing(structure, *triple)


def test_a_derivation_contracted_with_a_differential_acts_on_the_scalar():
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(4):
            d = random_derivation(n, rng, 2, 3)
            s = random_polynomial(n, rng, 2, 3)
            assert contract(d, differential(s)).scalar() == d.apply(s)
            e = DSection(d, random_form(n, 1, rng, 2, 3))
            assert pairing(e, script_D(s)).scalar() == d.apply(s)


def test_gauge_auto():
    b_form = AtiyahForm.basis(2, (0, 2))
    e = DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1))
    assert gauge_auto(b_form, e).form == AtiyahForm.basis(2, (2,))
    rng = random.Random(7)
    zero = AtiyahForm.zero(2, 2)
    for _ in range(3):
        e = random_section(2, 1, rng, 2, 2)
        assert gauge_auto(zero, e) == e
    closed = differential(random_form(2, 1, rng, 2, 2))
    omni = LCourantStructure.omni(2)
    for _ in range(4):
        e1 = random_section(2, 1, rng, 1, 2)
        e2 = random_section(2, 1, rng, 1, 2)
        assert gauge_auto(closed, omni.bracket(e1, e2)) == omni.bracket(
            gauge_auto(closed, e1), gauge_auto(closed, e2)
        )


def test_curvature_sign_shift_and_closedness():
    omega = AtiyahForm.basis(2, (0, 1, 2))
    structure = LCourantStructure.twisted(omega)
    flat = curvature(Connection.zero(2), structure)
    assert flat == omega
    assert differential(flat).is_zero()
    rng = random.Random(8)
    for _ in range(4):
        theta = random_form(2, 2, rng, 2, 2)
        shifted = curvature(Connection.zero(2).shifted(theta), structure)
        assert shifted == flat + differential(theta)
        assert differential(shifted).is_zero()
        prim = primitive(shifted)
        assert differential(prim) == shifted


def test_connection_splitting_properties():
    rng = random.Random(9)
    beta = random_form(2, 2, rng, 2, 2)
    conn = Connection(beta)
    for _ in range(4):
        d = random_derivation(2, rng, 2, 2)
        e = conn.apply(d)
        assert e.der == d  # right splitting of the anchor
        d2 = random_derivation(2, rng, 2, 2)
        assert pairing(conn.apply(d), conn.apply(d2)).is_zero()


def test_curvature_is_tensorial():
    # values on random non-basis triples agree with the coefficient table
    omega = AtiyahForm.basis(2, (0, 1, 2))
    structure = LCourantStructure.twisted(omega)
    rng = random.Random(10)
    beta = random_form(2, 2, rng, 1, 2)
    conn = Connection(beta)
    table = curvature(conn, structure)
    for _ in range(4):
        ds = [random_derivation(2, rng, 1, 2) for _ in range(3)]
        lifted = [conn.apply(d) for d in ds]
        direct = -pairing(
            structure.skew_bracket(lifted[0], lifted[1]), lifted[2]
        ).scalar()
        assert evaluate(table, *ds) == direct


# The brackets gather their parts' products and sum each coefficient once.
# Their oracles are the definitions composed from the public operations.


def _pairing_by_parts(e1, e2):
    return contract(e1.der, e2.form) + contract(e2.der, e1.form)


def _dorfman_by_parts(e1, e2, twist):
    form = lie_derivative(e1.der, e2.form) - contract(e2.der, differential(e1.form))
    if twist is not None:
        form = form - contract(e2.der, contract(e1.der, twist))
    return DSection(commutator(e1.der, e2.der), form)


def _courant_by_parts(e1, e2, twist):
    rough = _dorfman_by_parts(e1, e2, twist)
    half_d = differential(_pairing_by_parts(e1, e2)).scale(Fraction(1, 2))
    return DSection(rough.der, rough.form - half_d)


def _trilinear_by_parts(e1, e2, e3, twist):
    total = Scalar.zero(e1.n)
    for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        total = total + _pairing_by_parts(_courant_by_parts(a, b, twist), c).scalar()
    return total * Fraction(1, 6)


def _twist(n, kind, rng):
    """No twist, a closed one (a differential) or, at n = 3, one that is not."""
    if kind == "closed" and n >= 2:
        return differential(random_form(n, 2, rng, 1, 2))
    if kind == "open" and n == 3:
        twist = random_form(n, 3, rng, 1, 2)
        assert not differential(twist).is_zero()
        return twist
    return None


def _quotient_section(e, den):
    return DSection(e.der.scale(1 / den), e.form.scale(1 / den))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["none", "closed", "open"]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_brackets_equal_their_definitions_by_parts(n, p, kind, quotients, seed):
    rng = random.Random(seed)
    twist = _twist(n, kind, rng) if p == 1 else None
    e1, e2, e3 = (random_section(n, p, rng, 2, 2) for _ in range(3))
    if quotients:
        # a true quotient takes the Scalar arithmetic, weights included
        e2 = _quotient_section(e2, Scalar.variable(n, 1) + 2)
    assert pairing(e1, e2) == _pairing_by_parts(e1, e2)
    assert dorfman(e1, e2, twist) == _dorfman_by_parts(e1, e2, twist)
    assert courant(e1, e2, twist) == _courant_by_parts(e1, e2, twist)
    if p == 1:
        structure = LCourantStructure("by-parts", n, twist)
        assert structure.trilinear(e1, e2, e3) == _trilinear_by_parts(e1, e2, e3, twist)


@pytest.mark.parametrize("n, p", [(2, 1), (3, 1), (3, 2)])
def test_a_bracket_sums_each_output_coefficient_once(n, p, monkeypatch):
    # dorfman's one summation is its output; courant's are the pairing and
    # its output.  Each sums one lane per key, and no form is added,
    # subtracted, negated or scaled on the way.
    from omnilie import atiyah, dcourant

    rng = random.Random(40 + n)
    twist = differential(random_form(n, 2, rng, 1, 2)) if p == 1 else None
    e1, e2 = (random_section(n, p, rng, 2, 2) for _ in range(2))
    lanes, sums = [], []
    lane, summed = atiyah.sum_of_products, dcourant._summed

    def counted_lane(n, terms):
        lanes.append(len(terms))
        return lane(n, terms)

    def counted_summed(n, degree, gathered):
        before = len(lanes)
        form = summed(n, degree, gathered)
        sums.append((degree, len(gathered), len(lanes) - before))
        return form

    def forbidden(*args):
        raise AssertionError("a form operation between the bracket's parts")

    monkeypatch.setattr(atiyah, "sum_of_products", counted_lane)
    monkeypatch.setattr(dcourant, "_summed", counted_summed)
    for name in ("__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(AtiyahForm, name, forbidden)
    keys = {q: len(index_subsets(n, q)) for q in (p - 1, p)}
    dorfman(e1, e2, twist)
    assert sums == [(p, keys[p], keys[p])]
    sums.clear()
    courant(e1, e2, twist)
    assert sums == [(p - 1, keys[p - 1], keys[p - 1]), (p, keys[p], keys[p])]


def test_derivations_keep_their_commutators_and_contractions():
    from omnilie import atiyah, gauge

    rng = random.Random(41)
    d1, d2 = (random_derivation(3, rng, 2, 2) for _ in range(2))
    twist = differential(random_form(3, 2, rng, 1, 2))
    kept = commutator(d1, d2)
    assert commutator(d1, d2) is kept and kept == gauge._commutator(d1, d2)
    assert contract(d1, twist) is contract(d1, twist)
    assert contract(d1, twist) == atiyah._contract(d1, twist)
    # an id taken over by an operand made of other objects misses, and by
    # one made of the same objects hits
    shifted = Derivation(d2.symbol_coeffs, d2.endo + Scalar.variable(3, 1))
    same = Derivation(d2.symbol_coeffs, d2.endo)
    for operand in (shifted, same):
        d1._memo[id(operand)] = d1._memo[id(d2)]
    assert commutator(d1, shifted) == gauge._commutator(d1, shifted) != kept
    assert commutator(d1, same) is kept
    # the entries hold a derivation's parts, never the derivation
    assert not [p for parts, _ in d1._memo.values() for p in parts if isinstance(p, Derivation)]
    # forms carry no cache
    assert not hasattr(twist, "_memo") and not hasattr(twist, "__dict__")


def test_kept_results_do_not_keep_a_case_alive():
    # The 3-bracket takes [D1, D2], [D2, D3] and [D3, D1]: entries holding
    # their operands would make a cycle that only the cyclic collector
    # frees.  With it off, the case's objects die with their last name.
    rng = random.Random(42)
    twist = differential(random_form(3, 2, rng, 1, 2))
    structure = LCourantStructure.twisted(twist)
    gc.disable()
    try:
        e1, e2, e3 = (random_section(3, 1, rng, 1, 2) for _ in range(3))
        structure.trilinear(e1, e2, e3)
        courant(e2, e1, twist)
        ids = {id(x) for e in (e1, e2, e3) for x in (e.der, e.form)}
        assert all(e.der._memo for e in (e1, e2, e3))
        del e1, e2, e3
        kinds = (Derivation, AtiyahForm)
        assert not [x for x in gc.get_objects() if id(x) in ids and isinstance(x, kinds)]
    finally:
        gc.enable()


def test_suite_level_objects_keep_nothing_of_a_case():
    # The graph's generators and the twist outlive every case of a suite;
    # after the cases ran, the generators' entries hold only the twist and
    # one another.
    from omnilie.observables import graph_of_form, induced_algebroid_residuals, is_involutive

    omega = AtiyahForm.basis(3, (0, 1, 3))
    xi = graph_of_form(omega)
    structure = LCourantStructure.twisted(omega)
    assert is_involutive(xi).ok
    rows = []
    for family in (induced_algebroid_residuals(xi, 3, seed=2), lcourant_axioms(structure, 3, seed=3)):
        rows += family.rows(0, family.count)
    assert rows and all(ok for _, ok, _ in rows)
    suite_level = [(omega,)]
    suite_level += [(g.der.symbol_coeffs, g.der.endo) for g in xi.generators]
    assert all(g.der._memo for g in xi.generators)
    for g in xi.generators:
        for parts, _ in g.der._memo.values():
            assert any(all(a is b for a, b in zip(parts, ok)) for ok in suite_level)
