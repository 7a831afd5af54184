"""Sections of derivations paired with forms, and their bracket calculus.

Order-p sections combine a derivation with a degree-p form.  They carry
a symmetric form-valued pairing, the (non-skew) Dorfman-Jacobi bracket,
its skew-symmetrization, an optional closed 3-form twist at order 1,
gauge transformations by 2-forms, and the connection/curvature calculus
of the exact structures.  An ``LCourantStructure`` is the order-1
structure of one twist: its bracket, skew bracket and trilinear T read
the twist, while the pairing, the anchor ``e.der`` and the coboundary
``script_D`` are the module functions.  The axiom checker certifies the
five bracket axioms on seeded random sections and reports witnesses on
failure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import OrderMismatch, TwistArityError
from .gauge import Derivation, commutator, random_derivation
from .atiyah import (
    AtiyahForm,
    _gather_contract,
    _gather_differential,
    _gather_lie_derivative,
    _summed,
    as_form,
    contract,
    differential,
    index_subsets,
    random_form,
)
from .sampling import Family
from .scalar import random_polynomial, sum_of_products

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


class DSection:
    """A derivation together with a degree-p form."""

    __slots__ = ("n", "der", "form")

    def __init__(self, der, form):
        if der.n != form.n:
            raise ValueError("derivation and form over different variable counts")
        self.n = der.n
        self.der = der
        self.form = form

    @property
    def p(self):
        return self.form.degree

    @classmethod
    def zero(cls, n, p):
        return cls(Derivation.zero(n), AtiyahForm.zero(n, p))

    def is_zero(self):
        return self.der.is_zero() and self.form.is_zero()

    def __add__(self, other):
        if not isinstance(other, DSection):
            return NotImplemented
        return DSection(self.der + other.der, self.form + other.form)

    def __sub__(self, other):
        if not isinstance(other, DSection):
            return NotImplemented
        return DSection(self.der - other.der, self.form - other.form)

    def __neg__(self):
        return DSection(-self.der, -self.form)

    def scale(self, f):
        return DSection(self.der.scale(f), self.form.scale(f))

    def __eq__(self, other):
        if not isinstance(other, DSection):
            return NotImplemented
        return self.der == other.der and self.form == other.form

    def __hash__(self):
        return hash((self.der, self.form))

    def __str__(self):
        return f"({self.der} ; {self.form})"

    def __repr__(self):
        return f"DSection({self})"


def _check_orders(e1, e2):
    if e1.p != e2.p or e1.n != e2.n:
        raise OrderMismatch(
            f"sections of order {e1.p} and {e2.p} cannot be combined"
        )


def _check_twist(twist, p, n):
    if twist is None:
        return
    if p != 1:
        raise TwistArityError("twists are only defined at order 1")
    if twist.degree != 3 or twist.n != n:
        raise TwistArityError("a twist must be a degree-3 form over the same model")


def pairing(e1, e2):
    """Symmetric pairing: contract each derivation into the other form."""
    _check_orders(e1, e2)
    if e1.p == 0:
        return AtiyahForm.zero(e1.n, 0)
    gathered = {}
    _gather_contract(gathered, e1.der, e2.form)
    _gather_contract(gathered, e2.der, e1.form)
    return _summed(e1.n, e1.p - 1, gathered)


def _dorfman_terms(e1, e2, twist):
    """The products of the bracket's form, L_D1 a2 - i_D2 d a1 - i_D2 i_D1 H,
    gathered under their keys."""
    _check_orders(e1, e2)
    _check_twist(twist, e1.p, e1.n)
    gathered = {}
    _gather_lie_derivative(gathered, e1.der, e2.form)
    _gather_contract(gathered, e2.der, differential(e1.form), -1)
    if twist is not None:
        _gather_contract(gathered, e2.der, contract(e1.der, twist), -1)
    return gathered


def dorfman(e1, e2, twist=None):
    """The (non-skew) bracket; optionally twisted by a degree-3 form at order 1."""
    form = _summed(e1.n, e1.p, _dorfman_terms(e1, e2, twist))
    return DSection(commutator(e1.der, e2.der), form)


def courant(e1, e2, twist=None):
    """Skew-symmetrization: the bracket minus half the differential of the pairing."""
    gathered = _dorfman_terms(e1, e2, twist)
    _gather_differential(gathered, pairing(e1, e2), -HALF)
    return DSection(commutator(e1.der, e2.der), _summed(e1.n, e1.p, gathered))


def script_D(s):
    """The degree map at order 1: a scalar goes to (0, its differential)."""
    return DSection(Derivation.zero(s.nvars), differential(s))


def gauge_auto(b_form, e):
    """Gauge transformation by a 2-form at order 1: shift the form by contraction."""
    if e.p != 1:
        raise OrderMismatch("gauge transformations act on order-1 sections")
    return DSection(e.der, e.form + contract(e.der, b_form))


def random_section(n, p, rng, max_degree, coeff_bound):
    return DSection(
        random_derivation(n, rng, max_degree, coeff_bound),
        random_form(n, p, rng, max_degree, coeff_bound),
    )


class LCourantStructure:
    """The L-Courant structure on order-1 sections, held as its twist.

    Its pairing, anchor (``e.der``) and coboundary (``script_D``) are the
    module's own; the bracket, the skew bracket and the trilinear T are
    the parts that read the twist, which is None for the untwisted
    (omni) structure.
    """

    __slots__ = ("n", "twist")

    def __init__(self, n, twist=None):
        _check_twist(twist, 1, n)
        self.n = n
        self.twist = twist

    @classmethod
    def omni(cls, n):
        return cls(n)

    @classmethod
    def twisted(cls, twist):
        return cls(twist.n, twist)

    @property
    def name(self):
        return "omni" if self.twist is None else "twisted"

    def bracket(self, e1, e2):
        return dorfman(e1, e2, self.twist)

    def skew_bracket(self, e1, e2):
        return courant(e1, e2, self.twist)

    def trilinear(self, e1, e2, e3):
        """The scalar T = 1/6 sum_cyc <[e1, e2]_C, e3>, in closed form.

        With Di the anchors, ai the forms and fij = ai(Dj), expanding the
        skew bracket by (L_X a)(Y) = X a(Y) - a([X, Y]) and
        da(X, Y) = X a(Y) - Y a(X) - a([X, Y]) gives

            T = 1/4 sum_cyc D1(f23 - f32) + 1/2 sum_cyc a1([D2, D3])
                - 1/2 H(D1, D2, D3)

        for any twist H, closed or not, so no bracket, Lie derivative or
        differential is built: T is one sum of products, after one sum for
        each f23 - f32.
        """
        n = self.n
        gathered = {(): []}
        for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
            flow = {}
            _gather_contract(flow, c.der, b.form)
            _gather_contract(flow, b.der, c.form, -1)
            f = sum_of_products(n, flow.get((), []))
            if not f.is_zero():
                gathered[()] += a.der.apply_terms(f, QUARTER)
            if not a.form.is_zero():
                _gather_contract(gathered, commutator(b.der, c.der), a.form, HALF)
        if self.twist is not None:
            inner = contract(e2.der, contract(e1.der, self.twist))
            _gather_contract(gathered, e3.der, inner, -HALF)
        return sum_of_products(n, gathered[()])

    def __repr__(self):
        return f"LCourantStructure({self.name}, n={self.n})"


def _axiom_residuals(structure, e1, e2, e3, f):
    """The five bracket-axiom residuals on a fixed input tuple, with the
    anchor ``e.der`` and the coboundary ``script_D``."""
    br = structure.bracket
    b12, b13 = br(e1, e2), br(e1, e3)
    res = {}
    res["LC1"] = br(e1, br(e2, e3)) - br(b12, e3) - br(e2, b13)
    sym = e1.der.symbol_apply(f)
    res["LC2"] = br(e1, e2.scale(f)) - b12.scale(f) - e2.scale(sym)
    res["LC3"] = commutator(e1.der, e2.der) - b12.der
    res["LC4"] = br(e1, e1) - script_D(pairing(e1, e1).scalar() * HALF)
    res["LC5"] = (
        as_form(e1.der.apply(pairing(e2, e3).scalar()))
        - pairing(b12, e3)
        - pairing(e2, b13)
    )
    return res


def lcourant_axioms(
    structure, samples, seed, max_degree=2, coeff_bound=3, tag="lcourant-axioms", prefix=""
):
    """Check the five axioms on seeded random triples, as the
    ``sampling.Family`` of seed tag ``tag`` whose labels start with ``prefix``.

    A failing row's witness carries the printed inputs and the residual.
    """

    def draw(rng, case):
        n = structure.n
        e1, e2, e3 = (random_section(n, 1, rng, max_degree, coeff_bound) for _ in range(3))
        return e1, e2, e3, random_polynomial(n, rng, max_degree, coeff_bound)

    def context(*inputs):
        return {"inputs": [str(x) for x in inputs]}

    checks = partial(_axiom_residuals, structure)
    return Family(tag, samples, draw, checks, context, prefix + "{name}[{case}]", seed)


class Connection:
    """An isotropic right splitting of an exact structure, encoded by a 2-form."""

    __slots__ = ("beta",)

    def __init__(self, beta):
        if beta.degree != 2:
            raise ValueError("a connection is encoded by a degree-2 form")
        self.beta = beta

    @classmethod
    def zero(cls, n):
        return cls(AtiyahForm.zero(n, 2))

    def apply(self, delta):
        return DSection(delta, contract(delta, self.beta))

    __call__ = apply

    def shifted(self, theta):
        # direction chosen so the curvature moves by +d(theta)
        return Connection(self.beta - theta)


def curvature(connection, structure):
    """The closed 3-form measuring the failure of the splitting to be flat.

    Values on basis triples assemble the coefficient table; the sign is
    normalized so the zero splitting of a twisted structure returns the
    twist itself.
    """
    n = structure.n
    basis = [Derivation.basis(n, t) for t in range(n + 1)]
    lifted = [connection.apply(d) for d in basis]
    coeffs = {}
    for key in index_subsets(n, 3):
        i, j, k = key
        value = -pairing(
            structure.skew_bracket(lifted[i], lifted[j]), lifted[k]
        ).scalar()
        if not value.is_zero():
            coeffs[key] = value
    return AtiyahForm(n, 3, coeffs)
