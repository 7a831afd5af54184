"""Derivations of the trivialized line bundle.

A derivation pairs a vector field (its symbol) with a multiplication
part, acting on sections by ``delta(s) = sum a_i d_i s + a_unit * s``.
With the bundle trivialized, the space of derivations is the free
module of rank n+1 on the frame d_1..d_n, unit: the coordinate
derivations and the unit derivation, which acts as the identity on
sections and is central for the commutator.  A derivation is stored as
its n + 1 coordinates on that frame, the unit's last, the order in
which forms and sections index it too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, is_, neg, sub

from .scalar import Scalar, random_polynomial, sum_of_products


class Derivation:
    """A first-order differential operator on sections, as its coordinates.

    ``coeffs`` holds the n + 1 coordinates on the frame d_1..d_n, unit:
    at i < n the coefficient of d_(i+1) (the symbol), at n the
    multiplication part.  Forms and sections index the same frame, with
    the unit at n.

    ``_memo`` is None or a dict of the results of the :func:`commutator`
    with a derivation, the :func:`~omnilie.atiyah.contract` into a form
    and the brackets with the basis that a Lie derivative reads (see
    :func:`remembered`).  Instances are immutable.
    """

    __slots__ = ("n", "coeffs", "_memo")

    def __init__(self, coeffs):
        self.coeffs = coeffs = tuple(coeffs)
        if not coeffs or len(coeffs) != coeffs[-1].nvars + 1:
            raise ValueError("a derivation has one coordinate per variable, then the unit's")
        self.n = len(coeffs) - 1
        self._memo = None

    @classmethod
    def basis(cls, n, t):
        """Basis element by flat index: t in 0..n-1 gives d_(t+1), t == n the unit."""
        zero, one = Scalar.zero(n), Scalar.one(n)
        return cls(one if u == t else zero for u in range(n + 1))

    @classmethod
    def zero(cls, n):
        return cls((Scalar.zero(n),) * (n + 1))

    @classmethod
    def unit(cls, n):
        """The unit derivation: zero symbol, identity action on sections."""
        return cls.basis(n, n)

    @classmethod
    def partial(cls, n, index):
        """The coordinate derivation d/dx_index (1-based)."""
        return cls.basis(n, index - 1)

    def apply(self, s):
        """Act on a section: symbol part differentiates, unit part multiplies."""
        return sum_of_products(self.n, self.apply_terms(s))

    __call__ = apply

    def apply_terms(self, s, weight=1):
        """The products whose sum is ``weight * apply(s)``, as ``(weight,
        a, b)`` triples for :func:`sum_of_products`."""
        return [(weight, self.coeffs[-1], s), *self.symbol_terms(s, weight)]

    def symbol_apply(self, f):
        """Act on a function by the symbol alone (no multiplication part)."""
        return sum_of_products(self.n, self.symbol_terms(f))

    def symbol_terms(self, f, weight=1):
        """The products whose sum is ``weight * symbol_apply(f)``."""
        return [
            (weight, a, f.derive(i + 1))
            for i, a in enumerate(self.coeffs[:-1])
            if not a.is_zero()
        ]

    def is_zero(self):
        return all(a.is_zero() for a in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return Derivation(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return Derivation(map(sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return Derivation(map(neg, self.coeffs))

    def scale(self, f):
        """Multiply by a scalar or rational: module structure over sections."""
        if isinstance(f, (int, Fraction)):
            f = Scalar.from_fraction(self.n, f)
        return Derivation(f * a for a in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        names = [f"d{i + 1}" for i in range(self.n)] + ["unit"]
        parts = [f"({a})*{name}" for a, name in zip(self.coeffs, names) if not a.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Derivation({self})"


def symbol(delta):
    """The vector-field part of a derivation."""
    return delta.coeffs[:-1]


def remembered(delta, other, parts, compute):
    """``compute(delta, other)``, kept in ``delta._memo`` under ``id(other)``.

    ``parts`` is a tuple of the immutable objects of ``other`` that the
    result depends on, none of them a derivation.  The entry holds them
    and is used only while ``other`` is made of the very same objects, so
    an id reused after ``other`` died misses unless its new owner is made
    of them too.  An entry holds no derivation: one derivation held by
    another's entry would tie a case's derivations into cycles (the
    3-bracket keeps [D1, D2] on D1, [D2, D3] on D2 and [D3, D1] on D3)
    that outlive the case until the cyclic collector runs.  The entries
    die with ``delta``.
    """
    memo = delta._memo
    if memo is None:
        memo = delta._memo = {}
    else:
        entry = memo.get(id(other))
        if entry is not None and all(map(is_, entry[0], parts)):
            return entry[1]
    result = compute(delta, other)
    memo[id(other)] = (parts, result)
    return result


def commutator(d1, d2):
    """Commutator of derivations: ([X, Y], X(g) - Y(f)) for (X, f), (Y, g).

    The result is kept on ``d1`` (see :class:`Derivation`)."""
    return remembered(d1, d2, (d2.coeffs,), _commutator)


def _commutator(d1, d2):
    n = d1.n

    def component(g, f):
        # X(g) - Y(f), one sum of products
        return sum_of_products(n, d1.symbol_terms(g) + d2.symbol_terms(f, -1))

    return Derivation(map(component, d2.coeffs, d1.coeffs))


def random_derivation(n, rng, max_degree, coeff_bound):
    return Derivation(
        random_polynomial(n, rng, max_degree, coeff_bound) for _ in range(n + 1)
    )
