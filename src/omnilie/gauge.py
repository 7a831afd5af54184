"""Derivations of the trivialized line bundle.

A derivation pairs a vector field (its symbol) with a multiplication
part, acting on sections by ``delta(s) = sum a_i d_i s + endo * s``.
With the bundle trivialized, the space of derivations is the free
module of rank n+1 spanned by the coordinate derivations d_1..d_n and
the unit derivation, which acts as the identity on sections and is
central for the commutator.
"""

from __future__ import annotations

from fractions import Fraction
from operator import is_

from .scalar import Scalar, random_polynomial, sum_of_products


class Derivation:
    """A first-order differential operator on sections: (symbol, endo).

    ``_memo`` is None or a dict of the results of the :func:`commutator`
    with a derivation, the :func:`~omnilie.atiyah.contract` into a form
    and the brackets with the basis that a Lie derivative reads (see
    :func:`remembered`).  Instances are immutable.
    """

    __slots__ = ("n", "symbol_coeffs", "endo", "_memo")

    def __init__(self, symbol_coeffs, endo):
        self.symbol_coeffs = tuple(symbol_coeffs)
        self.endo = endo
        self.n = endo.nvars
        self._memo = None
        if len(self.symbol_coeffs) != self.n:
            raise ValueError("symbol coefficient count must equal the variable count")

    @classmethod
    def zero(cls, n):
        z = Scalar.zero(n)
        return cls((z,) * n, z)

    @classmethod
    def unit(cls, n):
        """The unit derivation: zero symbol, identity action on sections."""
        return cls((Scalar.zero(n),) * n, Scalar.one(n))

    @classmethod
    def partial(cls, n, index):
        """The coordinate derivation d/dx_index (1-based)."""
        coeffs = [Scalar.zero(n)] * n
        coeffs[index - 1] = Scalar.one(n)
        return cls(tuple(coeffs), Scalar.zero(n))

    @classmethod
    def basis(cls, n, t):
        """Basis element by flat index: t in 0..n-1 gives d_(t+1), t == n the unit."""
        if t == n:
            return cls.unit(n)
        return cls.partial(n, t + 1)

    def coefficient(self, t):
        """The coefficient along basis direction t (t == n is the unit slot)."""
        if t == self.n:
            return self.endo
        return self.symbol_coeffs[t]

    def apply(self, s):
        """Act on a section: symbol part differentiates, endo part multiplies."""
        return sum_of_products(self.n, self.apply_terms(s))

    __call__ = apply

    def apply_terms(self, s, weight=1):
        """The products whose sum is ``weight * apply(s)``, as ``(weight,
        a, b)`` triples for :func:`sum_of_products`."""
        return [(weight, self.endo, s), *self.symbol_terms(s, weight)]

    def symbol_apply(self, f):
        """Act on a function by the symbol alone (no multiplication part)."""
        return sum_of_products(self.n, self.symbol_terms(f))

    def symbol_terms(self, f, weight=1):
        """The products whose sum is ``weight * symbol_apply(f)``."""
        return [
            (weight, a, f.derive(i + 1))
            for i, a in enumerate(self.symbol_coeffs)
            if not a.is_zero()
        ]

    def is_zero(self):
        return self.endo.is_zero() and all(a.is_zero() for a in self.symbol_coeffs)

    def __add__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return Derivation(
            tuple(a + b for a, b in zip(self.symbol_coeffs, other.symbol_coeffs)),
            self.endo + other.endo,
        )

    def __sub__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return Derivation(
            tuple(a - b for a, b in zip(self.symbol_coeffs, other.symbol_coeffs)),
            self.endo - other.endo,
        )

    def __neg__(self):
        return Derivation(
            tuple(-a for a in self.symbol_coeffs), -self.endo
        )

    def scale(self, f):
        """Multiply by a scalar or rational: module structure over sections."""
        if isinstance(f, (int, Fraction)):
            f = Scalar.from_fraction(self.n, f)
        return Derivation(
            tuple(f * a for a in self.symbol_coeffs), f * self.endo
        )

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return (
            self.symbol_coeffs == other.symbol_coeffs and self.endo == other.endo
        )

    def __hash__(self):
        return hash((self.symbol_coeffs, self.endo))

    def __str__(self):
        parts = []
        for i, a in enumerate(self.symbol_coeffs):
            if not a.is_zero():
                parts.append(f"({a})*d{i + 1}")
        if not self.endo.is_zero():
            parts.append(f"({self.endo})*unit")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Derivation({self})"


def symbol(delta):
    """The vector-field part of a derivation."""
    return delta.symbol_coeffs


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
    return remembered(d1, d2, (d2.symbol_coeffs, d2.endo), _commutator)


def _commutator(d1, d2):
    n = d1.n

    def component(g, f):
        # X(g) - Y(f), one sum of products
        return sum_of_products(n, d1.symbol_terms(g) + d2.symbol_terms(f, -1))

    sym = tuple(map(component, d2.symbol_coeffs, d1.symbol_coeffs))
    return Derivation(sym, component(d2.endo, d1.endo))


def random_derivation(n, rng, max_degree, coeff_bound):
    coeffs = tuple(
        random_polynomial(n, rng, max_degree, coeff_bound) for _ in range(n)
    )
    return Derivation(coeffs, random_polynomial(n, rng, max_degree, coeff_bound))
