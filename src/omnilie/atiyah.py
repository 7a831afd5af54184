"""Alternating section-valued forms on the derivation module and their calculus.

A degree-k form stores one scalar per strictly increasing k-subset of
the basis directions {d_1..d_n, unit}; index ``n`` (printed "inf")
denotes the unit direction.  Degree-0 forms are plain scalars.  The
module supplies evaluation, the cochain differential, contraction, the
Lie derivative and a constructive primitive: contraction with the unit
derivation is a contracting homotopy, because the unit acts as the
identity in every degree, so every closed form of positive degree is
exhibited as exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import ArityMismatch, NotClosed
from .gauge import Derivation, remembered
from .scalar import Scalar, random_polynomial, sum_of_products

INF = "inf"  # serialization marker for the unit direction


def index_subsets(n, k):
    """Strictly increasing k-subsets of {0..n}, ascending lexicographically."""
    return list(itertools.combinations(range(n + 1), k))


class AtiyahForm:
    """Alternating k-linear map on derivations with section values."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n, degree, coeffs=None):
        if degree < 0:
            raise ValueError("form degree must be nonnegative")
        self.n = n
        self.degree = degree
        clean = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree or any(not 0 <= t <= n for t in key):
                raise ValueError(f"bad index set {key} for degree {degree}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"index set {key} must be strictly increasing")
            if not value.is_zero():
                clean[key] = value
        self.coeffs = clean

    @classmethod
    def _raw(cls, n, degree, coeffs):
        form = object.__new__(cls)
        form.n = n
        form.degree = degree
        form.coeffs = coeffs
        return form

    @classmethod
    def zero(cls, n, degree):
        return cls._raw(n, degree, {})

    @classmethod
    def basis(cls, n, indices):
        """The dual exterior monomial on the given index set (n marks the unit)."""
        key = tuple(indices)
        return cls(n, len(key), {key: Scalar.one(n)})

    @classmethod
    def from_scalar(cls, s):
        if s.is_zero():
            return cls.zero(s.nvars, 0)
        return cls._raw(s.nvars, 0, {(): s})

    def scalar(self):
        if self.degree != 0:
            raise ValueError("only degree-0 forms are scalars")
        return self.coeffs.get((), Scalar.zero(self.n))

    def coefficient(self, key):
        return self.coeffs.get(tuple(key), Scalar.zero(self.n))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, subtract):
        # self + other, or self - other through Scalar.__sub__
        if not isinstance(other, AtiyahForm):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("forms over different variable counts")
        if other.degree != self.degree:
            # the zero form is degree-agnostic
            if self.is_zero():
                return -other if subtract else other
            if other.is_zero():
                return self
            raise ValueError("can only add forms of matching degree")
        coeffs = dict(self.coeffs)
        for key, value in other.coeffs.items():
            s = coeffs.get(key)
            if s is None:
                s = -value if subtract else value
            else:
                s = s - value if subtract else s + value
            if s.is_zero():
                coeffs.pop(key, None)
            else:
                coeffs[key] = s
        return AtiyahForm._raw(self.n, self.degree, coeffs)

    def __neg__(self):
        return AtiyahForm._raw(
            self.n, self.degree, {k: -v for k, v in self.coeffs.items()}
        )

    def scale(self, f):
        if isinstance(f, (int, Fraction)):
            f = Scalar.from_fraction(self.n, f)
        if f.is_zero():
            return AtiyahForm.zero(self.n, self.degree)
        return AtiyahForm._raw(
            self.n, self.degree, {k: f * v for k, v in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, AtiyahForm):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.degree, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            label = ",".join(INF if t == self.n else str(t + 1) for t in key)
            if self.degree == 0:
                parts.append(f"{self.coeffs[key]}")
            else:
                parts.append(f"({self.coeffs[key]})*e({label})")
        return " + ".join(parts)

    def __repr__(self):
        return f"AtiyahForm({self})"


def as_form(x):
    """Coerce a scalar to a degree-0 form; forms pass through."""
    if isinstance(x, Scalar):
        return AtiyahForm.from_scalar(x)
    return x


def _merge_index(key, t):
    """Insert t into the sorted tuple key; (sign, merged) or None on collision.

    The sign is (-1)**position, the cost of moving e_t from the front
    past the earlier entries.
    """
    if t in key:
        return None
    pos = 0
    while pos < len(key) and key[pos] < t:
        pos += 1
    merged = key[:pos] + (t,) + key[pos:]
    return (-1) ** pos, merged


def _basis_action(n, t, s):
    """Action of basis direction t on a section: derivative, or identity at t == n."""
    if t == n:
        return s
    return s.derive(t + 1)


# Each operation below is the sum of the products its gatherer puts under
# each output key of a shared dict, as (weight, a, b) triples for
# sum_of_products, so a bracket gathers all its parts and calls _summed
# once.  A gatherer's weight scales its whole operation.


def _summed(n, degree, gathered):
    """The form whose coefficient on each key is the sum of the products
    gathered under it (see :func:`sum_of_products`)."""
    out = {}
    for key, terms in gathered.items():
        s = sum_of_products(n, terms)
        if not s.is_zero():
            out[key] = s
    return AtiyahForm._raw(n, degree, out)


def _gather_contract(gathered, delta, omega, weight=1):
    """Gather ``weight * contract(delta, omega)``."""
    coeffs = delta.coeffs
    for key, value in omega.coeffs.items():
        for pos, t in enumerate(key):
            c = coeffs[t]
            if not c.is_zero():
                gathered.setdefault(key[:pos] + key[pos + 1 :], []).append(
                    (-weight if pos & 1 else weight, c, value)
                )


def contract(delta, omega):
    """Interior product: feed the derivation into the first slot.

    The result is kept on ``delta`` (see :class:`~omnilie.gauge.Derivation`)."""
    omega = as_form(omega)
    if omega.degree == 0:
        return AtiyahForm.zero(omega.n, 0)
    return remembered(delta, omega, (omega,), _contract)


def _contract(delta, omega):
    gathered = {}
    _gather_contract(gathered, delta, omega)
    return _summed(omega.n, omega.degree - 1, gathered)


def evaluate(omega, *derivations):
    """Multilinear alternating evaluation on derivations."""
    omega = as_form(omega)
    if len(derivations) != omega.degree:
        raise ArityMismatch(
            f"degree-{omega.degree} form evaluated on {len(derivations)} derivations"
        )
    for delta in derivations:
        omega = contract(delta, omega)
    return omega.scalar()


def _gather_differential(gathered, omega, weight=1):
    """Gather ``weight * differential(omega)``: no products, one lone term
    per basis action on a coefficient."""
    n = omega.n
    for key, value in omega.coeffs.items():
        for t in range(n + 1):
            merged = _merge_index(key, t)
            if merged is None:
                continue
            sign, full = merged
            acted = _basis_action(n, t, value)
            if not acted.is_zero():
                gathered.setdefault(full, []).append((sign * weight, acted, None))


def differential(omega):
    """Cochain differential with respect to the tautological action.

    On basis tuples the commutator terms vanish, so the coefficient on
    an index set T is the alternating sum of basis actions on the
    coefficients of the facets of T.
    """
    omega = as_form(omega)
    gathered = {}
    _gather_differential(gathered, omega)
    return _summed(omega.n, omega.degree + 1, gathered)


def _gather_lie_derivative(gathered, delta, omega):
    """Gather ``lie_derivative(delta, omega)``."""
    n = omega.n
    brackets = remembered(delta, None, (), _basis_brackets) if omega.degree else ()
    for key in index_subsets(n, omega.degree):
        value = omega.coeffs.get(key)
        terms = None
        if value is not None:
            terms = gathered.setdefault(key, [])
            terms.extend(delta.apply_terms(value))
        for pos, t in enumerate(key):
            repl = brackets[t]
            if repl is None:
                continue
            rest = key[:pos] + key[pos + 1 :]
            for u in range(n + 1):
                cu = repl.coeffs[u]
                if cu.is_zero():
                    continue
                merged = _merge_index(rest, u)
                if merged is None:
                    continue
                sign, source = merged
                value = omega.coeffs.get(source)
                if value is None:
                    continue
                if terms is None:
                    terms = gathered.setdefault(key, [])
                # e_u sits in slot pos; sorting it home costs sign * (-1)**pos,
                # and the bracket term is subtracted
                terms.append((-sign * (-1) ** pos, cu, value))


def lie_derivative(delta, omega):
    """Lie derivative along a derivation, by its defining formula.

    Acts on the coefficient and subtracts the terms where a basis slot
    is replaced by its bracket with delta.  The Cartan identity against
    contraction and the differential is asserted by the property suite,
    not used here.
    """
    omega = as_form(omega)
    gathered = {}
    _gather_lie_derivative(gathered, delta, omega)
    return _summed(omega.n, omega.degree, gathered)


def _basis_brackets(delta, _):
    """[delta, e_t] for each basis direction; None for the unit (central).

    Depends on ``delta`` alone, so it is kept on ``delta`` under None."""
    brackets = (Derivation(-a.derive(t + 1) for a in delta.coeffs) for t in range(delta.n))
    return [None if d.is_zero() else d for d in brackets] + [None]


def primitive(omega):
    """A form whose differential is the given closed form.

    Contraction with the unit derivation realizes the contracting
    homotopy, so it lands on a primitive whenever the input is closed.
    """
    omega = as_form(omega)
    if omega.degree < 1:
        raise ValueError("primitives are defined for degree >= 1")
    if not differential(omega).is_zero():
        raise NotClosed("the form is not closed")
    return contract(Derivation.unit(omega.n), omega)


def random_form(n, degree, rng, max_degree, coeff_bound):
    coeffs = {}
    for key in index_subsets(n, degree):
        coeffs[key] = random_polynomial(n, rng, max_degree, coeff_bound)
    return AtiyahForm(n, degree, coeffs)
