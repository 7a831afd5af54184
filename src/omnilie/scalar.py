"""Exact coefficient arithmetic: multivariate rational functions over Q.

A :class:`Scalar` is a quotient of two multivariate polynomials with
rational coefficients in variables ``x1..xn``.  It stands in for both
smooth functions and line-bundle sections of the trivialized model, so
every other module builds on it.  Scalars are kept canonical (numerator
and denominator coprime, denominator monic under graded lexicographic
order), which makes structural equality coincide with mathematical
equality and lets identity checks certify literal zero.

A :class:`Polynomial` stores integer numerators over one common
denominator, keyed by packed monomials: one int per monomial holding
the total degree in its top field and the exponents of x1..xn below it,
``_BITS`` bits per field with x1 highest.  Integer order on these keys
is graded lexicographic order, a monomial product is one integer
addition, and the top bit of every field is a guard bit, so monomial
divisibility is one subtraction and one mask: the packed monomials of
Monagan and Pearce (ISSAC 2009, JSC 2011), as in FLINT's fmpz_mpoly.
A total degree above ``MAX_DEGREE`` raises :class:`DegreeOverflow`
rather than carrying into the next field.

Only field arithmetic, partial differentiation and gcd-based
normalization are provided: no factorization, no floating point, no
transcendental functions.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import gcd, lcm
from operator import itemgetter

from .errors import DegreeOverflow, DivisionByZero, IndexOutOfRange

_BITS = 10  # bits per packed exponent field, guard bit included
_FIELD = (1 << _BITS) - 1
MAX_DEGREE = (1 << (_BITS - 1)) - 1  # largest total degree a monomial may have


def _pack(nvars, mono):
    """Packed key of an exponent sequence; validates it first."""
    if len(mono) != nvars:
        raise ValueError(f"monomial {tuple(mono)} has {len(mono)} exponents, not {nvars}")
    key = degree = 0
    for e in mono:
        if e < 0:
            raise ValueError(f"negative exponent in monomial {tuple(mono)}")
        degree += e
        key = (key << _BITS) | (e & _FIELD)
    if degree > MAX_DEGREE:
        raise DegreeOverflow(
            f"monomial {tuple(mono)} has total degree {degree}, above the limit {MAX_DEGREE}"
        )
    return (degree << (nvars * _BITS)) | key


def _unpack(nvars, key):
    return tuple(
        (key >> ((nvars - 1 - i) * _BITS)) & _FIELD for i in range(nvars)
    )


@cache
def _guards(nvars):
    """Mask of the guard bits of the nvars + 1 fields of a key."""
    return sum(1 << (_BITS * j + _BITS - 1) for j in range(nvars + 1))


def _monomials_of_degree(n, degree):
    # exponent tuples of exactly this total degree, in ascending lex order
    if n == 0:
        if degree == 0:
            yield ()
        return
    for first in range(degree + 1):
        for rest in _monomials_of_degree(n - 1, degree - first):
            yield (first,) + rest


@cache
def _monomial_table(n, max_degree):
    return tuple(
        mono
        for degree in range(max_degree + 1)
        for mono in _monomials_of_degree(n, degree)
    )


def monomials_upto(n, max_degree):
    """All exponent tuples in n variables with total degree <= max_degree,
    in ascending graded lexicographic order.  Returns a new list."""
    return list(_monomial_table(n, max_degree))


def monomial_scalars(n, max_degree):
    """The monomials of total degree <= max_degree, as scalars, in graded-lex order."""
    return [Scalar(Polynomial(n, {mono: 1})) for mono in monomials_upto(n, max_degree)]


class Polynomial:
    """Sparse multivariate polynomial over Q.

    ``terms`` maps packed monomials (see the module docstring) to nonzero
    integer numerators, one entry per term, over the positive common
    denominator ``den``.  ``den`` and the numerators are coprime, so
    every polynomial has one representation.  Instances are treated as
    immutable; read coefficients through :meth:`coefficient` and
    :meth:`items`.

    ``_memo`` is None or a list of ``nvars + 2`` entries, each None until
    first asked for: at 0 the last Kronecker image of the numerators as
    ``((base, width), image)``, the image one int or a list of ints (see
    :func:`_kronecker_sum`); at i in 1..nvars the partial derivative in
    x_i; at nvars + 1 the height, the largest absolute numerator.  All
    depend only on the polynomial.
    """

    __slots__ = ("nvars", "terms", "den", "_memo")

    def __init__(self, nvars, terms=None):
        """``terms`` maps exponent tuples of length ``nvars`` to rationals."""
        coeffs = {}
        for mono, c in (terms or {}).items():
            key = _pack(nvars, mono)
            c = Fraction(c)
            if c:
                coeffs[key] = c
        den = reduce(lcm, (c.denominator for c in coeffs.values()), 1)
        self.nvars = nvars
        self.terms = {
            m: c.numerator * (den // c.denominator) for m, c in coeffs.items()
        }
        self.den = den
        self._memo = None

    @classmethod
    def _raw(cls, nvars, terms, den=1):
        # Internal constructor trusting that ``terms`` and ``den`` are reduced.
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p.den = den
        p._memo = None
        return p

    @classmethod
    def _reduced(cls, nvars, terms, den):
        # Internal constructor for nonzero numerators over a positive den.
        if den != 1:
            g = reduce(gcd, terms.values(), den)
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        return cls._raw(nvars, terms, den)

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        value = Fraction(value)
        if not value:
            return cls.zero(nvars)
        return cls._raw(nvars, {0: value.numerator}, value.denominator)

    @classmethod
    def one(cls, nvars):
        return cls._raw(nvars, {0: 1})

    @classmethod
    def variable(cls, nvars, index):
        """The polynomial x_index, index 1-based."""
        if not 1 <= index <= nvars:
            raise IndexOutOfRange(f"variable index {index} outside 1..{nvars}")
        key = (1 << (nvars * _BITS)) | (1 << ((nvars - index) * _BITS))
        return cls._raw(nvars, {key: 1})

    def coefficient(self, mono):
        """The coefficient of the exponent tuple ``mono``, as a Fraction."""
        return Fraction(self.terms.get(_pack(self.nvars, mono), 0), self.den)

    def items(self):
        """(exponent tuple, Fraction) pairs in ascending graded-lex order."""
        return [
            (_unpack(self.nvars, m), Fraction(self.terms[m], self.den))
            for m in sorted(self.terms)
        ]

    def is_zero(self):
        return not self.terms

    def is_one(self):
        t = self.terms
        return len(t) == 1 and t.get(0) == 1 and self.den == 1

    def is_constant(self):
        t = self.terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self):
        return Fraction(self.terms.get(0, 0), self.den)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(self.terms) >> (self.nvars * _BITS)

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        key = max(self.terms)
        return _unpack(self.nvars, key), Fraction(self.terms[key], self.den)

    def monic(self):
        t = self.terms
        if not t:
            return self
        lc = t[max(t)]
        if lc == self.den:
            return self
        if lc < 0:
            t = {m: -c for m, c in t.items()}
            lc = -lc
        return Polynomial._reduced(self.nvars, t, lc)

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return Polynomial.zero(self.nvars)
        p = c.numerator
        terms = self.terms if p == 1 else {m: v * p for m, v in self.terms.items()}
        return Polynomial._reduced(self.nvars, terms, self.den * c.denominator)

    def _aligned(self, other):
        # A copy of self's numerators and other's, over their common
        # denominator, with that denominator.
        da, db = self.den, other.den
        if da == db:
            return dict(self.terms), other.terms, da
        g = gcd(da, db)
        return (
            {m: c * (db // g) for m, c in self.terms.items()},
            {m: c * (da // g) for m, c in other.terms.items()},
            da * (db // g),
        )

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms, tb, den = self._aligned(other)
        get = terms.get
        for m, c in tb.items():
            s = get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Polynomial._reduced(self.nvars, terms, den)

    def __neg__(self):
        return Polynomial._raw(
            self.nvars, {m: -c for m, c in self.terms.items()}, self.den
        )

    def __sub__(self, other):
        # self + (-other) without building -other: the same terms, values
        # and insertion order.
        if not other.terms:
            return self
        if not self.terms:
            return -other
        terms, tb, den = self._aligned(other)
        get = terms.get
        for m, c in tb.items():
            s = get(m, 0) - c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Polynomial._reduced(self.nvars, terms, den)

    def __mul__(self, other):
        ta, tb = self.terms, other.terms
        n = self.nvars
        if not ta or not tb:
            return Polynomial.zero(n)
        degree = (max(ta) + max(tb)) >> (n * _BITS)
        if degree > MAX_DEGREE:
            raise DegreeOverflow(
                f"product of total degree {degree} is above the limit {MAX_DEGREE}"
            )
        den = self.den * other.den
        terms = _add_products(n, [(1, self, other, den)], den, degree, len(ta) * len(tb))
        return Polynomial._reduced(n, terms, den)

    def derivative(self, index):
        """Partial derivative with respect to x_index (1-based)."""
        n = self.nvars
        if not 1 <= index <= n:
            raise IndexOutOfRange(f"variable index {index} outside 1..{n}")
        memo = self._memo
        if memo is None:
            memo = self._memo = [None] * (n + 2)
        elif memo[index] is not None:
            return memo[index]
        shift = (n - index) * _BITS
        step = (1 << (n * _BITS)) | (1 << shift)
        terms = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD
            if e:
                terms[m - step] = c * e
        memo[index] = d = Polynomial._reduced(n, terms, self.den)
        return d

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.terms.items())))

    def __str__(self):
        return _render_poly(self)

    def __repr__(self):
        return f"Polynomial({self})"


def _render_poly(p):
    if not p.terms:
        return "0"
    parts = []
    for key in sorted(p.terms, reverse=True):
        c = Fraction(p.terms[key], p.den)
        factors = []
        for i, e in enumerate(_unpack(p.nvars, key)):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# gcd machinery
#
# Multivariate gcd by recursion on the last variable: write p in Q[x1..xk]
# as a univariate polynomial in xk with coefficients in Q[x1..x(k-1)], take
# contents out, and run a primitive pseudo-remainder sequence.  A gcd is
# only defined up to a nonzero constant, so the sequence runs on integer
# coefficients with their common factors divided out, and the result is
# made monic at the end.  Inputs here stay small (n <= 4, low degree), so
# the classical algorithm is plenty.
# ---------------------------------------------------------------------------


def divexact(f, d):
    """Exact polynomial division f / d; raises if d does not divide f."""
    if d.is_zero():
        raise DivisionByZero("exact division by the zero polynomial")
    if f.is_zero():
        return f
    # Divide f's numerators by the primitive part of d's: when d divides f,
    # Gauss's lemma makes every quotient coefficient an integer.
    content = reduce(gcd, d.terms.values(), 0)
    dterms = d.terms
    if content != 1:
        dterms = {m: c // content for m, c in dterms.items()}
    dm = max(dterms)
    dc = dterms[dm]
    guards = _guards(f.nvars)
    q = {}
    rem = dict(f.terms)
    while rem:
        rm = max(rem)
        qm = rm - dm
        qc, r = divmod(rem[rm], dc)
        if qm & guards or r:
            raise ArithmeticError("inexact polynomial division")
        q[qm] = qc
        for m, c in dterms.items():
            mm = qm + m
            s = rem.get(mm, 0) - qc * c
            if s:
                rem[mm] = s
            else:
                del rem[mm]
    # f / d = (F / f.den) / (content * D' / d.den) = Q' * d.den / (f.den * content)
    if d.den != 1:
        q = {m: c * d.den for m, c in q.items()}
    return Polynomial._reduced(f.nvars, q, f.den * content)


_ONE_DEGREE = (1 << _BITS) + 1  # a key's step for one degree when nvars == 1


def _integer_pseudo_mod(x, y):
    """Primitive pseudo-remainder of x by y: univariate key -> integer dicts.

    Works on the packed keys as they are, one degree step down at a time,
    and scales in place: the remainder's term order flows on through the
    gcd into later products and content loops, so it must not change.
    """
    ky = max(y)
    lcy = y[ky]
    x = dict(x)
    get = x.get
    for kx in range(max(x), ky - 1, -_ONE_DEGREE):
        c = get(kx)
        if not c:
            continue
        g = gcd(c, lcy)
        sx, sy = lcy // g, c // g
        if sx != 1:
            for k in x:
                x[k] *= sx
        shift = kx - ky
        for k, cy in y.items():
            kk = k + shift
            s = get(kk, 0) - sy * cy
            if s:
                x[kk] = s
            else:
                del x[kk]
    g = 0
    for c in x.values():
        g = gcd(g, c)
        if g == 1:
            return x
    if g:
        x = {k: c // g for k, c in x.items()}
    return x


def _gcd_univariate(f, g):
    # Euclid for nvars == 1, on primitive integer remainders.  A nonzero
    # constant remainder ends it at once: the gcd is then 1.
    a, b = f.terms, g.terms
    while b:
        if 0 in b and len(b) == 1:
            return Polynomial.one(1)
        a, b = b, _integer_pseudo_mod(a, b)
    return Polynomial._raw(1, a).monic()


def _split_last(p):
    """p in n vars -> dict: degree in xn -> Polynomial in n-1 vars.

    The coefficients are taken from p's integer numerators, so the split
    is of p times its denominator: the gcd is blind to constant factors.
    """
    top = (p.nvars - 1) * _BITS
    out = {}
    for m, c in p.terms.items():
        k = m & _FIELD
        out.setdefault(k, {})[(m >> _BITS) - (k << top)] = c
    return {k: Polynomial._raw(p.nvars - 1, terms) for k, terms in out.items()}


def _join_last(coeffs, nvars):
    """Inverse of _split_last, for integer coefficient polynomials."""
    top = nvars * _BITS
    terms = {}
    for k, poly in coeffs.items():
        high = (k << top) | k
        for m, c in poly.terms.items():
            terms[(m << _BITS) + high] = c
    return Polynomial._raw(nvars, terms)


def _uni_prem(A, B):
    """Pseudo-remainder of A by B (both dicts degree -> coefficient poly)."""
    dB = max(B)
    lcB = B[dB]
    R = A
    while R:
        dR = max(R)
        if dR < dB:
            break
        lcR = R[dR]
        newR = {k: c * lcB for k, c in R.items()}
        for k, c in B.items():
            kk = k + dR - dB
            prod = c * lcR
            old = newR.get(kk)
            s = -prod if old is None else old - prod
            if s.terms:
                newR[kk] = s
            else:
                del newR[kk]
        R = newR
    return R


def _uni_content(A):
    polys = list(A.values())
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.is_constant():
            break
    return g.monic()


def _uni_primitive(A, cont=None):
    """A divided by its content, then scaled to coprime integer coefficients.

    ``cont`` is A's content when the caller has it already.
    """
    if not A:
        return A
    if cont is None:
        cont = _uni_content(A)
    if not cont.is_constant():
        A = {k: divexact(p, cont) for k, p in A.items()}
    den = reduce(lcm, (p.den for p in A.values()))
    if den != 1:
        A = {
            k: Polynomial._raw(p.nvars, {m: c * (den // p.den) for m, c in p.terms.items()})
            for k, p in A.items()
        }
    g = 0
    for p in A.values():
        for c in p.terms.values():
            g = gcd(g, c)
            if g == 1:
                return A
    return {
        k: Polynomial._raw(p.nvars, {m: c // g for m, c in p.terms.items()})
        for k, p in A.items()
    }


def poly_gcd(f, g):
    """Monic gcd of two polynomials under graded lexicographic order."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return Polynomial.one(f.nvars)
    if f.nvars == 1:
        return _gcd_univariate(f, g)
    A = _split_last(f)
    B = _split_last(g)
    cA = _uni_content(A)
    cB = _uni_content(B)
    c = poly_gcd(cA, cB)
    A = _uni_primitive(A, cA)
    B = _uni_primitive(B, cB)
    while B:
        R = _uni_prem(A, B)
        A, B = B, _uni_primitive(R)
    lifted = _join_last(A, f.nvars)
    if not c.is_one():
        lifted = lifted * _lift(c)
    return lifted.monic()


def _lift(p):
    """Embed a polynomial in n-1 vars into n vars (exponent 0 in xn)."""
    return Polynomial._raw(
        p.nvars + 1, {m << _BITS: c for m, c in p.terms.items()}, p.den
    )


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


class Scalar:
    """Exact rational function num/den in canonical form.

    Canonical means: num and den coprime, den monic under graded lex,
    zero represented as 0/1.  Construction normalizes, after which
    ``==`` is plain structural comparison.  A scalar is a polynomial
    exactly when its den is the shared unit of ``_units(n)``, so the
    arithmetic tells the polynomial case by one identity test.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = _units(num.nvars)[1]
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _canonical(cls, num, den):
        s = object.__new__(cls)
        s.num = num
        s.den = den
        return s

    @property
    def nvars(self):
        return self.num.nvars

    @classmethod
    def zero(cls, n):
        return cls._canonical(*_units(n))

    @classmethod
    def one(cls, n):
        one = _units(n)[1]
        return cls._canonical(one, one)

    @classmethod
    def from_fraction(cls, n, value):
        return cls._canonical(Polynomial.constant(n, Fraction(value)), _units(n)[1])

    @classmethod
    def variable(cls, n, index):
        """The coordinate function x_index (1-based)."""
        return cls._canonical(Polynomial.variable(n, index), _units(n)[1])

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    def is_polynomial(self):
        return self.den is _units(self.num.nvars)[1]

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.num.nvars != self.num.nvars:
                raise ValueError("scalars over different variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_fraction(self.num.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        unit = _units(d1.nvars)[1]
        if d1 is d2 and d1 is unit:
            return Scalar._canonical(self.num + o.num, d1)
        # Henrici's sum: with g = gcd(d1, d2), the sum is
        # (n1 d2/g + n2 d1/g) / (d1/g d2), and the only common factor its
        # numerator and denominator can share divides g.
        if d1 is unit or d2 is unit:
            g = unit
        else:
            g = poly_gcd(d1, d2)
        if g.is_one():
            # coprime and a product of monic denominators: canonical
            return Scalar._canonical(self.num * d2 + o.num * d1, d1 * d2)
        d1 = divexact(d1, g)
        num = self.num * divexact(d2, g) + o.num * d1
        den = d1 * d2
        if not num.is_zero():
            h = poly_gcd(num, g)
            if not h.is_one():
                num = divexact(num, h)
                den = divexact(den, h)
        return Scalar._canonical(*_monic(num, den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._canonical(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.den
        if d is o.den and d is _units(d.nvars)[1]:
            return Scalar._canonical(self.num - o.num, d)
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        unit = _units(d1.nvars)[1]
        if d1 is d2 and d1 is unit:
            # a product of polynomials over the denominator one is canonical
            return Scalar._canonical(n1 * n2, d1)
        # Henrici's product: cancel gcd(n1, d2) and gcd(n2, d1) first, and
        # the product of what is left is coprime.
        if d2 is not unit:
            g = poly_gcd(n1, d2)
            if not g.is_one():
                n1, d2 = divexact(n1, g), divexact(d2, g)
        if d1 is not unit:
            g = poly_gcd(n2, d1)
            if not g.is_one():
                n2, d1 = divexact(n2, g), divexact(d1, g)
        return Scalar._canonical(*_monic(n1 * n2, d1 * d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by the zero scalar")
        return Scalar(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Scalar.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def derive(self, index):
        """Exact partial derivative with respect to x_index (1-based)."""
        nvars = self.num.nvars
        if not 1 <= index <= nvars:
            raise IndexOutOfRange(f"variable index {index} outside 1..{nvars}")
        if self.den is _units(nvars)[1]:
            return Scalar._canonical(self.num.derivative(index), self.den)
        # quotient rule
        n, d = self.num, self.den
        return Scalar(
            n.derivative(index) * d - n * d.derivative(index), d * d
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(self.nvars, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"Scalar({self})"


@cache
def _units(n):
    """The shared zero and one polynomials in n variables."""
    return Polynomial.zero(n), Polynomial.one(n)


def _normalize(num, den):
    if num.nvars != den.nvars:
        raise ValueError("numerator and denominator over different variable counts")
    n = num.nvars
    if num.is_zero():
        return _units(n)
    if not den.is_constant():
        g = poly_gcd(num, den)
        if not g.is_one():
            num = divexact(num, g)
            den = divexact(den, g)
    return _monic(num, den)


def _monic(num, den):
    """Canonical form of a coprime num/den: a monic den, or the shared
    unit when den is constant."""
    n = num.nvars
    if num.is_zero():
        return _units(n)
    if den.is_constant():
        # every denominator equal to 1 becomes the shared unit
        if not den.is_one():
            num = num.scale(Fraction(den.den, den.terms[0]))
        return num, _units(n)[1]
    lc = den.terms[max(den.terms)]
    if lc != den.den:
        c = Fraction(den.den, lc)
        num = num.scale(c)
        den = den.scale(c)
    return num, den


def sum_of_products(n, terms):
    """The scalar sum of ``c * a * b`` over ``(c, a, b)`` triples of
    scalars in n variables, ``c`` a nonzero int or Fraction; ``b`` None
    stands for 1.

    The form operations and the brackets gather each output coefficient's
    products here.  One pass over the triples collects the nonzero
    polynomial products, the lcm ``den`` of their denominators (a
    Fraction weight's denominator included), the largest degree ``top``
    of a term and the count ``work`` of coefficient products, and raises
    DegreeOverflow at a product past ``MAX_DEGREE`` even if it cancels.
    _add_products then adds them into one dict of packed monomials over
    ``den``, so one Polynomial and one Scalar are built per sum, not one
    per product and per partial sum: the sum-of-products accumulation of
    Monagan and Pearce (ISSAC 2009).  A true quotient among the scalars
    sends the whole sum through the Scalar arithmetic.
    """
    if len(terms) == 1 and terms[0][2] is None and terms[0][0] in (1, -1):
        c, a, _ = terms[0]
        return a if c > 0 else -a
    unit = _units(n)[1]
    shift = n * _BITS
    limit = (MAX_DEGREE + 1) << shift
    den = 1
    top = work = 0  # top: the largest packed key of a term
    prods = []
    for c, a, b in terms:
        if a.den is not unit:
            break
        p = a.num
        ta = p.terms
        if b is None:
            if not ta:
                continue
            q = None
            d = p.den
            k = max(ta)
        else:
            if b.den is not unit:
                break
            q = b.num
            tb = q.terms
            if not ta or not tb:
                continue
            k = max(ta) + max(tb)
            if k >= limit:
                raise DegreeOverflow(
                    f"product of total degree {k >> shift} is above the limit {MAX_DEGREE}"
                )
            d = p.den * q.den
            work += len(ta) * len(tb)
        if type(c) is not int:
            d *= c.denominator
            c = c.numerator
        if k > top:
            top = k
        if d != den and den % d:
            den *= d // gcd(den, d)
        prods.append((c, p, q, d))
    else:
        acc = _add_products(n, prods, den, top >> shift, work)
        if not acc:
            return Scalar.zero(n)
        return Scalar._canonical(Polynomial._reduced(n, acc, den), unit)
    total = None
    for c, a, b in terms:
        term = a if b is None else a * b
        if c == -1:
            term = -term
        elif c != 1:
            # a rational multiple of a canonical quotient is canonical
            term = Scalar._canonical(term.num.scale(c), term.den)
        total = term if total is None else total + term
    return Scalar.zero(n) if total is None else total


# Sums of at least this many coefficient products take the Kronecker path,
# when their slot box is no larger than the sum.  Below about 128 products
# encoding and decoding cost more than the dict loop saves.
_KRONECKER_WORK = 256

# A Kronecker box whose chunk, the slots of one exponent of x1, holds at
# least this many bits is multiplied chunk by chunk.  Replayed on the
# workloads' sums, chunks took 0.36-0.80 of the one integer's time from
# 1,296 bits (n = 3, base 9, 16-bit slots), 0.92 at 1,024 bits, and lost
# at 784 bits and below (1.08-1.38) and in every n = 2 box (2.0-2.4).
_KRONECKER_CHUNK = 1200

# Kronecker slot widths in bits, each with the memoryview code of an
# unsigned item of that width.
_SLOT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _add_products(n, prods, den, top, work):
    """The dict of the nonzero terms of ``sum sign * (den / d) * p * q``
    over ``(sign, p, q, d)`` in ``prods``, ``sign`` any nonzero integer,
    polynomials ``p`` and ``q`` (q None for 1) of degree <= top making
    ``work`` coefficient products.

    A large dense sum whose coefficients fit a slot takes _kronecker_sum;
    any other sum is added up term by term in a dict of packed monomials.
    A sum that cancels is dropped at once and re-inserted at the end if it
    reappears.  The gcd's content loop visits coefficients in this
    insertion order, which decides how many gcds it takes.
    """
    if work >= _KRONECKER_WORK and (top + 1) ** n <= work:
        width = _slot_width(prods, den)
        if width:
            return _kronecker_sum(n, prods, den, top, width)
    acc = {}
    get = acc.get
    for sign, p, q, d in prods:
        scale = sign if d == den else sign * (den // d)
        if q is None:
            for m, c in p.terms.items():
                v = get(m, 0) + c * scale
                if v:
                    acc[m] = v
                else:
                    del acc[m]
            continue
        tb = q.terms
        for m1, c1 in p.terms.items():
            c1 *= scale
            for m2, c2 in tb.items():
                m = m1 + m2
                v = get(m, 0) + c1 * c2
                if v:
                    acc[m] = v
                else:
                    del acc[m]
    return acc


def _height(p):
    """The largest absolute numerator of a nonzero polynomial, kept in its
    memo."""
    memo = p._memo
    if memo is None:
        memo = p._memo = [None] * (p.nvars + 2)
    else:
        h = memo[-1]
        if h is not None:
            return h
    memo[-1] = h = max(map(abs, p.terms.values()))
    return h


def _slot_width(prods, den):
    """The narrowest slot width that holds a sign bit and a bound on every
    input and output coefficient of the sum, or 0 past 64 bits."""
    bound = 0
    for sign, p, q, d in prods:
        c = abs(sign) * (den // d) * _height(p)
        if q is not None:
            c *= _height(q) * min(len(p.terms), len(q.terms))
        bound += c
    bits = bound.bit_length() + 1
    for width in _SLOT_CODES:
        if bits <= width:
            return width
    return 0


def _kronecker_sum(n, prods, den, top, width):
    """_add_products by Kronecker substitution, in ascending key order.

    A monomial of degree <= top goes to slot ``sum e_i (top + 1)^(n - i)``,
    so a product of monomials goes to the sum of their slots, and each
    polynomial becomes one integer with its coefficients in ``width``-bit
    slots.  The whole sum is then one big integer: one multiply per product,
    read back once (Fateman 2010; Harvey, JSC 2009).  Each slot holds its
    coefficient plus a bias of half its range, so no slot borrows from the
    next: an image is written into a copy of a template whose every slot
    holds the bias, and the sum is read back through one memoryview of its
    bytes.  Each polynomial keeps its last image.

    Only the total-degree simplex of the box is ever nonzero, yet one
    integer multiplies every slot of it.  So a box whose chunk of the
    ``(top + 1)^(n - 1)`` slots of one exponent of x1 holds at least
    ``_KRONECKER_CHUNK`` bits takes _chunked_sum, where an image is one
    integer per exponent of x1.  Its output is the same dict.
    """
    base = top + 1
    size = base ** (n - 1)
    if size * width >= _KRONECKER_CHUNK:
        return _chunked_sum(n, prods, den, base, size, width)
    slots, gather = _kronecker_layout(n, base)
    key = (base, width)
    code = _SLOT_CODES[width]
    half = 1 << (width - 1)
    template = half.to_bytes(width >> 3, sys.byteorder) * (base * size)
    bias = int.from_bytes(template, sys.byteorder)

    def image(p):
        memo = p._memo
        if memo is None:
            memo = p._memo = [None] * (n + 2)
        elif memo[0] is not None and memo[0][0] == key:
            return memo[0][1]
        data = bytearray(template)
        view = memoryview(data).cast(code)
        for m, c in p.terms.items():
            view[slots[m]] = c + half
        x = int.from_bytes(data, sys.byteorder) - bias
        memo[0] = (key, x)
        return x

    total = 0
    for sign, p, q, d in prods:
        x = image(p)
        if q is not None:
            x *= image(q)
        total += (sign if d == den else sign * (den // d)) * x
    data = (total + bias).to_bytes(len(template), sys.byteorder)
    values = gather(memoryview(data).cast(code))
    return {m: v - half for m, v in zip(slots, values) if v != half}


def _chunked_sum(n, prods, den, base, size, width):
    """_kronecker_sum with each image cut into chunks by the exponent of x1.

    Chunk i of an image is the integer of the ``size`` slots of x2..xn
    under x1^i, each biased as in the one-integer image, less the bias;
    the list ends at the highest nonzero chunk.  A product of two
    monomials adds their x1 exponents and, because its degree stays below
    ``base``, adds their x2..xn slots without a carry past the chunk.  So
    a product of images is the convolution of their chunk lists, added
    into one running integer per exponent of x1.  Their biased bytes,
    joined in order, are the one-integer layout, read through the same
    gather.
    """
    slots, gather = _kronecker_layout(n, base)
    key = (base, width)
    code = _SLOT_CODES[width]
    half = 1 << (width - 1)
    step = size * width >> 3  # bytes per chunk
    chunk = half.to_bytes(width >> 3, sys.byteorder) * size
    bias = int.from_bytes(chunk, sys.byteorder)
    shift = n * _BITS

    def image(p):
        memo = p._memo
        if memo is None:
            memo = p._memo = [None] * (n + 2)
        elif memo[0] is not None and memo[0][0] == key:
            return memo[0][1]
        # no exponent of x1 passes the total degree
        data = bytearray(chunk * ((max(p.terms) >> shift) + 1))
        view = memoryview(data).cast(code)
        for m, c in p.terms.items():
            view[slots[m]] = c + half
        view = memoryview(data)
        x = [
            int.from_bytes(view[i : i + step], sys.byteorder) - bias
            for i in range(0, len(data), step)
        ]
        while not x[-1]:
            x.pop()
        memo[0] = (key, x)
        return x

    acc = [0] * base
    for sign, p, q, d in prods:
        scale = sign if d == den else sign * (den // d)
        xs = image(p)
        if q is None:
            for i, x in enumerate(xs):
                acc[i] += scale * x
            continue
        ys = image(q)
        for i, x in enumerate(xs):
            if x:
                x *= scale
                for j, y in enumerate(ys, i):
                    acc[j] += x * y
    data = b"".join([(x + bias).to_bytes(step, sys.byteorder) for x in acc])
    values = gather(memoryview(data).cast(code))
    return {m: v - half for m, v in zip(slots, values) if v != half}


@lru_cache(maxsize=64)
def _kronecker_layout(n, base):
    """Kronecker slots of the monomials of degree < base in n variables: a
    dict from each packed key, in ascending key order, to its slot index,
    and an itemgetter of those slots in the same order.  Its one index past
    the slots keeps even a one-slot gather a tuple; zip drops it."""
    slots = {}
    for degree in range(base):
        for mono in _monomials_of_degree(n, degree):
            slot = 0
            for e in mono:
                slot = slot * base + e
            slots[_pack(n, mono)] = slot
    return slots, itemgetter(*slots.values(), 0)


# ---------------------------------------------------------------------------
# free-function forms and random generation
# ---------------------------------------------------------------------------


def derive(a, index):
    """Partial derivative of a scalar with respect to x_index (1-based)."""
    return a.derive(index)


@cache
def _packed_table(n, max_degree):
    """The packed keys of ``_monomial_table(n, max_degree)``, in its order."""
    return tuple(_pack(n, mono) for mono in _monomial_table(n, max_degree))


def random_polynomial(n, rng, max_degree, coeff_bound):
    """Random polynomial scalar drawn from an externally seeded RNG: one
    integer coefficient in -coeff_bound..coeff_bound per monomial of
    degree <= max_degree, in ascending graded-lex order."""
    terms = {}
    for key in _packed_table(n, max_degree):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[key] = c
    if not terms:
        return Scalar.zero(n)
    return Scalar._canonical(Polynomial._raw(n, terms), _units(n)[1])


def random_scalar(n, seed, max_degree, coeff_bound):
    """Deterministic random polynomial: same seed, same scalar."""
    return random_polynomial(n, random.Random(seed), max_degree, coeff_bound)
