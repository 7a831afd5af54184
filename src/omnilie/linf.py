"""Truncated strong homotopy structures, their oracle, and morphisms.

Contents: the unshuffle/Koszul sign combinatorics, a generic residual
oracle for the higher coherence identity, the graded spaces (each a
``Space`` record of its zero and its seeded draw), the structure
constructors
(two- and three-term brackets from an order-1 structure, the semidirect
product of the homotopy representation, the graded observable algebra
of a subbundle, the differential graded Leibniz bracket), morphism
residual checking, and the rescaling and cohomologous-shift
isomorphisms.

Sign conventions, fixed once here: a permutation is a tuple ``perm``
with ``perm[pos]`` the original index; its signature counts inversions;
the Koszul sign multiplies ``(-1)**(d_a*d_b)`` per inversion; the
coherence identity weights each (i, j = n+1-i) block by
``sgn * koszul * (-1)**(i*(j-1))``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial

from .errors import ArityError, Degenerate, NotClosed, ZeroScale
from .gauge import Derivation, commutator, random_derivation
from .atiyah import (
    AtiyahForm,
    as_form,
    contract,
    differential,
    evaluate,
    lie_derivative,
    random_form,
)
from .dcourant import (
    DSection,
    LCourantStructure,
    gauge_auto,
    random_section,
    script_D,
)
from .observables import (
    HamiltonianForm,
    Subbundle,
    graph_of_form,
    observable_bracket,
    observable_bracket_hamiltonian,
    random_hamiltonian,
    section_coordinates,
)
from .sampling import Family
from .scalar import Scalar, random_polynomial
from . import linalg

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# graded combinatorics
# ---------------------------------------------------------------------------


def unshuffles(i, n):
    """All (i, n-i) unshuffles as 0-based permutation tuples."""
    if not 1 <= i <= n:
        raise ValueError("the first block size must lie in 1..n")
    out = []
    for first in itertools.combinations(range(n), i):
        chosen = set(first)
        rest = tuple(t for t in range(n) if t not in chosen)
        out.append(first + rest)
    return out


def perm_signature(perm):
    """(-1)**inversions."""
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def koszul_sign(perm, degrees):
    """Sign from commuting graded symbols into permuted order."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and degrees[perm[a]] % 2 and degrees[perm[b]] % 2:
                sign = -sign
    return sign


def kappa(k):
    """Alternating weight of the higher observable brackets."""
    if k % 2 == 0:
        return (-1) ** (k // 2 + 1)
    return (-1) ** ((k - 1) // 2)


# ---------------------------------------------------------------------------
# graded elements and spaces
# ---------------------------------------------------------------------------


class GradedElement:
    __slots__ = ("degree", "payload")

    def __init__(self, degree, payload):
        self.degree = degree
        self.payload = payload

    def is_zero(self):
        return self.payload.is_zero()

    def __str__(self):
        return str(self.payload)

    def __repr__(self):
        return f"GradedElement(deg={self.degree}, {self.payload})"


def _scale_payload(x, c):
    if isinstance(x, Scalar):
        return x * c
    return x.scale(c)


def _signed_sum(terms):
    """The sum of ``sign * element`` over ``(sign, element)`` pairs of one
    degree, where a None element is a zero; None when every one is."""
    acc = None
    for sign, e in terms:
        if e is None:
            continue
        if acc is None:
            acc = e if sign > 0 else GradedElement(e.degree, -e.payload)
        elif sign > 0:
            acc = GradedElement(acc.degree, acc.payload + e.payload)
        else:
            acc = GradedElement(acc.degree, acc.payload - e.payload)
    return acc


def ge_is_zero(a):
    return a is None or a.is_zero()


class Space:
    """A graded space as a structure uses it: ``zero()``, and a seeded draw
    ``random(rng, max_degree, coeff_bound)``."""

    __slots__ = ("zero", "random")

    def __init__(self, zero, random):
        self.zero = zero
        self.random = random


def _scalars(n):
    return Space(partial(Scalar.zero, n), partial(random_polynomial, n))


def _zero_scalars(n):
    """The zero subspace of scalars (for instance an everywhere-zero kernel)."""
    zero = partial(Scalar.zero, n)
    return Space(zero, lambda rng, max_degree, coeff_bound: zero())


def _sections(n, p):
    return Space(partial(DSection.zero, n, p), partial(random_section, n, p))


# ---------------------------------------------------------------------------
# structures and the oracle
# ---------------------------------------------------------------------------


class LInfinityStructure:
    """Graded spaces plus a bracket table, with an explicit arity bound.

    ``brackets`` maps a tuple of input degrees to a function of the
    payloads.  The bracket of k inputs lands in degree
    ``sum(degrees) + k - 2``, and a tuple with no entry brackets to zero.
    """

    def __init__(self, name, spaces, arity, brackets):
        self.name = name
        self.spaces = tuple(spaces)
        self.arity = arity
        self.brackets = brackets

    @property
    def terms(self):
        return len(self.spaces)

    def space(self, degree):
        """The space of the given degree; IndexError outside ``0..terms-1``."""
        if not 0 <= degree < len(self.spaces):
            raise IndexError(f"{self.name} has no degree {degree}")
        return self.spaces[degree]

    def l(self, k, elems):
        """The k-th bracket; None encodes the zero of a missing entry."""
        elems = tuple(elems)
        if len(elems) != k:
            raise ArityError(f"l_{k} applied to {len(elems)} arguments")
        if k > self.arity:
            return None
        degs = tuple(e.degree for e in elems)
        fn = self.brackets.get(degs)
        if fn is None:
            return None
        return GradedElement(sum(degs) + k - 2, fn(*(e.payload for e in elems)))

    def zero_element(self, degree):
        return GradedElement(degree, self.space(degree).zero())

    def random_element(self, degree, rng, max_degree, coeff_bound):
        return GradedElement(
            degree, self.space(degree).random(rng, max_degree, coeff_bound)
        )

    def random_tuple(self, size, rng, max_degree, coeff_bound, degrees=None):
        if degrees is None:
            degrees = [rng.randrange(self.terms) for _ in range(size)]
        return [
            self.random_element(d, rng, max_degree, coeff_bound) for d in degrees
        ]

    def __repr__(self):
        return f"LInfinityStructure({self.name}, terms={self.terms})"


def drop_bracket(structure, k):
    """A sabotaged copy with the k-th bracket removed."""
    brackets = {d: fn for d, fn in structure.brackets.items() if len(d) != k}
    return LInfinityStructure(
        f"{structure.name}-drop-l{k}", structure.spaces, structure.arity, brackets
    )


def jacobi_residual(structure, elems):
    """The signed double sum of the coherence identity; zero for real structures.

    Every table entry lands inside the complex, so when the identity's
    degree ``sum(degrees) + n - 3`` lies outside it, every term is zero
    and the residual is None, with no bracket computed.
    """
    elems = tuple(elems)
    n = len(elems)
    if n < 1:
        raise ArityError("the oracle needs at least one element")
    if n > structure.arity + 1:
        raise ArityError(
            f"identity at n={n} exceeds the arity bound {structure.arity}"
        )
    degrees = [e.degree for e in elems]
    target = sum(degrees) + n - 3
    if not 0 <= target < structure.terms:
        return None
    terms = []
    for i in range(1, n + 1):
        j = n + 1 - i
        if i > structure.arity or j > structure.arity:
            continue
        for perm in unshuffles(i, n):
            inner = structure.l(i, [elems[t] for t in perm[:i]])
            if inner is None or inner.is_zero():
                continue
            outer = structure.l(j, [inner] + [elems[t] for t in perm[i:]])
            if outer is None or outer.is_zero():
                continue
            sign = (
                perm_signature(perm)
                * koszul_sign(perm, degrees)
                * (-1) ** (i * (j - 1))
            )
            terms.append((sign, outer))
    acc = _signed_sum(terms)
    if acc is None:
        return structure.zero_element(target)
    return acc


# ---------------------------------------------------------------------------
# constructors from an order-1 bracket structure
# ---------------------------------------------------------------------------


def _pair_with_coboundary(e, s):
    # <e, (0, ds)> = ds(D) = D(s) for the anchor D of e
    return e.der.apply(s) * HALF


def build_two_term(structure):
    """Sections in degree 0, scalars in degree 1, brackets from the structure."""
    brackets = {
        (1,): script_D,
        (0, 0): structure.skew_bracket,
        (0, 1): _pair_with_coboundary,
        (1, 0): lambda s, e: -_pair_with_coboundary(e, s),
        (0, 0, 0): lambda a, b, c: -structure.trilinear(a, b, c),
    }
    spaces = (_sections(structure.n, 1), _scalars(structure.n))
    return LInfinityStructure(f"two-term[{structure.name}]", spaces, 3, brackets)


def build_three_term(structure):
    """The two-term brackets padded by the kernel of the degree map.

    The degree map is injective here (the unit contraction recovers a
    scalar from its differential), so the top space is the zero
    subspace and the brackets agree with the two-term ones.
    """
    base = build_two_term(structure)
    spaces = base.spaces + (_zero_scalars(structure.n),)
    brackets = {**base.brackets, (2,): lambda s: s}
    return LInfinityStructure(f"three-term[{structure.name}]", spaces, 4, brackets)


# ---------------------------------------------------------------------------
# the homotopy representation of the derivation Lie algebra
# ---------------------------------------------------------------------------


class RepHomotopyData:
    """Action data (mu0, mu1) plus the correction nu on scalars and 1-forms."""

    def __init__(self, n):
        self.n = n
        self._omni = LCourantStructure.omni(n)

    def mu0(self, delta, alpha):
        """Skew bracket of a bare derivation against a 1-form section."""
        return lie_derivative(delta, alpha) - differential(
            evaluate(alpha, delta)
        ).scale(HALF)

    def mu1(self, delta, s):
        return delta.apply(s) * HALF

    def nu(self, d1, d2, alpha):
        return self._omni.trilinear(
            DSection(d1, AtiyahForm.zero(self.n, 1)),
            DSection(d2, AtiyahForm.zero(self.n, 1)),
            DSection(Derivation.zero(self.n), alpha),
        )

    def _coaction(self, delta, phi_of, alpha):
        """(delta . phi)(alpha) for phi valued in maps 1-forms -> scalars."""
        return self.mu1(delta, phi_of(alpha)) - phi_of(self.mu0(delta, alpha))

    def axiom_residuals(self, samples, seed, max_degree=1, coeff_bound=2, tag="rep-axioms"):
        """Residuals of the two action axioms and the cocycle condition."""
        n = self.n

        def draw(rng, case):
            X, Y, Z = (random_derivation(n, rng, max_degree, coeff_bound) for _ in range(3))
            alpha = random_form(n, 1, rng, max_degree, coeff_bound)
            return X, Y, Z, alpha, random_polynomial(n, rng, max_degree, coeff_bound)

        def checks(X, Y, Z, alpha, s):
            cocycle = Scalar.zero(n)
            for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
                cocycle = cocycle + self._coaction(
                    A, lambda beta, B=B, C=C: self.nu(B, C, beta), alpha
                )
                cocycle = cocycle - self.nu(commutator(A, B), C, alpha)
            return {
                "action-0": self.mu0(commutator(X, Y), alpha)
                - self.mu0(X, self.mu0(Y, alpha))
                + self.mu0(Y, self.mu0(X, alpha))
                - differential(self.nu(X, Y, alpha)),
                "action-1": self.mu1(commutator(X, Y), s)
                - self.mu1(X, self.mu1(Y, s))
                + self.mu1(Y, self.mu1(X, s))
                - self.nu(X, Y, differential(s)),
                "cocycle": cocycle,
            }

        return Family(tag, samples, draw, checks, seed=seed)


def build_semidirect(data):
    """Semidirect two-term structure of the homotopy representation."""

    def l2(ea, eb):
        return DSection(
            commutator(ea.der, eb.der),
            data.mu0(ea.der, eb.form) - data.mu0(eb.der, ea.form),
        )

    def l3(ea, eb, ec):
        total = data.nu(ea.der, eb.der, ec.form)
        total = total + data.nu(eb.der, ec.der, ea.form)
        total = total + data.nu(ec.der, ea.der, eb.form)
        return -total

    brackets = {
        (1,): script_D,
        (0, 0): l2,
        (0, 1): lambda e, s: data.mu1(e.der, s),
        (1, 0): lambda s, e: -data.mu1(e.der, s),
        (0, 0, 0): l3,
    }
    spaces = (_sections(data.n, 1), _scalars(data.n))
    return LInfinityStructure("semidirect", spaces, 3, brackets)


# ---------------------------------------------------------------------------
# observable algebra of a subbundle
# ---------------------------------------------------------------------------


def observable_linf(xi):
    """The graded observable structure of an isotropic involutive subbundle."""
    n, p = xi.n, xi.p

    def zero_hamiltonian():
        # a new zero derivation each time: a derivation keeps its contractions
        return HamiltonianForm(AtiyahForm.zero(n, p - 1), Derivation.zero(n))

    spaces = [Space(zero_hamiltonian, partial(random_hamiltonian, xi))]
    for degree in range(p - 2, 0, -1):
        spaces.append(Space(partial(AtiyahForm.zero, n, degree), partial(random_form, n, degree)))
    if p >= 2:
        spaces.append(_scalars(n))

    def d_hamiltonian(a):
        return HamiltonianForm(differential(as_form(a)), Derivation.zero(n))

    def d_form(a):
        return differential(as_form(a))

    def higher(k):
        def lk(*hams):
            value = observable_bracket(hams[0], hams[1])
            for h in hams[2:]:
                value = contract(h.ham_der, value)
            if kappa(k) < 0:
                value = -value
            # the top degree p - 1 holds scalars
            return value.scalar() if k == p + 1 else value

        return lk

    brackets = {(d,): d_hamiltonian if d == 1 else d_form for d in range(1, p)}
    brackets[(0, 0)] = observable_bracket_hamiltonian  # kappa(2) == 1
    brackets.update({(0,) * k: higher(k) for k in range(3, p + 2)})
    return LInfinityStructure(f"observables[p={p}]", spaces, p + 1, brackets)


def _closed_graph(omega):
    """The graph of omega, which must be closed."""
    if not differential(omega).is_zero():
        raise NotClosed("the graph construction needs a closed form")
    return graph_of_form(omega)


def build_graph_linf(omega):
    """Observable structure of the graph of a closed form."""
    return observable_linf(_closed_graph(omega))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


class LInfMorphism:
    """Chain maps phi0/phi1 plus the skew corrector phi2 on payloads."""

    def __init__(self, phi0, phi1, phi2):
        self.phi0 = phi0
        self.phi1 = phi1
        self.phi2 = phi2


def _apply(structure, degs, *payloads):
    """The table entry at ``degs`` on the payloads, or the zero of its degree."""
    fn = structure.brackets.get(degs)
    if fn is None:
        return structure.space(sum(degs) + len(degs) - 2).zero()
    return fn(*payloads)


def morphism_residuals(
    phi, source, target, samples, seed, max_degree=1, coeff_bound=2, tag="morphism"
):
    """Residuals of the three morphism conditions plus chain and skewness."""

    def draw(rng, case):
        x, y, z = (source.space(0).random(rng, max_degree, coeff_bound) for _ in range(3))
        if source.terms == 1:
            return x, y, z, None
        return x, y, z, source.space(1).random(rng, max_degree, coeff_bound)

    def checks(x, y, z, h):
        fx, fy, fz = (phi.phi0(e) for e in (x, y, z))
        skew = phi.phi2(x, y) + phi.phi2(y, x)
        cond1 = (
            _apply(target, (0, 0), fx, fy)
            - phi.phi0(_apply(source, (0, 0), x, y))
            - _apply(target, (1,), phi.phi2(x, y))
        )
        if h is None:
            # a one-term structure is a Lie algebra: nothing lives in degree 1
            return {"phi2-skew": skew, "cond1": cond1}
        fh = phi.phi1(h)
        l1h = _apply(source, (1,), h)
        c3 = _apply(target, (0, 0, 0), fx, fy, fz) - phi.phi1(
            _apply(source, (0, 0, 0), x, y, z)
        )
        for a, fa, b, c in ((x, fx, y, z), (y, fy, z, x), (z, fz, x, y)):
            c3 = c3 - phi.phi2(a, _apply(source, (0, 0), b, c))
            c3 = c3 - _apply(target, (0, 1), fa, phi.phi2(b, c))
        return {
            "chain": phi.phi0(l1h) - _apply(target, (1,), fh),
            "phi2-skew": skew,
            "cond1": cond1,
            "cond2": _apply(target, (0, 1), fx, fh)
            - phi.phi1(_apply(source, (0, 1), x, h))
            - phi.phi2(x, l1h),
            "cond3": c3,
        }

    return Family(tag, samples, draw, checks, seed=seed)


def anchor_extension_algebra(b_form):
    """The Lie algebra of order-0 sections twisted by a 2-form, as a 2-term structure."""
    spaces = (_sections(b_form.n, 0), _zero_scalars(b_form.n))

    def l2(ea, eb):
        sa, sb = ea.form.scalar(), eb.form.scalar()
        value = ea.der.apply(sb) - eb.der.apply(sa) + evaluate(b_form, ea.der, eb.der)
        return DSection(commutator(ea.der, eb.der), AtiyahForm.from_scalar(value))

    return LInfinityStructure("anchor-extension", spaces, 2, {(0, 0): l2})


def prolongation_morphism(b_form):
    """The canonical morphism from the twisted order-0 algebra into the two-term one."""

    def phi0(e):
        return DSection(e.der, differential(e.form.scalar()))

    def phi1(s):
        return Scalar.zero(b_form.n)

    def phi2(e1, e2):
        value = e1.der.apply(e2.form.scalar()) - e2.der.apply(e1.form.scalar())
        return -(value * HALF) - evaluate(b_form, e1.der, e2.der)

    return LInfMorphism(phi0, phi1, phi2)


def cohomologous_iso(omega, b_form):
    """Strict isomorphism shifting the twist by the differential of a 2-form."""
    if not differential(omega).is_zero():
        raise NotClosed("the twist must be closed")
    n = omega.n

    def phi0(e):
        return gauge_auto(b_form, e)

    def phi1(s):
        return s

    def phi2(e1, e2):
        return Scalar.zero(n)

    return LInfMorphism(phi0, phi1, phi2)


def injective_graph_morphism(omega):
    """Embedding of the graph observables into the twisted two-term structure."""
    n = omega.n

    def phi0(h):
        return DSection(h.ham_der, -h.alpha)

    def phi1(s):
        return -s

    def phi2(a, b):
        return -HALF * (
            evaluate(b.alpha, a.ham_der) - evaluate(a.alpha, b.ham_der)
        )

    return LInfMorphism(phi0, phi1, phi2)


def section_map_matrix(fn, n, p):
    """Coordinate matrix of a module-linear map on order-p sections."""
    from .atiyah import index_subsets

    basis = []
    for t in range(n + 1):
        basis.append(DSection(Derivation.basis(n, t), AtiyahForm.zero(n, p)))
    for key in index_subsets(n, p):
        basis.append(
            DSection(Derivation.zero(n), AtiyahForm.basis(n, key))
        )
    return linalg.from_columns(section_coordinates(fn(e)) for e in basis)


def rescale_iso(lam, xi):
    """Rescaled subbundle plus the degree-wise multiplication isomorphism."""
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroScale("rescaling must be invertible")
    new_xi = Subbundle(
        [DSection(g.der, g.form.scale(lam)) for g in xi.generators]
    )

    def phi0(h):
        return HamiltonianForm(h.alpha.scale(lam), h.ham_der)

    def phi1(payload):
        return _scale_payload(payload, lam)

    def phi2(a, b):
        # the zero of the degree-1 space: scalars at p = 2, (p-2)-forms
        # above; at p = 1 there is no such space and the value is not read
        if xi.p == 2:
            return Scalar.zero(xi.n)
        return AtiyahForm.zero(xi.n, max(xi.p - 2, 0))

    return new_xi, LInfMorphism(phi0, phi1, phi2)


# ---------------------------------------------------------------------------
# dg Leibniz structure
# ---------------------------------------------------------------------------


def build_dg_leibniz(omega):
    """The graph's differentials plus a left-action bracket with the graded
    Leibniz rule: a degree-0 input acts by the Lie derivative along its
    Hamiltonian derivation, and an input of positive degree brackets to zero.
    """
    xi = _closed_graph(omega)
    if linalg.rank(xi._form_matrix()) != omega.n + 1:
        raise Degenerate("the contraction map must have full rank")
    graph = observable_linf(xi)
    top = graph.terms - 1

    def lie(h, b):
        return lie_derivative(h.ham_der, as_form(b))

    def act(h, k):
        return HamiltonianForm(lie(h, k.alpha), commutator(h.ham_der, k.ham_der))

    brackets = {degs: fn for degs, fn in graph.brackets.items() if len(degs) == 1}
    brackets[(0, 0)] = act
    brackets.update({(0, d): lie for d in range(1, top)})
    if top >= 1:
        # the top degree holds scalars
        brackets[(0, top)] = lambda h, s: lie(h, s).scalar()
    return LInfinityStructure(f"dg-leibniz[p={omega.degree - 1}]", graph.spaces, 2, brackets)


def _bracket(structure, *elems):
    """``l_k`` of the k inputs, where a None input is a zero."""
    if None in elems:
        return None
    return structure.l(len(elems), elems)


def derivation_residual(structure, a, b):
    """d[a, b] - [da, b] - (-1)**|a| [a, db]."""
    return _signed_sum(
        (
            (1, _bracket(structure, _bracket(structure, a, b))),
            (-1, _bracket(structure, _bracket(structure, a), b)),
            # the Koszul sign of moving the differential past a
            (1 if a.degree % 2 else -1, _bracket(structure, a, _bracket(structure, b))),
        )
    )


def leibniz_residual(structure, a, b, c):
    """[a, [b, c]] - [[a, b], c] - (-1)**(|a||b|) [b, [a, c]]."""
    return _signed_sum(
        (
            (1, _bracket(structure, a, _bracket(structure, b, c))),
            (-1, _bracket(structure, _bracket(structure, a, b), c)),
            (
                1 if a.degree * b.degree % 2 else -1,
                _bracket(structure, b, _bracket(structure, a, c)),
            ),
        )
    )
