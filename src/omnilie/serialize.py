"""JSON-able encodings of scalars, derivations, forms, sections and subbundles.

Term coefficients travel as integer strings so arbitrary precision
survives the trip.  Output is always canonical; input tolerates
non-canonical data (repeated monomials, reducible quotients) and
normalizes on construction.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Polynomial, Scalar
from .gauge import Derivation
from .atiyah import INF, AtiyahForm
from .dcourant import DSection
from .observables import Subbundle
from .jacobi import JacobiBiderivation


def polynomial_to_obj(poly):
    terms = []
    for mono, c in sorted(poly.items()):
        terms.append(
            {
                "num": str(c.numerator),
                "den": str(c.denominator),
                "exps": list(mono),
            }
        )
    return terms


def polynomial_from_obj(n, obj):
    terms = {}
    for item in obj:
        exps = tuple(int(e) for e in item["exps"])
        if len(exps) != n:
            raise ValueError(f"term with {len(exps)} exponents in a {n}-variable model")
        den = int(item.get("den", 1))
        if den == 0:
            raise ValueError(f"term with exps {list(exps)} has a zero denominator")
        c = Fraction(int(item["num"]), den)
        terms[exps] = terms.get(exps, Fraction(0)) + c
    return Polynomial(n, terms)


def scalar_to_obj(s):
    return {
        "numerator": polynomial_to_obj(s.num),
        "denominator": polynomial_to_obj(s.den),
    }


def scalar_from_obj(n, obj):
    num = polynomial_from_obj(n, obj["numerator"])
    den = polynomial_from_obj(n, obj.get("denominator", [{"num": "1", "den": "1", "exps": [0] * n}]))
    if den.is_zero():
        raise ValueError("denominator is the zero polynomial")
    return Scalar(num, den)


def derivation_to_obj(d):
    return {
        "symbol": [scalar_to_obj(a) for a in d.symbol_coeffs],
        "endo": scalar_to_obj(d.endo),
    }


def derivation_from_obj(n, obj):
    return Derivation(
        tuple(scalar_from_obj(n, a) for a in obj["symbol"]),
        scalar_from_obj(n, obj["endo"]),
    )


def _key_to_labels(n, key):
    return [INF if t == n else t + 1 for t in key]


def _labels_to_key(n, labels):
    out = []
    for item in labels:
        if item == INF:
            out.append(n)
        else:
            idx = int(item)
            if not 1 <= idx <= n:
                raise ValueError(f"index {item} outside 1..{n}")
            out.append(idx - 1)
    return tuple(sorted(out))


def form_to_obj(form):
    return {
        "degree": form.degree,
        "coeffs": [
            {
                "indices": _key_to_labels(form.n, key),
                "value": scalar_to_obj(form.coeffs[key]),
            }
            for key in sorted(form.coeffs)
        ],
    }


def form_from_obj(n, obj):
    degree = int(obj["degree"])
    coeffs = {}
    for item in obj.get("coeffs", []):
        key = _labels_to_key(n, item["indices"])
        value = scalar_from_obj(n, item["value"])
        if key in coeffs:
            value = coeffs[key] + value
        coeffs[key] = value
    return AtiyahForm(n, degree, coeffs)


def section_to_obj(e):
    return {
        "der": derivation_to_obj(e.der),
        "form": form_to_obj(e.form),
        "p": e.p,
    }


def section_from_obj(n, obj):
    return DSection(
        derivation_from_obj(n, obj["der"]), form_from_obj(n, obj["form"])
    )


def subbundle_to_obj(xi):
    return {
        "p": xi.p,
        "generators": [section_to_obj(g) for g in xi.generators],
    }


def subbundle_from_obj(n, obj):
    return Subbundle([section_from_obj(n, g) for g in obj["generators"]])


def structure_to_obj(structure):
    """Descriptor of a bracket structure: instance name plus its twist."""
    return {
        "name": structure.name,
        "twist": None if structure.twist is None else form_to_obj(structure.twist),
    }


def structure_from_obj(n, obj):
    from .dcourant import LCourantStructure

    name = obj["name"]
    if name == "omni":
        return LCourantStructure.omni(n)
    if name == "twisted":
        return LCourantStructure.twisted(form_from_obj(n, obj["twist"]))
    raise ValueError(f"unknown structure descriptor {name!r}")


def biderivation_to_obj(J):
    return {
        "n": J.n,
        "matrix": [scalar_to_obj(v) for row in J.matrix for v in row],
    }


def biderivation_from_obj(obj):
    n = int(obj["n"])
    flat = [scalar_from_obj(n, v) for v in obj["matrix"]]
    if len(flat) != (n + 1) * (n + 1):
        raise ValueError("row-major matrix of the wrong size")
    rows = [flat[i * (n + 1) : (i + 1) * (n + 1)] for i in range(n + 1)]
    return JacobiBiderivation(n, rows)
