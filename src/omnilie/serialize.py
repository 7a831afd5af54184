"""JSON-able encodings of scalars and forms, as scenario files and
``omnilie primitive`` read and write them.

Term coefficients travel as integer strings so arbitrary precision
survives the trip.  Output is always canonical; input tolerates
non-canonical data (repeated monomials, reducible quotients) and
normalizes on construction.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Polynomial, Scalar
from .atiyah import INF, AtiyahForm


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
