"""JSON-able encodings of scalars and forms, as scenario files and
``omnilie primitive`` read and write them.

Term coefficients travel as integer strings so arbitrary precision
survives the trip.  Output is always canonical; input tolerates
non-canonical data (repeated monomials, reducible quotients, index
lists in any order) and normalizes on construction.  Integers must be
JSON integers (``num`` and ``den`` may also be decimal strings): a
float, a bool or any other string is refused, never truncated.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalar import Polynomial, Scalar
from .atiyah import INF, AtiyahForm


def _integer(value, field, text=False):
    """``value`` if it is a JSON integer or, with ``text``, the value of a
    decimal integer string; anything else raises a ValueError naming
    ``field``.  JSON true/false load as bools, which Python counts as ints."""
    if text and isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{field}: expected an integer (got {value!r})")


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
        exps = tuple(_integer(e, "exps") for e in item["exps"])
        if len(exps) != n:
            raise ValueError(f"term with {len(exps)} exponents in a {n}-variable model")
        den = _integer(item.get("den", 1), "den", text=True)
        if den == 0:
            raise ValueError(f"term with exps {list(exps)} has a zero denominator")
        c = Fraction(_integer(item["num"], "num", text=True), den)
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
    """The index set of ``labels`` in increasing order, and the sign of
    the permutation that sorts them."""
    out = []
    for item in labels:
        if item == INF:
            out.append(n)
        else:
            idx = _integer(item, "indices")
            if not 1 <= idx <= n:
                raise ValueError(f"indices: {item} outside 1..{n}")
            out.append(idx - 1)
    if len(set(out)) < len(out):
        raise ValueError(f"indices: {labels} repeats an index")
    inversions = sum(a > b for i, a in enumerate(out) for b in out[i + 1 :])
    return tuple(sorted(out)), (-1) ** inversions


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
    degree = _integer(obj["degree"], "degree")
    coeffs = {}
    for item in obj.get("coeffs", []):
        key, sign = _labels_to_key(n, item["indices"])
        value = scalar_from_obj(n, item["value"])
        if sign < 0:
            value = -value
        if key in coeffs:
            value = coeffs[key] + value
        coeffs[key] = value
    return AtiyahForm(n, degree, coeffs)
