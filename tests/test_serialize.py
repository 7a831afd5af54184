import random

import pytest

from omnilie import serialize
from omnilie.atiyah import AtiyahForm, random_form
from omnilie.scalar import Scalar, random_polynomial


def test_scalar_round_trip():
    rng = random.Random(1)
    for _ in range(10):
        a = random_polynomial(2, rng, 2, 3)
        b = random_polynomial(2, rng, 2, 3)
        if b.is_zero():
            continue
        s = a / b
        assert serialize.scalar_from_obj(2, serialize.scalar_to_obj(s)) == s


def test_scalar_tolerates_noncanonical_input():
    # x^2/x arrives unreduced with a repeated monomial and normalizes to x
    obj = {
        "numerator": [
            {"num": "1", "den": "1", "exps": [2]},
            {"num": "0", "den": "1", "exps": [0]},
        ],
        "denominator": [
            {"num": "2", "den": "2", "exps": [1]},
        ],
    }
    x = Scalar.variable(1, 1)
    assert serialize.scalar_from_obj(1, obj) == x


def test_scalar_arbitrary_precision():
    big = 10**40 + 7
    obj = {
        "numerator": [{"num": str(big), "den": "1", "exps": [0, 0]}],
        "denominator": [{"num": "1", "den": "1", "exps": [0, 0]}],
    }
    s = serialize.scalar_from_obj(2, obj)
    assert s == Scalar.from_fraction(2, big)
    back = serialize.scalar_to_obj(s)
    assert back["numerator"][0]["num"] == str(big)


def test_form_round_trip_and_inf_marker():
    rng = random.Random(2)
    for degree in range(0, 4):
        form = random_form(2, degree, rng, 2, 2)
        obj = serialize.form_to_obj(form)
        assert serialize.form_from_obj(2, obj) == form
    top = AtiyahForm.basis(2, (0, 1, 2))
    obj = serialize.form_to_obj(top)
    assert obj["coeffs"][0]["indices"] == [1, 2, "inf"]


def test_form_rejects_bad_indices():
    with pytest.raises(ValueError):
        serialize.form_from_obj(
            2, {"degree": 1, "coeffs": [{"indices": [5], "value": {"numerator": [], "denominator": [{"num": "1", "den": "1", "exps": [0, 0]}]}}]}
        )
