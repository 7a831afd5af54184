"""Fixtures shared by the test files."""

import os
from pathlib import Path

import pytest

import omnilie


@pytest.fixture
def cli_env():
    """Environment for a child `python -m omnilie.cli`.

    The parent's environment with the absolute directory `omnilie` was
    imported from put first on PYTHONPATH, so the child runs the same
    source tree as the tests from any working directory, whether the
    package is installed or found through a relative `PYTHONPATH=src`.
    """
    src = str(Path(omnilie.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def count_operations(monkeypatch):
    """Start counting as the benchmark's tracer counts: multiplies,
    coefficient products and gcd calls.  Every coefficient product is
    made in the lane's accumulator `_add_products`, which receives their
    count; the products of a `sum_of_products` are no multiply.  Returns
    the live counts."""
    from omnilie import scalar

    def start():
        counts = {"poly_mul": 0, "coeff_products": 0, "gcd": 0}
        mul, add, gcd = scalar.Polynomial.__mul__, scalar._add_products, scalar.poly_gcd

        def counted_mul(a, b):
            counts["poly_mul"] += 1
            return mul(a, b)

        def counted_add(n, prods, den, top, work):
            counts["coeff_products"] += work
            return add(n, prods, den, top, work)

        def counted_gcd(f, g):
            counts["gcd"] += 1
            return gcd(f, g)

        monkeypatch.setattr(scalar.Polynomial, "__mul__", counted_mul)
        monkeypatch.setattr(scalar, "_add_products", counted_add)
        monkeypatch.setattr(scalar, "poly_gcd", counted_gcd)
        return counts

    return start
