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
    coefficient products and gcd calls.  The products that
    `sum_of_products` adds up in one dict are coefficient products too,
    but no multiply.  Returns the live counts."""
    from omnilie import scalar

    def start():
        counts = {"poly_mul": 0, "coeff_products": 0, "gcd": 0}
        mul, gcd = scalar.Polynomial.__mul__, scalar.poly_gcd
        fused = scalar._polynomial_sum_of_products

        def counted_mul(a, b):
            counts["poly_mul"] += 1
            counts["coeff_products"] += len(a.terms) * len(b.terms)
            return mul(a, b)

        def counted_fused(n, terms):
            counts["coeff_products"] += sum(
                len(a.num.terms) * len(b.num.terms) for _, a, b in terms if b is not None
            )
            return fused(n, terms)

        def counted_gcd(f, g):
            counts["gcd"] += 1
            return gcd(f, g)

        monkeypatch.setattr(scalar.Polynomial, "__mul__", counted_mul)
        monkeypatch.setattr(scalar, "_polynomial_sum_of_products", counted_fused)
        monkeypatch.setattr(scalar, "poly_gcd", counted_gcd)
        return counts

    return start
