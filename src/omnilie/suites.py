"""The registry of the verification suites: one per certified family of
identities.

Each suite is a table: a function of the context (model size, sample
count, master seed, generator bounds, optional named forms) that returns
its items in report order.  A ``sampling.Family`` is one seeded
identity family, built by the table or by a layer helper such as
``lcourant_axioms`` from the master seed and a seed tag; a ``Row`` is
one fixed check, shaped as a family of one case tagged with its label.
Building a table computes no row: ``SuiteSpec.units`` makes one unit
per case of each item, with an address (suite, tag and case range) and
a ``run()`` that returns the rows ``(label, ok, witness)`` of that
case, so one unit can run anywhere in any process.  All randomness is
derived from the master seed and the seed tags, so a rerun of the same
scenario reproduces the same report byte for byte.  Negative controls
are built in: they pass exactly when the expected failure is detected.

The tables live in three modules grouped by the layers they use:
``suites_forms`` (forms and L-Courant structures), ``suites_jacobi``
(observables and Jacobi structures) and ``suites_linf`` (L-infinity
structures and their morphisms).  This module imports none of them: a
table's module, and the layers under it, load on the table's first call.
"""

from __future__ import annotations

import types
from functools import partial

# Family and derive_seed are imported for the callers of the registry.
from .sampling import Family, derive_seed, outcome  # noqa: F401


class SuiteContext:
    __slots__ = ("n", "samples", "seed", "max_degree", "coeff_bound", "forms", "sabotage")

    def __init__(self, n, samples, seed, max_degree=2, coeff_bound=3, forms=None, sabotage=None):
        self.n = n
        self.samples = samples
        self.seed = seed
        self.max_degree = max_degree
        self.coeff_bound = coeff_bound
        self.forms = {} if forms is None else forms
        self.sabotage = sabotage


class Row:
    """One fixed row of a suite table, shaped as a family of one case whose
    tag is the row's label: ``value()`` returns its residual or
    CheckResult, and is called only when the row runs."""

    __slots__ = ("tag", "value")
    count = 1

    def __init__(self, label, value):
        self.tag = label
        self.value = value

    def rows(self, lo, hi):
        return [outcome(self.tag, self.value())] if lo <= 0 < hi else []


class Unit:
    """The unit of scheduling: the cases ``lo..hi-1`` of the family or row
    ``tag`` of a suite.  ``run()`` returns their rows."""

    __slots__ = ("suite", "tag", "lo", "hi", "run")

    def __init__(self, suite, tag, lo, hi, run):
        self.suite = suite
        self.tag = tag
        self.lo = lo
        self.hi = hi
        self.run = run


def _table(module, name):
    """The table ``name`` of the module ``omnilie.suites_<module>``, which
    its first call imports."""

    def table(ctx):
        # with a fromlist, __import__ returns the module itself
        return getattr(__import__(f"{__package__}.suites_{module}", fromlist=[name]), name)(ctx)

    return table


class SuiteSpec:
    """A registered suite.  ``omega`` says what it needs of a named twist:
    None when it never reads ``forms.omega``, "closed" when it reads it
    as its closed 3-form twist, "nondegenerate" when it also builds the
    graph's observables from it, and "constant" when it also needs the
    graph's Hamiltonian derivations to be polynomial.  ``load_scenario``
    checks a named twist against these needs before any suite runs.
    Once the suites run, the degree limit is the one input error, and any
    other exception is a fault of the program (exit 3), so a table that
    reads ``forms.omega`` must declare its need here.  ``runner(ctx)``
    returns the rows of the table, by default by running every unit of
    ``units(ctx)`` in order, in process.  The field records let
    ``dataclasses.replace`` rebuild a spec (``perfbench/traced_verify.py``
    swaps each runner so) with no import of ``dataclasses``, which would
    add ``inspect``, ``ast``, ``dis`` and ``tokenize`` to the start-up of
    every command."""

    __slots__ = ("name", "min_n", "max_n", "omega", "table", "runner")
    __dataclass_fields__ = {
        name: types.SimpleNamespace(name=name, init=True, _field_type=None) for name in __slots__
    }

    def __init__(self, name, min_n, max_n, omega, table, runner=None):
        self.name = name
        self.min_n = min_n
        self.max_n = max_n
        self.omega = omega
        self.table = table
        self.runner = runner or (
            lambda ctx: [row for unit in self.units(ctx) for row in unit.run()]
        )

    def units(self, ctx):
        """The units of the table in report order, one per case of each item."""
        return [
            Unit(self.name, item.tag, case, case + 1, partial(item.rows, case, case + 1))
            for item in self.table(ctx)
            for case in range(item.count)
        ]


SUITES = {
    spec.name: spec
    for spec in [
        SuiteSpec("atiyah-calculus", 1, None, None, _table("forms", "atiyah_calculus")),
        SuiteSpec("lcourant-axioms", 1, None, "closed", _table("forms", "lcourant_axioms_suite")),
        SuiteSpec("linf-oracle", 1, None, "closed", _table("linf", "linf_oracle")),
        SuiteSpec("semidirect-agreement", 1, None, None, _table("linf", "semidirect_agreement")),
        SuiteSpec("morphism-3-9", 1, None, None, _table("linf", "morphism_3_9")),
        SuiteSpec("morphism-5-9", 2, 2, "constant", _table("linf", "morphism_5_9")),
        SuiteSpec("cohomologous-iso", 1, None, "closed", _table("linf", "cohomologous_iso_suite")),
        SuiteSpec("exact-curvature", 1, None, "closed", _table("forms", "exact_curvature")),
        SuiteSpec("observables", 2, 2, "closed", _table("jacobi", "observables")),
        SuiteSpec("useful-lemma", 2, 2, "closed", _table("jacobi", "useful_lemma")),
        SuiteSpec("dg-leibniz", 2, 2, "nondegenerate", _table("linf", "dg_leibniz")),
        SuiteSpec("jacobi", 1, None, None, _table("jacobi", "jacobi")),
        SuiteSpec("twisted-jacobi", 1, None, None, _table("jacobi", "twisted_jacobi")),
        SuiteSpec("gauge", 1, None, None, _table("jacobi", "gauge")),
    ]
}
