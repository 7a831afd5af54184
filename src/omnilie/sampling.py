"""Seeded sampling of identities, and the verdict of one check.

Every sampled identity of the package, in the suite tables and in the
layer helpers, is a ``Family``: a case count, a draw and its checks,
where case k is drawn from its own generator, seeded by
``derive_seed(seed, tag, k)``.  A family checks its cases only when its
rows are asked for, a range of cases at a time if need be, and every
case runs through ``check_cases``: one loop over the cases, one zero
test and one witness format.  This module imports no layer of the
package, so every layer can use it.
"""

from __future__ import annotations

import hashlib
import random


class CheckResult:
    """Boolean verdict plus a printable witness for failures.  The row that
    reports it names it: a ``Row``'s label or a check's dict key."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"CheckResult({self.ok})"


def outcome(label, value, context=None):
    """The report row ``(label, ok, witness)`` of one checked value.

    A CheckResult carries its own verdict and witness.  Any other value
    is a residual: it passes when it is None or zero, and a failing
    residual's witness is ``{"residual": str(value)}`` plus the keys of
    ``context()``, which is called only then.
    """
    if isinstance(value, CheckResult):
        return label, value.ok, None if value.ok else value.witness
    if value is None or value.is_zero():
        return label, True, None
    return label, False, {**(context() if context else {}), "residual": str(value)}


def derive_seed(master, *parts):
    """A 64-bit seed from the master seed and the parts, stable across runs."""
    text = ":".join([str(master)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_cases(cases, checks, context=None, label="{name}[{case}]"):
    """Rows of every named check on every case.

    ``cases`` yields ``(case, inputs)``; ``checks(*inputs)`` maps each
    check's name to its value, and ``label`` formats the row's label
    from the two.  ``context(*inputs)`` gives the extra witness keys of a
    failing residual.
    """
    out = []
    for case, inputs in cases:
        show = (lambda inputs=inputs: context(*inputs)) if context else None
        for name, value in checks(*inputs).items():
            out.append(outcome(label.format(name=name, case=case), value, show))
    return out


class Family:
    """One seeded identity family: ``count`` cases, each drawn on its own.

    Case k draws its inputs with ``draw(rng, k)`` from
    ``random.Random(derive_seed(seed, tag, k))``, so it depends on no
    other case and any range of cases can run anywhere.
    ``checks(*inputs)`` maps each check's name to a residual or a
    CheckResult; the row label is ``label`` filled with the name and k.
    ``context(*inputs)`` adds keys to the witness of a failing residual.
    ``rows(lo, hi)`` checks cases ``lo..hi-1``; iterating a family runs
    all of it.
    """

    __slots__ = ("tag", "count", "draw", "checks", "context", "label", "seed")

    def __init__(self, tag, count, draw, checks, context=None, label="{name}[{case}]", seed=0):
        self.tag = tag
        self.count = count
        self.draw = draw
        self.checks = checks
        self.context = context
        self.label = label
        self.seed = seed

    def rows(self, lo, hi):
        cases = (
            (case, self.draw(random.Random(derive_seed(self.seed, self.tag, case)), case))
            for case in range(lo, hi)
        )
        return check_cases(cases, self.checks, self.context, self.label)

    def __iter__(self):
        return iter(self.rows(0, self.count))
