"""Seeded sampling of identities, and the verdict of one check.

Every sampled identity of the package, in the suites and in the layer
helpers, runs through ``check_cases``: one loop over the cases, one zero
test and one witness format.  The layer helpers return a ``Stream``,
which checks its cases only when its rows are asked for, a range of
cases at a time if need be.  This module imports no layer of the
package, so every layer can use it.
"""

from __future__ import annotations

import random


class CheckResult:
    """Boolean verdict plus a printable witness for failures."""

    __slots__ = ("ok", "label", "witness")

    def __init__(self, ok, label, witness=None):
        self.ok = ok
        self.label = label
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"CheckResult({self.ok}, {self.label!r})"


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


class Stream:
    """``check_cases`` of ``count`` cases drawn in turn from one stream,
    deferred until its rows are asked for.

    ``draw(rng)`` returns one case's inputs from ``random.Random(seed)``,
    so case k depends on the draws of cases 0..k-1.  ``rows(lo, hi)``
    draws cases up to ``lo`` without checking them and checks cases
    ``lo..hi-1`` only.  The stream keeps its generator after a range, so
    ranges taken in increasing order draw every case once.  ``tag`` names
    the stream in a case address, and ``label`` formats its row labels
    as in ``check_cases``.  Iterating a stream runs all of it.
    """

    def __init__(self, count, seed, draw, checks, context=None, tag=None, label="{name}[{case}]"):
        self.count = count
        self.seed = seed
        self.draw = draw
        self.checks = checks
        self.context = context
        self.tag = tag
        self.label = label
        self._cursor = None  # (generator, next case) after the last range

    def tagged(self, tag, prefix=""):
        """The same stream with address tag ``tag`` and ``prefix`` before its labels."""
        return Stream(
            self.count, self.seed, self.draw, self.checks, self.context, tag, prefix + self.label
        )

    def rows(self, lo=0, hi=None):
        hi = self.count if hi is None else hi
        cursor, self._cursor = self._cursor, None
        rng, case = cursor if cursor and cursor[1] <= lo else (random.Random(self.seed), 0)
        for _ in range(case, lo):
            self.draw(rng)
        cases = ((case, self.draw(rng)) for case in range(lo, hi))
        rows = check_cases(cases, self.checks, self.context, self.label)
        # kept only when no draw or check raised in between two cases
        self._cursor = (rng, hi)
        return rows

    def __iter__(self):
        return iter(self.rows())


def sample(samples, seed, draw, checks, context=None):
    """The deferred ``Stream`` of ``samples`` cases drawn from ``random.Random(seed)``."""
    return Stream(samples, seed, draw, checks, context)
