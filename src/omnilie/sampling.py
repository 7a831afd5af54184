"""Seeded sampling of identities, and the verdict of one check.

Every sampled identity of the package, in the suites and in the layer
helpers, runs through ``check_cases``: one loop over the cases, one zero
test and one witness format.  This module imports no layer of the
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


def sample(samples, seed, draw, checks, context=None):
    """``check_cases`` of ``samples`` cases drawn in turn from one stream.

    ``draw(rng)`` returns one case's inputs from ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    return check_cases(((case, draw(rng)) for case in range(samples)), checks, context)
