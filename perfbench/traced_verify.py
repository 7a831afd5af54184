"""Run ``omnilie verify`` with each layer's public functions wrapped in spans.

Usage::

    python traced_verify.py OUT.json verify --scenario S.json --report R.json

The wrappers are installed from outside the program.  The package imports
with ``from .x import y``, so each wrapped function is rebound in every
``omnilie.*`` namespace (module or class) that holds it.

Spans nest on one stack: the verifier runs its suites in one thread when
``VERIFY_THREADS`` is unset.  A span's self time is its duration minus the
durations of the spans it directly encloses.  A shipped run closes millions
of spans, so each is folded into per-name totals (calls, total seconds,
self seconds) as it closes instead of being kept.

OUT.json receives those totals, the counters below and, under
``"untraced"``, any target that no longer exists.  The exit code is the
verify command's.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time

# (span name, module, attribute path).  Several targets may share one span
# name; their calls and times are summed.
TARGETS = [
    ("scalar.poly_mul", "omnilie.scalar", "Polynomial.__mul__"),
    ("scalar.poly_add", "omnilie.scalar", "Polynomial.__add__"),
    ("scalar.normalize", "omnilie.scalar", "Scalar.__init__"),
    ("scalar.gcd", "omnilie.scalar", "poly_gcd"),
    ("gauge.commutator", "omnilie.gauge", "commutator"),
    ("atiyah.contract", "omnilie.atiyah", "contract"),
    ("atiyah.differential", "omnilie.atiyah", "differential"),
    ("atiyah.lie_derivative", "omnilie.atiyah", "lie_derivative"),
    ("atiyah.primitive", "omnilie.atiyah", "primitive"),
    ("dcourant.dorfman", "omnilie.dcourant", "dorfman"),
    ("dcourant.pairing", "omnilie.dcourant", "pairing"),
    ("observables.contains", "omnilie.observables", "Subbundle.contains"),
    ("observables.hamiltonian_derivation", "omnilie.observables", "hamiltonian_derivation"),
    ("observables.observable_bracket", "omnilie.observables", "observable_bracket"),
    ("linalg", "omnilie.linalg", "rank"),
    ("linalg", "omnilie.linalg", "solve_least"),
    ("linalg", "omnilie.linalg", "nullspace"),
    ("linalg", "omnilie.linalg", "determinant"),
    ("linalg", "omnilie.linalg", "inverse"),
    ("linf.l", "omnilie.linf", "LInfinityStructure.l"),
    ("linf.jacobi_residual", "omnilie.linf", "jacobi_residual"),
    ("linf.morphism_residuals", "omnilie.linf", "morphism_residuals"),
    ("jacobi.jacobi_bracket", "omnilie.jacobi", "jacobi_bracket"),
    ("jacobi.is_jacobi", "omnilie.jacobi", "is_jacobi"),
    ("cli.load_scenario", "omnilie.cli", "load_scenario"),
    ("cli.run_suites", "omnilie.cli", "run_suites"),
    ("cli.cmd_verify", "omnilie.cli", "cmd_verify"),
]


class Tracer:
    """Per-name span totals and the counters kept beside them."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {"coeff_products": 0, "gcd_trivial": 0}
        self.suite_cases = {}
        self._stack = []  # child seconds of each open span

    def wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count_products(self, args, result):
        a, b = args
        self.counts["coeff_products"] += len(a.terms) * len(b.terms)

    def count_trivial_gcd(self, args, result):
        if result.is_constant() and result.constant_value() == 1:
            self.counts["gcd_trivial"] += 1


def _omnilie_namespaces():
    for name, module in list(sys.modules.items()):
        if name == "omnilie" or name.startswith("omnilie."):
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value


def _rebind(orig, wrapper):
    for namespace in _omnilie_namespaces():
        for attr, value in list(vars(namespace).items()):
            if value is orig:
                setattr(namespace, attr, wrapper)


def install(tracer):
    """Wrap every target; return the targets that could not be found."""
    import omnilie  # noqa: F401  (imports every layer module)
    from omnilie import suites

    after = {
        "scalar.poly_mul": tracer.count_products,
        "scalar.gcd": tracer.count_trivial_gcd,
    }
    missing = []
    for name, module_name, path in TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        try:
            for part in owners:
                owner = getattr(owner, part)
            orig = vars(owner)[attr] if owners else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        _rebind(orig, tracer.wrap(name, orig, after.get(name)))

    # The suite table holds each runner; cli reads the same dict object.
    for suite, spec in list(suites.SUITES.items()):

        def record(args, result, suite=suite):
            tracer.suite_cases[suite] = len(result)

        runner = tracer.wrap(f"suites.{suite}", spec.runner, record)
        suites.SUITES[suite] = dataclasses.replace(spec, runner=runner)
    return missing


def main(argv):
    out_path, verify_argv = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    from omnilie import cli

    code = cli.main(verify_argv)
    payload = {
        "spans": {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in tracer.stats.items()
        },
        "counts": tracer.counts,
        "suite_cases": tracer.suite_cases,
        "untraced": missing,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
