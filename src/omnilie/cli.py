"""Batch verification harness.

Subcommands:

* ``verify --scenario <path> [--report <path>] [--format json|text]``
  runs the named suites against a scenario file and writes a
  deterministic report; exit code 0 when every residual is zero, 1 on
  any identity failure, 2 on malformed input or an unwritable report.
* ``demo <name>`` prints a fixed walkthrough.
* ``primitive --form <path>`` reads a serialized closed form and prints
  a primitive for it.

A command reports malformed input by raising ``InputError``, which
``main`` alone turns into one ``input error:`` line and exit 2.
``load_scenario`` decides malformed input, the twist each suite declares
it needs (``SuiteSpec.omega``) included, before any suite runs.  While
they run, the degree limit is the one input error; any other exception
is a fault of the program, exit 3 with one ``internal error:`` line, so
a table that reads ``forms.omega`` must declare its need.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only what a scenario without forms needs is imported here.  Forms, the
# twist checks, the demos and ``primitive`` import their layers where
# they use them, and each suite's table imports its own on first call.
from .errors import DegreeOverflow, NotClosed
from .scalar import MAX_DEGREE
from .suites import SUITES, SuiteContext


# Size caps of a scenario, far above the shipped and benchmark scenarios
# (n <= 3, samples <= 32, coeff_bound <= 3, small forms).  The suites'
# cost grows with the digits of the drawn coefficients: at 10**6 it is
# that of coeff_bound 3, while 10**1000 makes linf-oracle 20 times slower.
MAX_N = 8
MAX_SAMPLES = 1000
MAX_COEFF_BOUND = 10**6
MAX_FORM_TERMS = 4096

# The forms a scenario may name: the twist ``omega`` of the suites whose
# table reads it, ``B`` of cohomologous-iso and ``theta`` of
# exact-curvature.  Any other name is a typo that would silently run the
# default form, so it is rejected.
FORM_NAMES = ("B", "omega", "theta")

# The top-level keys of a scenario.  Any other key is a typo, such as
# "sampels", that would silently run a default, so it is rejected too.
SCENARIO_KEYS = (
    "n", "suites", "samples", "seed", "max_degree", "coeff_bound", "forms", "sabotage"
)


class InputError(ValueError):
    """Malformed input: a scenario, form file, demo name or report path.
    The message names the offending field."""


def _require(condition, message):
    if not condition:
        raise InputError(message)


def _is_int(value):
    # JSON true/false load as bools, and bool is a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def load_form(n, obj):
    """The form that ``obj`` encodes over n variables, as scenarios and
    ``omnilie primitive`` read it.  A malformed form, one past
    MAX_FORM_TERMS coefficients and terms, or one of a degree outside
    0..n+1 raises InputError; the caller names the field."""
    from . import serialize

    try:
        form = serialize.form_from_obj(n, obj)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InputError(exc) from exc
    terms = len(form.coeffs) + sum(
        len(v.num.terms) + len(v.den.terms) for v in form.coeffs.values()
    )
    _require(
        terms <= MAX_FORM_TERMS,
        f"{terms} coefficients and terms, above the limit {MAX_FORM_TERMS}",
    )
    _require(0 <= form.degree <= n + 1, f"degree {form.degree} outside 0..{n + 1}")
    return form


def _check_twist(n, omega, suites, needs):
    """Raise InputError unless ``omega`` is a twist fit for the suites,
    whose ``SuiteSpec.omega`` needs are ``needs``.  The closedness and
    rank checks multiply its coefficients, so they may raise
    DegreeOverflow."""
    from .atiyah import differential

    _require(
        omega.degree == 3, f"forms.omega: the twist must have degree 3 (got {omega.degree})"
    )
    _require(differential(omega).is_zero(), "forms.omega: the twist must be closed")
    if needs & {"nondegenerate", "constant"}:
        from . import linalg
        from .observables import graph_of_form

        _require(
            linalg.rank(graph_of_form(omega)._form_matrix()) == n + 1,
            "forms.omega: the twist must be nondegenerate for the graph suites",
        )
    if "constant" in needs:
        # The injectivity certificates read monomial coefficients of the
        # graph's Hamiltonian derivations.  At n = 2 the twist has one
        # coefficient c, and those derivations are polynomial exactly
        # when c is a constant.
        constant = all(c.is_polynomial() and c.num.is_constant() for c in omega.coeffs.values())
        names = ", ".join(name for name in suites if SUITES[name].omega == "constant")
        _require(constant, f"forms.omega: {names} needs a twist with constant coefficients")


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"scenario: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad syntax or encoding, an integer past the digit limit, deep nesting
        raise InputError(f"scenario: invalid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "scenario: top level must be an object")
    for key in raw:
        _require(
            key in SCENARIO_KEYS,
            f"scenario: unknown key {key!r} (known: {', '.join(SCENARIO_KEYS)})",
        )

    n = raw.get("n")
    _require(_is_int(n) and 1 <= n <= MAX_N, f"n: must be an integer in 1..{MAX_N}")
    suites = raw.get("suites")
    if suites == "all":
        suites = list(SUITES)
    _require(
        isinstance(suites, list) and suites, "suites: must be a non-empty list"
    )
    for name in suites:
        _require(isinstance(name, str) and name in SUITES, f"suites: unknown suite {name!r}")
        spec = SUITES[name]
        _require(
            n >= spec.min_n,
            f"suites: {name} needs n >= {spec.min_n} (got {n})",
        )
        if spec.max_n is not None:
            _require(
                n <= spec.max_n,
                f"suites: {name} needs n <= {spec.max_n} (got {n})",
            )
    samples = raw.get("samples", 10)
    _require(
        _is_int(samples) and 1 <= samples <= MAX_SAMPLES,
        f"samples: must be an integer in 1..{MAX_SAMPLES}",
    )
    seed = raw.get("seed", 0)
    _require(_is_int(seed), "seed: must be an integer")
    max_degree = raw.get("max_degree", 2)
    _require(
        _is_int(max_degree) and 0 <= max_degree <= MAX_DEGREE,
        f"max_degree: must be an integer in 0..{MAX_DEGREE}",
    )
    coeff_bound = raw.get("coeff_bound", 3)
    _require(
        _is_int(coeff_bound) and 1 <= coeff_bound <= MAX_COEFF_BOUND,
        f"coeff_bound: must be an integer in 1..{MAX_COEFF_BOUND}",
    )
    sabotage = raw.get("sabotage")
    _require(
        sabotage in (None, "drop-l3"),
        "sabotage: only 'drop-l3' is recognized",
    )

    raw_forms = raw.get("forms")
    if raw_forms is None:
        raw_forms = {}
    _require(isinstance(raw_forms, dict), "forms: must be an object")
    forms = {}
    for name, obj in raw_forms.items():
        _require(
            name in FORM_NAMES,
            f"forms.{name}: unknown form (known: {', '.join(FORM_NAMES)})",
        )
        try:
            forms[name] = load_form(n, obj)
        except InputError as exc:
            raise InputError(f"forms.{name}: {exc}") from exc
    needs = {SUITES[name].omega for name in suites} - {None}
    if "omega" in forms and needs:
        try:
            _check_twist(n, forms["omega"], suites, needs)
        except DegreeOverflow as exc:
            raise InputError(f"forms.omega: {exc}") from exc
    for name, degree in (("B", 2), ("theta", 2)):
        if name in forms:
            _require(
                forms[name].degree == degree,
                f"forms.{name}: expected degree {degree} (got {forms[name].degree})",
            )

    ctx = SuiteContext(
        n=n,
        samples=samples,
        seed=seed,
        max_degree=max_degree,
        coeff_bound=coeff_bound,
        forms=forms,
        sabotage=sabotage,
    )
    return suites, ctx, raw


def _suite_entries(name, rows, n):
    """The report entries of one suite's rows, numbered from 0."""
    entries = []
    for index, (label, ok, witness) in enumerate(rows):
        entry = {
            "suite": name,
            "case_index": index,
            "n": n,
            "residual_is_zero": bool(ok),
        }
        if not ok:
            entry["witness"] = {"label": label, **(witness or {})}
        entries.append(entry)
    return entries


def run_suites(suite_names, ctx):
    """Execute the suites, returning report entries in scenario order.

    On one CPU each suite's runner runs in process.  Otherwise the parent
    builds every suite's units (``SuiteSpec.units``), and keeps the
    exception of a table that raises while it is built on that suite's
    span.  One forked worker per CPU, and no more than there are units,
    takes the next unit index in scenario order from a pipe and sends
    its results back as one pickle.  The parent reaps every worker, then
    merges the spans in scenario order: it raises a span's table
    exception, or the exception of the first unit that raised, or names
    the suite of the first unit that no worker finished.  So the report,
    the exit code and the error line do not depend on the worker count.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus == 1:
        return [
            entry
            for name in suite_names
            for entry in _suite_entries(name, SUITES[name].runner(ctx), ctx.n)
        ]
    units, spans = [], []
    for name in suite_names:
        start, error = len(units), None
        try:
            units += SUITES[name].units(ctx)
        except Exception as exc:
            error = exc
        spans.append((name, start, len(units), error))
    results = _run_pool(units, min(cpus, len(units)))
    entries = []
    for name, start, end, error in spans:
        if error is not None:
            raise error
        rows = []
        for index in range(start, end):
            if index not in results:
                raise RuntimeError(f"suite {name}: its worker process left no result")
            ok, value = results[index]
            if not ok:
                raise value
            rows += value
        entries += _suite_entries(name, rows, ctx.n)
    return entries


def _run_pool(units, workers):
    """Run the units in forked workers; map each finished unit's index to
    ``(True, rows)`` or ``(False, exception)``.  Each worker sends its
    results through a pipe of its own as one pickle, the last thing it
    writes, which the parent reads before it reaps the workers."""
    import pickle

    parent = os.getpid()
    tasks, feed = os.pipe()
    pids, outs, results = [], [], {}
    try:
        for _ in range(workers):
            out, result = os.pipe()
            outs.append(out)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(tasks, units, result, parent, [feed, *outs])
            finally:
                # Every later worker would inherit this write end, and the
                # parent would never read EOF from this worker's pipe.
                os.close(result)
            pids.append(pid)
        os.close(tasks)
        tasks = None
        try:
            for index in range(len(units)):
                # one write per index, so no read takes part of one; a
                # full pipe blocks until a worker reads
                os.write(feed, index.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # every worker has gone: the merge names the first lost unit
        os.close(feed)
        feed = None
        while outs:
            with open(outs.pop(), "rb") as stream:
                try:
                    results.update(pickle.load(stream))
                except (EOFError, pickle.UnpicklingError):
                    pass  # an empty or cut stream: its worker process left no result
    finally:
        for fd in (tasks, feed, *outs):
            if fd is not None:
                os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return results


def _worker(tasks, units, result, parent, others):
    """Body of a forked worker; it never returns.  It closes ``others``,
    the pipe ends that only the parent may hold, and when the feed ends
    writes the results of all its units to its ``result`` pipe as one
    pickle.  A worker whose parent has gone takes no further unit."""
    import pickle

    code = 1
    try:
        for fd in others:
            os.close(fd)
        results = {}
        while os.getppid() == parent:
            record = os.read(tasks, 4)
            if not record:
                break
            index = int.from_bytes(record, "little")
            try:
                results[index] = (True, units[index].run())
            except Exception as exc:
                results[index] = (False, exc)
        with open(result, "wb") as handle:
            pickle.dump(results, handle)
        code = 0
    finally:
        os._exit(code)


def render_report(entries, scenario_raw):
    suites_summary = {}
    for entry in entries:
        bucket = suites_summary.setdefault(
            entry["suite"], {"cases": 0, "failures": 0}
        )
        bucket["cases"] += 1
        if not entry["residual_is_zero"]:
            bucket["failures"] += 1
    failures = sum(1 for e in entries if not e["residual_is_zero"])
    return {
        "scenario": scenario_raw,
        "results": entries,
        "summary": {
            "total_cases": len(entries),
            "failures": failures,
            "suites": suites_summary,
        },
        "all_passed": failures == 0,
    }


def report_text(report):
    lines = []
    for suite, bucket in sorted(report["summary"]["suites"].items()):
        status = "PASS" if bucket["failures"] == 0 else "FAIL"
        lines.append(
            f"{status} {suite}: {bucket['cases'] - bucket['failures']}/{bucket['cases']} cases"
        )
    for entry in report["results"]:
        if not entry["residual_is_zero"]:
            witness = entry.get("witness", {})
            lines.append(
                f"  failure {entry['suite']}[{entry['case_index']}] "
                f"{witness.get('label', '')}: {json.dumps(witness, sort_keys=True)}"
            )
    lines.append(
        f"total: {report['summary']['total_cases']} cases, "
        f"{report['summary']['failures']} failures"
    )
    return "\n".join(lines) + "\n"


def _degree_limit_message(ctx, exc):
    """Name the scenario fields whose polynomials outgrew the degree limit."""
    fields = f"max_degree {ctx.max_degree}"
    if ctx.forms:
        fields += " and forms " + ", ".join(sorted(ctx.forms))
    return f"{fields}: the suites' polynomials pass the degree limit ({exc})"


def _write_atomically(path, payload):
    """Write to a temporary file beside path, then rename it into place,
    so a reader never sees a partial report."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_stdout(text):
    """Write and flush; once the reader has closed the pipe, stdout goes to
    os.devnull, so no write or flush at exit can change the exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_verify(args):
    suite_names, ctx, raw = load_scenario(args.scenario)
    try:
        entries = run_suites(suite_names, ctx)
    except DegreeOverflow as exc:
        raise InputError(_degree_limit_message(ctx, exc)) from exc
    report = render_report(entries, raw)
    if args.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        payload = report_text(report)
    try:
        _write_atomically(args.report, payload)
    except OSError as exc:
        raise InputError(f"report: cannot write {args.report}: {exc.strerror or exc}") from exc
    _write_stdout(f"{report_text(report)}report written to {args.report}\n")
    return 0 if report["all_passed"] else 1


def _demo_canonical_p1():
    from .atiyah import AtiyahForm
    from .jacobi import JacobiBiderivation, jacobi_bracket
    from .scalar import Scalar

    lines = ["order-1 canonical bracket, one variable"]
    omega = AtiyahForm.basis(1, (0, 1))
    J = JacobiBiderivation.from_closed_form(omega)
    x = Scalar.variable(1, 1)
    one = Scalar.one(1)
    table = [("x1", x), ("1", one), ("x1^2", x * x)]
    for name_a, a in table:
        for name_b, b in table:
            lines.append(f"{{{name_a}, {name_b}}} = {jacobi_bracket(J, a, b)}")
    return "\n".join(lines)


def _demo_canonical_p2():
    from .atiyah import AtiyahForm
    from .linf import GradedElement, build_graph_linf, kappa
    from .observables import graph_of_form, hamiltonian_form
    from .scalar import Scalar

    lines = ["order-2 graph observables, two variables"]
    for k in (2, 3, 4, 5):
        lines.append(f"kappa({k}) = {kappa(k):+d}")
    omega = AtiyahForm.basis(2, (0, 1, 2))
    structure = build_graph_linf(omega)
    xi = graph_of_form(omega)
    x2 = Scalar.variable(2, 2)
    a = hamiltonian_form(AtiyahForm(2, 1, {(0,): x2}), xi)
    b = hamiltonian_form(AtiyahForm.basis(2, (2,)), xi)
    lines.append(f"hamiltonian derivation of {a.alpha}: {a.ham_der}")
    value = structure.l(2, [GradedElement(0, a), GradedElement(0, b)])
    lines.append(f"l2 of the two sample forms: {value.payload.alpha}")
    return "\n".join(lines)


def _demo_acyclicity():
    from .atiyah import AtiyahForm, primitive

    lines = ["contracting homotopy in one variable"]
    einf = AtiyahForm.basis(1, (1,))
    lines.append(f"primitive(e(inf)) = {primitive(einf)}")
    top = AtiyahForm.basis(2, (0, 1, 2))
    lines.append(f"primitive(e(1,2,inf)) = {primitive(top)}")
    return "\n".join(lines)


DEMOS = {
    "canonical-p1": _demo_canonical_p1,
    "canonical-p2": _demo_canonical_p2,
    "acyclicity": _demo_acyclicity,
}


def cmd_demo(args):
    _require(args.name in DEMOS, f"unknown demo {args.name!r}; choose from {sorted(DEMOS)}")
    _write_stdout(DEMOS[args.name]() + "\n")
    return 0


def cmd_primitive(args):
    from . import serialize
    from .atiyah import primitive

    try:
        with open(args.form, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        n = raw["n"]
        _require(_is_int(n) and 1 <= n <= MAX_N, f"n: must be an integer in 1..{MAX_N}")
        form = load_form(n, raw)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise InputError(f"form: {exc}") from exc
    _require(form.degree >= 1, "form: degree must be at least 1")
    try:
        result = primitive(form)
    except NotClosed as exc:
        raise InputError("form: not closed, no primitive exists") from exc
    except DegreeOverflow as exc:
        # the closedness check multiplies the form's coefficients
        raise InputError(f"form: {exc}") from exc
    payload = {"n": n, **serialize.form_to_obj(result)}
    _write_stdout(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="omnilie",
        description="exact identity verification for line-bundle derivation calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run scenario suites")
    verify.add_argument("--scenario", required=True, help="scenario JSON path")
    verify.add_argument(
        "--report", default="verify-report.json", help="report output path"
    )
    verify.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    verify.set_defaults(func=cmd_verify)

    demo = sub.add_parser("demo", help="print a fixed walkthrough")
    demo.add_argument("name", help="demo name")
    demo.set_defaults(func=cmd_demo)

    prim = sub.add_parser("primitive", help="primitive of a closed form")
    prim.add_argument("--form", required=True, help="serialized form JSON path")
    prim.set_defaults(func=cmd_primitive)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, never a verdict on the identities
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
