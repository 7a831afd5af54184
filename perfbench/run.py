"""Benchmark of ``omnilie verify`` as a user runs it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times whole ``python -m omnilie.cli verify``
processes, one at a time (a closed loop with one client), and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untimed verify and one
verify under ``traced_verify.py`` and reports the per-layer metrics and the
tracing overhead.  Every verify's report is checked; see README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("shipped", "dense-n3", "fraction-field")

# The seed of scenarios/all-suites.json, and the report hashes pinned in
# ROADMAP.md for it and for its drop-l3 sabotage on linf-oracle alone.
CANONICAL_SEED = 20240611
SHIPPED_SHA256 = "d58c7227de2e08ae947910f15d1d18b0be24b72444f2fb57045def4955fb5837"
CONTROL_SHA256 = "5834fb80400b3272ec400738b430c6ad4fcc42281034bb2ad2fe38e52c20792c"
CONTROL_CASES, CONTROL_FAILURES = 401, 13

SETUP_REPEATS = 15
# No verify may outlive this many seconds from the start of a run, so that
# a hung program still lets the run end within its time limit.
HARD_LIMIT_S = 160

# The set-up probe runs without site-packages (-S): the program needs none,
# and the site hooks of the environment add noise that is not its own.
SETUP_CODE = "import sys, omnilie; from omnilie import cli; cli.load_scenario(sys.argv[1])"

LAYER_SPANS = [
    "scalar.poly_mul",
    "scalar.poly_add",
    "scalar.normalize",
    "scalar.gcd",
    "gauge.commutator",
    "atiyah.contract",
    "atiyah.differential",
    "atiyah.lie_derivative",
    "atiyah.primitive",
    "dcourant.dorfman",
    "dcourant.pairing",
    "observables.contains",
    "observables.hamiltonian_derivation",
    "observables.observable_bracket",
    "linalg",
    "linf.l",
    "linf.jacobi_residual",
    "linf.morphism_residuals",
    "jacobi.jacobi_bracket",
    "jacobi.is_jacobi",
]


@functools.cache
def baseline():
    """Per workload: the case count of each suite, and the deterministic
    counters of a traced run at the canonical seed."""
    return json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))


def suite_names():
    return sorted(baseline()["shipped"]["suites"])


class Work:
    """Scratch directory inside the checkout, and the child's environment."""

    def __init__(self, path):
        self.path = Path(path)
        self.env = {k: v for k, v in os.environ.items() if k != "VERIFY_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self._serial = 0

    def file(self, stem):
        self._serial += 1
        return self.path / f"{self._serial:03d}-{stem}"

    def scenario(self, raw):
        path = self.file("scenario.json")
        path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        return path


def scenario_for(workload, seed):
    raw = json.loads((HERE / "workloads" / f"{workload}.json").read_text(encoding="utf-8"))
    raw["seed"] = seed
    return raw


def spawn(work, argv, limit_s):
    """Run argv to completion; return (exit code, wall s, cpu s, peak rss MB)."""
    log = work.file("log.txt")
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.STDOUT, env=work.env, cwd=work.path
        )
    timer = threading.Timer(max(limit_s, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def verify(work, scenario_path, limit_s, tracer_out=None):
    report = work.file("report.json")
    argv = [sys.executable]
    if tracer_out is None:
        argv += ["-m", "omnilie.cli"]
    else:
        argv += [str(HERE / "traced_verify.py"), str(tracer_out)]
    argv += ["verify", "--scenario", str(scenario_path), "--report", str(report)]
    code, wall, cpu, rss = spawn(work, argv, limit_s)
    return code, wall, cpu, rss, report


def read_report(path):
    try:
        data = path.read_bytes()
        return json.loads(data), hashlib.sha256(data).hexdigest()
    except (OSError, ValueError):
        return None, None


def check(workload, raw, code, report_path):
    """Cases of one verify that count as failed, and why (empty when right).

    A wrong verdict fails its case.  A crash, a wrong exit code, a report
    that disagrees with the recorded case counts, or a shipped report at
    the canonical seed that misses the pinned hash fails every case.
    """
    expected = baseline()[workload]["suites"]
    everything = sum(expected.values())
    report, digest = read_report(report_path)
    if report is None:
        return everything, f"exit {code}, no readable report"
    suites = report.get("summary", {}).get("suites", {})
    if report.get("scenario") != raw or set(suites) != set(expected):
        return everything, "report covers another scenario"
    wrong = 0
    for name, cases in expected.items():
        if suites[name].get("cases") != cases:
            return everything, f"{name}: {suites[name].get('cases')} cases, expected {cases}"
        wrong += suites[name].get("failures", 0)
    if code != (1 if wrong else 0) or report.get("all_passed") is not (wrong == 0):
        return everything, f"exit {code} with {wrong} failures"
    if workload == "shipped" and raw["seed"] == CANONICAL_SEED and digest != SHIPPED_SHA256:
        return everything, f"report sha256 {digest} differs from the pin"
    return wrong, f"{wrong} wrong verdicts" if wrong else ""


def source_key():
    digest = hashlib.sha256()
    for root in (SRC, HERE):
        for path in sorted(root.rglob("*.py")) + sorted(root.rglob("*.json")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def controls(work):
    """Untimed checks against the ROADMAP pins, run once per source tree.

    The drop-l3 sabotage must be caught (exit 1, 388/401, pinned report),
    and the shipped scenario at its own seed must reproduce its pinned
    report.  The verdict is cached in the checkout under the hash of the
    program and benchmark sources.
    """
    cache = ROOT / ".perfbench-cache" / f"controls-{source_key()}.json"
    try:
        return json.loads(cache.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pass
    problems = []
    sabotaged = dict(scenario_for("shipped", CANONICAL_SEED), suites=["linf-oracle"], sabotage="drop-l3")
    code, *_, report_path = verify(work, work.scenario(sabotaged), HARD_LIMIT_S / 2)
    report, digest = read_report(report_path)
    summary = (report or {}).get("summary", {}).get("suites", {}).get("linf-oracle", {})
    if code != 1 or summary != {"cases": CONTROL_CASES, "failures": CONTROL_FAILURES}:
        problems.append(f"drop-l3 control: exit {code}, summary {summary}")
    elif digest != CONTROL_SHA256:
        problems.append(f"drop-l3 control: report sha256 {digest} differs from the pin")
    raw = scenario_for("shipped", CANONICAL_SEED)
    code, *_, report_path = verify(work, work.scenario(raw), HARD_LIMIT_S / 2)
    failed, why = check("shipped", raw, code, report_path)
    if failed:
        problems.append(f"shipped at seed {CANONICAL_SEED}: {why}")
    verdict = {"ok": not problems, "problems": problems}
    cache.parent.mkdir(exist_ok=True)
    cache.write_text(json.dumps(verdict), encoding="utf-8")
    return verdict


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timed_run(work, workload, seed, seconds, started):
    """End-to-end metrics: setup, then verifies until the time is used."""
    raw = scenario_for(workload, seed)
    path = work.scenario(raw)
    samples = {"setup_s": [], "verify_s": [], "cpu_s": [], "peak_rss_mb": []}
    problems, attempted, failed = [], 0, 0
    for _ in range(SETUP_REPEATS):
        code, wall, *_ = spawn(work, [sys.executable, "-S", "-c", SETUP_CODE, str(path)], 30)
        if code != 0:
            problems.append(f"setup exited {code}")
            break
        samples["setup_s"].append(wall)
    begin = time.perf_counter()
    while True:
        limit = HARD_LIMIT_S - (time.perf_counter() - started)
        code, wall, cpu, rss, report = verify(work, path, limit)
        bad, why = check(workload, raw, code, report)
        attempted += sum(baseline()[workload]["suites"].values())
        failed += bad
        if why:
            problems.append(why)
        samples["verify_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        # Start another verify only if it should end within the run time.
        if time.perf_counter() - begin + statistics.median(samples["verify_s"]) > seconds:
            break
    units = {"setup_s": "s", "verify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        q1, q3 = quartiles(values)
        print(
            f"{name}: median {statistics.median(values):.6g} {units[name]}, "
            f"quartiles {q1:.6g}..{q3:.6g}, {len(values)} samples"
        )
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
    print(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} cases)")
    return metrics, attempted, failed, problems


def traced_run(work, workload, seed, started):
    """Per-layer metrics from one traced verify, and the tracing overhead."""
    raw = scenario_for(workload, seed)
    path = work.scenario(raw)
    cases = sum(baseline()[workload]["suites"].values())
    problems, failed = [], 0
    code, plain_wall, *_, report = verify(work, path, HARD_LIMIT_S / 2)
    bad, why = check(workload, raw, code, report)
    failed += bad
    problems += [why] if why else []
    trace_out = work.file("trace.json")
    limit = HARD_LIMIT_S - (time.perf_counter() - started)
    code, traced_wall, *_, report = verify(work, path, limit, tracer_out=trace_out)
    bad, why = check(workload, raw, code, report)
    failed += bad
    problems += [why] if why else []
    try:
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        problems.append("traced verify wrote no trace")
        return {}, 2 * cases, failed, problems
    if trace["untraced"]:
        problems.append(f"targets not found: {', '.join(trace['untraced'])}")
    metrics = layer_metrics(trace)
    metrics["trace.overhead"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"traced verify {traced_wall:.3f} s, untraced verify {plain_wall:.3f} s")
    return metrics, 2 * cases, failed, problems


def layer_metrics(trace):
    spans = trace["spans"]

    def span(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = {"value": span(name)["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": span(name)["self_s"], "unit": "s"}
    metrics["scalar.coeff_products"] = {"value": trace["counts"]["coeff_products"], "unit": "count"}
    gcds = span("scalar.gcd")["calls"]
    metrics["scalar.gcd.trivial_ratio"] = {
        "value": trace["counts"]["gcd_trivial"] / max(gcds, 1),
        "unit": "ratio",
    }
    for suite in suite_names():
        metrics[f"suites.{suite}.s"] = {"value": span(f"suites.{suite}")["total_s"], "unit": "s"}
        metrics[f"suites.{suite}.cases"] = {
            "value": trace["suite_cases"].get(suite, 0),
            "unit": "count",
        }
    metrics["suites.max_s"] = {
        "value": max(span(f"suites.{suite}")["total_s"] for suite in suite_names()),
        "unit": "s",
    }
    load = span("cli.load_scenario")["total_s"]
    metrics["cli.load_scenario.s"] = {"value": load, "unit": "s"}
    metrics["cli.report.s"] = {
        "value": span("cli.cmd_verify")["total_s"] - load - span("cli.run_suites")["total_s"],
        "unit": "s",
    }
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn a termination request into an exception, so that the running
    # child is killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "omnilie" / "cli.py").is_file():
        print(f"perfbench: no omnilie sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}"
    )
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Work(tmp)
        verdict = controls(work)
        if args.trace:
            result = traced_run(work, args.workload, args.seed, started)
        else:
            result = timed_run(work, args.workload, args.seed, args.seconds, started)
    metrics, attempted, failed, problems = result
    problems = verdict["problems"] + problems
    for problem in problems:
        print(f"problem: {problem}")
    correct = not problems and failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
