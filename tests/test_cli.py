import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from omnilie.cli import (
    MAX_COEFF_BOUND,
    MAX_FORM_TERMS,
    MAX_N,
    MAX_SAMPLES,
    load_scenario,
    main,
)
from omnilie import serialize, suites
from omnilie.atiyah import AtiyahForm
from omnilie.errors import Degenerate, NotClosed
from omnilie.scalar import MAX_DEGREE

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, **overrides):
    scenario = {
        "n": 2,
        "suites": ["atiyah-calculus"],
        "samples": 3,
        "seed": 11,
        "max_degree": 1,
        "coeff_bound": 2,
    }
    scenario.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def test_verify_passing_scenario(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    report = tmp_path / "report.json"
    rc = main(["verify", "--scenario", str(scenario), "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS atiyah-calculus" in out
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["all_passed"] is True
    assert payload["results"][0]["suite"] == "atiyah-calculus"
    assert set(payload["results"][0]) == {"suite", "case_index", "n", "residual_is_zero"}


def test_verify_reports_are_byte_identical(tmp_path):
    scenario = write_scenario(tmp_path, suites=["lcourant-axioms", "jacobi"])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["verify", "--scenario", str(scenario), "--report", str(r1)]) == 0
    assert main(["verify", "--scenario", str(scenario), "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_sabotage_exits_one_with_witness(tmp_path):
    scenario = write_scenario(
        tmp_path, suites=["linf-oracle"], samples=2, sabotage="drop-l3"
    )
    report = tmp_path / "report.json"
    rc = main(["verify", "--scenario", str(scenario), "--report", str(report)])
    assert rc == 1
    payload = json.loads(report.read_text(encoding="utf-8"))
    failing = [e for e in payload["results"] if not e["residual_is_zero"]]
    assert failing and "witness" in failing[0]
    assert "residual" in failing[0]["witness"]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_verify_exits_two_on_an_unwritable_report(tmp_path, capsys, where):
    scenario = write_scenario(tmp_path)
    target = tmp_path / "out"
    target.mkdir()
    report = target / "missing" / "r.json" if where == "missing directory" else target
    rc = main(["verify", "--scenario", str(scenario), "--report", str(report)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("input error: report: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    # no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]
    assert list(target.iterdir()) == []


def _patch_table(monkeypatch, name, table):
    """Give a registered suite another table; its runner follows it."""
    spec = suites.SUITES[name]
    monkeypatch.setitem(suites.SUITES, name, dataclasses.replace(spec, table=table, runner=None))


def test_internal_errors_exit_three(tmp_path, capsys, monkeypatch):
    def broken(ctx):
        raise RuntimeError("a fault of the program")

    _patch_table(monkeypatch, "atiyah-calculus", broken)
    scenario = write_scenario(tmp_path)
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: a fault of the program\n"
    assert not (tmp_path / "r.json").exists()


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_verify_report_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, cpus):
    scenarios = [
        # drop-l3 fails linf-oracle, so the report holds witnesses too
        (dict(suites=["linf-oracle", "lcourant-axioms", "gauge"], sabotage="drop-l3"), 1),
        # one suite, whose cases the workers share
        (dict(suites=["lcourant-axioms"]), 0),
    ]
    for overrides, code in scenarios:
        scenario = write_scenario(tmp_path, samples=2, **overrides)
        default, pinned = tmp_path / "default.json", tmp_path / "pinned.json"
        with monkeypatch.context() as patch:
            assert main(["verify", "--scenario", str(scenario), "--report", str(default)]) == code
            _cpus(patch, cpus)
            assert main(["verify", "--scenario", str(scenario), "--report", str(pinned)]) == code
        assert pinned.read_bytes() == default.read_bytes(), overrides


WORKLOADS = SCENARIOS.parent / "perfbench" / "workloads"

# The report hashes recorded under ROADMAP "Baseline": the shipped
# scenario, its linf-oracle suite with l3 dropped, and two benchmark
# workloads at the shipped seed.  (scenario, changes, exit code, sha256)
BASELINE_REPORTS = [
    (SCENARIOS / "all-suites.json", {}, 0,
     "d58c7227de2e08ae947910f15d1d18b0be24b72444f2fb57045def4955fb5837"),
    (SCENARIOS / "all-suites.json", {"suites": ["linf-oracle"], "sabotage": "drop-l3"}, 1,
     "5834fb80400b3272ec400738b430c6ad4fcc42281034bb2ad2fe38e52c20792c"),
    (WORKLOADS / "dense-n3.json", {"seed": 20240611}, 0,
     "1d014094fa0afde18589dbdf2a270cb846bcbffd67643e1a65cd930c8d53a67f"),
    (WORKLOADS / "fraction-field.json", {"seed": 20240611}, 0,
     "8e4b44e1706aa0b6318fee047eac53907428e28feeecd3754ff27ce0ccd3501e"),
]


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_baseline_reports_reproduce_byte_for_byte(tmp_path, monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    for source, changes, code, digest in BASELINE_REPORTS:
        scenario = tmp_path / "scenario.json"
        raw = json.loads(source.read_text(encoding="utf-8"))
        scenario.write_text(json.dumps({**raw, **changes}), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["verify", "--scenario", str(scenario), "--report", str(report)]) == code
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, (source.name, changes)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_worker_exits_three_and_leaves_no_child(tmp_path, capsys, monkeypatch):
    test_pid = os.getpid()

    def killed():
        if os.getpid() == test_pid:
            raise AssertionError("the case ran in the test process")
        os.kill(os.getpid(), signal.SIGKILL)

    _patch_table(monkeypatch, "gauge", lambda ctx: [suites.Row("killed", killed)])
    _cpus(monkeypatch, 2)
    # A dead worker loses the results of every unit it ran; the error names
    # the suite of the first lost unit in scenario order, here gauge's.
    scenario = write_scenario(tmp_path, suites=["gauge", "atiyah-calculus"])
    report = tmp_path / "r.json"
    rc = main(["verify", "--scenario", str(scenario), "--report", str(report)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "internal error: RuntimeError: suite gauge: its worker process left no result\n"
    )
    assert not report.exists()
    _assert_no_child_left()


@pytest.mark.parametrize("alive", [True, False], ids=["workers alive", "workers dead"])
def test_the_unit_feed_outgrows_the_pipe(tmp_path, capsys, monkeypatch, alive):
    # 20,000 four-byte unit indices do not fit a 64 KiB pipe, so the
    # parent's writes block until the workers read, or fail once every
    # worker has died.
    count = 20_000

    def value():
        if not alive:
            os.kill(os.getpid(), signal.SIGKILL)

    _patch_table(monkeypatch, "gauge", lambda ctx: [suites.Row(f"r{k}", value) for k in range(count)])
    _cpus(monkeypatch, 2)
    scenario = write_scenario(tmp_path, suites=["gauge"])
    report = tmp_path / "r.json"
    rc = main(["verify", "--scenario", str(scenario), "--report", str(report)])
    err = capsys.readouterr().err
    if alive:
        assert rc == 0, err
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert [e["case_index"] for e in payload["results"]] == list(range(count))
    else:
        assert rc == 3
        assert err == "internal error: RuntimeError: suite gauge: its worker process left no result\n"
        assert not report.exists()
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_first_failing_suite_in_scenario_order_decides_the_error(
    tmp_path, capsys, monkeypatch, cpus
):
    def slow_first():
        time.sleep(0.3)
        raise NotClosed("the first suite's error")

    def fast_second():
        raise Degenerate("the second suite's error")

    for name, value in (("atiyah-calculus", slow_first), ("gauge", fast_second)):
        _patch_table(monkeypatch, name, lambda ctx, value=value: [suites.Row("raises", value)])
    _cpus(monkeypatch, cpus)
    scenario = write_scenario(tmp_path, suites=["atiyah-calculus", "gauge"])
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == "input error: the first suite's error\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_table_that_raises_while_built_exits_two_in_scenario_order(
    tmp_path, capsys, monkeypatch, cpus
):
    def unbuildable(ctx):
        raise Degenerate("the table's error")

    def row():
        raise NotClosed("the row's error")

    _patch_table(monkeypatch, "gauge", unbuildable)
    _patch_table(monkeypatch, "atiyah-calculus", lambda ctx: [suites.Row("raises", row)])
    _cpus(monkeypatch, cpus)
    # the first failing suite in scenario order decides the error, whether
    # its table or one of its rows raises; alone, gauge leaves no unit to run
    for names, error in (
        (["gauge"], "the table's error"),
        (["gauge", "atiyah-calculus"], "the table's error"),
        (["atiyah-calculus", "gauge"], "the row's error"),
    ):
        scenario = write_scenario(tmp_path, suites=names)
        report = tmp_path / "r.json"
        rc = main(["verify", "--scenario", str(scenario), "--report", str(report)])
        assert rc == 2, names
        assert capsys.readouterr().err == f"input error: {error}\n", names
        assert not report.exists()
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_first_failing_case_in_scenario_order_decides_the_error(
    tmp_path, capsys, monkeypatch, cpus
):
    # two cases of one suite, which two workers run side by side
    def checks(case):
        if case == 0:
            time.sleep(0.3)
            raise NotClosed("the first case's error")
        raise Degenerate("the second case's error")

    family = suites.Family("raises", 2, lambda rng, case: (case,), checks)
    _patch_table(monkeypatch, "gauge", lambda ctx: [family])
    _cpus(monkeypatch, cpus)
    scenario = write_scenario(tmp_path, suites=["gauge"])
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == "input error: the first case's error\n"


def test_verify_rejects_bad_scenarios(tmp_path, capsys):
    cases = [
        ({"suites": []}, "suites"),
        ({"suites": ["nope"]}, "nope"),
        ({"n": 0}, "n:"),
        ({"samples": 0}, "samples"),
        ({"suites": ["morphism-5-9"], "n": 1}, "morphism-5-9"),
        ({"sabotage": "zap"}, "sabotage"),
        ({"max_degree": MAX_DEGREE + 1}, f"max_degree: must be an integer in 0..{MAX_DEGREE}"),
        ({"forms": ["omega"]}, "forms: must be an object"),
        # falsy values are not objects either
        ({"forms": []}, "forms: must be an object"),
        ({"forms": 0}, "forms: must be an object"),
        ({"forms": False}, "forms: must be an object"),
        ({"forms": ""}, "forms: must be an object"),
    ]
    for overrides, needle in cases:
        scenario = write_scenario(tmp_path, **overrides)
        rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == 2, overrides
        assert needle in err


def test_verify_rejects_unknown_scenario_keys(tmp_path, capsys):
    # a misspelled key used to run its default: "sampels" ran 10 samples
    scenario = write_scenario(tmp_path, sampels=1)
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "input error: scenario: unknown key 'sampels' (known: n, suites, samples, seed,"
        " max_degree, coeff_bound, forms, sabotage)\n"
    )
    assert not (tmp_path / "r.json").exists()


def test_absent_or_null_forms_load_as_no_forms(tmp_path):
    for overrides in ({}, {"forms": None}):
        _, ctx, _ = load_scenario(write_scenario(tmp_path, **overrides))
        assert ctx.forms == {}, overrides


def test_verify_rejects_bad_forms(tmp_path, capsys):
    bad_degree = {
        "omega": {"degree": 9, "coeffs": []},
    }
    scenario = write_scenario(tmp_path, forms=bad_degree)
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "forms.omega" in capsys.readouterr().err


def test_verify_rejects_unknown_form_names(tmp_path, capsys):
    # a misspelled twist used to run the default one and pass
    omega = AtiyahForm.basis(2, (0, 1, 2)).scale(2)
    scenario = write_scenario(
        tmp_path,
        suites=["exact-curvature"],
        samples=1,
        seed=1,
        forms={"omgea": serialize.form_to_obj(omega)},
    )
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error: forms.omgea: unknown form (known: B, omega, theta)" in err
    assert not (tmp_path / "r.json").exists()


def test_verify_accepts_explicit_twist(tmp_path):
    omega = AtiyahForm.basis(2, (0, 1, 2)).scale(2)
    scenario = write_scenario(
        tmp_path,
        suites=["lcourant-axioms", "exact-curvature"],
        forms={"omega": serialize.form_to_obj(omega)},
    )
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 0


def test_verify_accepts_named_b_and_theta(tmp_path):
    from omnilie.atiyah import random_form
    import random as _random

    rng = _random.Random(0)
    theta = random_form(2, 2, rng, 1, 2)
    b_form = random_form(2, 2, rng, 1, 2)
    scenario = write_scenario(
        tmp_path,
        suites=["exact-curvature", "cohomologous-iso"],
        samples=2,
        forms={
            "theta": serialize.form_to_obj(theta),
            "B": serialize.form_to_obj(b_form),
        },
    )
    assert main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")]) == 0


def test_verify_rejects_degenerate_twist_for_graph_suites(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path,
        suites=["dg-leibniz"],
        forms={"omega": serialize.form_to_obj(AtiyahForm.zero(2, 3))},
    )
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "nondegenerate" in capsys.readouterr().err


def test_verify_text_format(tmp_path):
    scenario = write_scenario(tmp_path)
    report = tmp_path / "report.txt"
    rc = main(
        [
            "verify",
            "--scenario",
            str(scenario),
            "--report",
            str(report),
            "--format",
            "text",
        ]
    )
    assert rc == 0
    text = report.read_text(encoding="utf-8")
    assert "PASS atiyah-calculus" in text and "total:" in text


def test_demo_outputs(capsys):
    assert main(["demo", "canonical-p1"]) == 0
    out = capsys.readouterr().out
    assert "{x1, 1} = -1" in out
    assert main(["demo", "canonical-p2"]) == 0
    out = capsys.readouterr().out
    assert "kappa(2) = +1" in out and "kappa(3) = -1" in out
    assert main(["demo", "acyclicity"]) == 0
    out = capsys.readouterr().out
    assert "primitive(e(inf)) = 1" in out
    assert main(["demo", "not-a-demo"]) == 2
    assert "unknown demo" in capsys.readouterr().err


def test_primitive_command(tmp_path, capsys):
    form = {"n": 2, **serialize.form_to_obj(AtiyahForm.basis(2, (0, 1, 2)))}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form), encoding="utf-8")
    rc = main(["primitive", "--form", str(path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    got = serialize.form_from_obj(2, payload)
    assert got == AtiyahForm.basis(2, (0, 1))

    from omnilie.scalar import Scalar

    not_closed = {
        "n": 3,
        **serialize.form_to_obj(
            AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)})
        ),
    }
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps(not_closed), encoding="utf-8")
    assert main(["primitive", "--form", str(path2)]) == 2
    assert "not closed" in capsys.readouterr().err


def test_console_entry_point_subprocess(tmp_path, cli_env):
    scenario = write_scenario(tmp_path, suites=["gauge"], samples=2)
    report = tmp_path / "r.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "omnilie.cli",
            "verify",
            "--scenario",
            str(scenario),
            "--report",
            str(report),
        ],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS gauge" in proc.stdout


def test_the_cli_imports_neither_dataclasses_nor_inspect(cli_env):
    # Each would add its own imports (inspect pulls in ast, dis and
    # tokenize) to the start-up of every command.  The worker pool's
    # pickle and tempfile load only when it runs, and no pool module
    # loads at all.
    heavy = [
        "dataclasses", "inspect", "ast", "dis", "tokenize",
        "concurrent.futures", "multiprocessing", "pickle", "tempfile",
    ]
    code = f"import sys, omnilie.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=cli_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_traced_target_exists(cli_env):
    # install() rebinds functions process-wide, so it runs in a child.
    perfbench = SCENARIOS.parent / "perfbench"
    env = dict(cli_env, PYTHONPATH=os.pathsep.join([cli_env["PYTHONPATH"], str(perfbench)]))
    code = "import traced_verify as t; print(t.install(t.Tracer()))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_traced_verify_on_one_cpu_sees_every_suite(tmp_path, cli_env):
    # On one CPU the verifier calls each suite's runner in process, so the
    # runners the tracer swapped in with dataclasses.replace count every case.
    perfbench = SCENARIOS.parent / "perfbench"
    env = dict(cli_env, PYTHONPATH=os.pathsep.join([cli_env["PYTHONPATH"], str(perfbench)]))
    scenario = write_scenario(tmp_path, n=1, suites=["jacobi", "linf-oracle"], samples=1)
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    code = (
        "import os, sys, traced_verify\n"
        "os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])\n"
        "sys.exit(traced_verify.main(sys.argv[1:]))\n"
    )
    argv = [str(trace), "verify", "--scenario", str(scenario), "--report", str(report)]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(trace.read_text(encoding="utf-8"))
    assert traced["untraced"] == []
    cases = {}
    for entry in json.loads(report.read_text(encoding="utf-8"))["results"]:
        cases[entry["suite"]] = cases.get(entry["suite"], 0) + 1
    assert traced["suite_cases"] == cases == {"jacobi": 5, "linf-oracle": 13}


def test_the_readme_quick_tour_prints_what_it_shows(cli_env):
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert shown and proc.stdout.splitlines() == shown


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize(
    "command, code",
    [("verify", 0), ("verify-failing", 1), ("demo", 0), ("primitive", 0)],
)
def test_a_closed_stdout_keeps_the_exit_code(tmp_path, cli_env, command, code, buffered):
    # As in `omnilie verify ... | head -1`: the reader is gone before the
    # command writes, with stdout block-buffered (the write fails at exit)
    # or unbuffered (the write fails at once).
    if command == "verify-failing":
        scenario = write_scenario(
            tmp_path, suites=["linf-oracle"], samples=1, sabotage="drop-l3"
        )
    else:
        scenario = write_scenario(tmp_path, suites=["gauge"], samples=1)
    form = tmp_path / "form.json"
    form.write_text(
        json.dumps({"n": 2, **serialize.form_to_obj(AtiyahForm.basis(2, (0, 1, 2)))}),
        encoding="utf-8",
    )
    argv = {
        "verify": ["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r")],
        "demo": ["demo", "acyclicity"],
        "primitive": ["primitive", "--form", str(form)],
    }[command.split("-")[0]]
    env = {k: v for k, v in cli_env.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "omnilie.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_shipped_scenario_is_valid_json():
    path = SCENARIOS / "all-suites.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["suites"] == "all"
    assert payload["n"] <= 2 and payload["max_degree"] <= 2


def _form_with_scalar(value):
    return {"degree": 2, "coeffs": [{"indices": [1, 2], "value": value}]}


def _term(exps, num="1", den="1"):
    return {"num": num, "den": den, "exps": exps}


def _twist_obj(value):
    """A 3-form in two variables with one coefficient, on [1, 2, inf]."""
    return {"degree": 3, "coeffs": [{"indices": [1, 2, "inf"], "value": value}]}


# (x1 + 2)/(x2 + 3): closed (a top form) and nondegenerate
_QUOTIENT = {
    "numerator": [_term([1, 0]), _term([0, 0], num="2")],
    "denominator": [_term([0, 1]), _term([0, 0], num="3")],
}


@pytest.mark.parametrize(
    "value, code",
    [
        (_QUOTIENT, 2),
        ({"numerator": [_term([1, 0]), _term([0, 0], num="2")]}, 2),
        ({"numerator": [_term([0, 0], num="2")]}, 0),
    ],
    ids=["quotient", "polynomial", "constant"],
)
def test_morphism_5_9_needs_a_twist_with_constant_coefficients(tmp_path, capsys, value, code):
    # its injectivity certificates used to exit 3 on the first two
    scenario = write_scenario(
        tmp_path, suites=["morphism-5-9"], samples=1, forms={"omega": _twist_obj(value)}
    )
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == code, err
    if code == 2:
        assert err == (
            "input error: forms.omega: morphism-5-9 needs a twist with constant coefficients\n"
        )


MALFORMED_SCALARS = [
    ({"numerator": [_term([0, 0], den="0")]}, "zero denominator"),
    ({"numerator": [_term([0, 0])], "denominator": []}, "denominator is the zero polynomial"),
    ({"numerator": [_term([-1, 0])]}, "negative exponent"),
    ({"numerator": [_term([MAX_DEGREE + 1, 0])]}, "above the limit"),
]


@pytest.mark.parametrize("value, needle", MALFORMED_SCALARS)
def test_primitive_rejects_malformed_polynomial(tmp_path, capsys, value, needle):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, **_form_with_scalar(value)}), encoding="utf-8")
    assert main(["primitive", "--form", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error: form:" in err and needle in err


@pytest.mark.parametrize("n", [-1, 0, True, "2", 2.5, MAX_N + 1])
def test_primitive_rejects_a_bad_variable_count(tmp_path, capsys, n):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": n, "degree": 1, "coeffs": []}), encoding="utf-8")
    assert main(["primitive", "--form", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: form: n: must be an integer in 1..{MAX_N}\n"
    assert captured.out == ""


@pytest.mark.parametrize("value, needle", MALFORMED_SCALARS)
def test_verify_rejects_malformed_polynomial(tmp_path, capsys, value, needle):
    scenario = write_scenario(tmp_path, forms={"B": _form_with_scalar(value)})
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "forms.B" in err and needle in err


def test_verify_rejects_products_past_the_degree_limit(tmp_path, capsys):
    # x1^MAX_DEGREE itself is representable; multiplying it by x1 is not
    b_form = _form_with_scalar({"numerator": [_term([MAX_DEGREE, 0])]})
    scenario = write_scenario(
        tmp_path, suites=["cohomologous-iso"], samples=2, forms={"B": b_form}
    )
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "above the limit" in err
    assert "max_degree 1 and forms B" in err


def test_verify_names_max_degree_when_products_pass_the_limit(tmp_path, capsys):
    # every monomial fits the limit, but squaring one of degree 300 does not
    scenario = write_scenario(
        tmp_path, n=1, suites=["atiyah-calculus"], samples=1, max_degree=300
    )
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "max_degree 300" in err and "above the limit" in err
    assert "forms" not in err


@pytest.mark.parametrize("field", ["n", "samples", "seed", "max_degree", "coeff_bound"])
def test_verify_rejects_boolean_integers(tmp_path, capsys, field):
    # JSON true loads as a bool, which Python counts as the int 1
    scenario = write_scenario(tmp_path, **{field: True})
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert f"input error: {field}:" in capsys.readouterr().err


# A field of the twist [1, 2, inf] -> 1 that int() would truncate or
# accept, but that is neither a JSON integer nor, for num and den, a
# decimal integer string.
_NON_INTEGERS = [
    ("num", {"num": 1.5}),
    ("num", {"num": True}),
    ("num", {"num": "1.5"}),
    ("num", {"num": " 1"}),
    ("den", {"den": 2.5}),
    ("den", {"den": "x"}),
    ("exps", {"exps": [1.5, 0]}),
    ("exps", {"exps": [True, 0]}),
    ("degree", {"degree": "3"}),
    ("degree", {"degree": 3.0}),
    ("indices", {"indices": [True, 2, "inf"]}),
    ("indices", {"indices": [1.0, 2, "inf"]}),
]


def _twist_with(change):
    term = {"num": "1", "den": "1", "exps": [0, 0]}
    term.update({k: v for k, v in change.items() if k in term})
    twist = _twist_obj({"numerator": [term]})
    twist.update({k: v for k, v in change.items() if k == "degree"})
    twist["coeffs"][0].update({k: v for k, v in change.items() if k == "indices"})
    return twist


@pytest.mark.parametrize("field, change", _NON_INTEGERS)
def test_verify_rejects_non_integer_form_fields(tmp_path, capsys, field, change):
    scenario = write_scenario(tmp_path, forms={"omega": _twist_with(change)})
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"input error: forms.omega: {field}: ")


@pytest.mark.parametrize("field, change", _NON_INTEGERS)
def test_primitive_rejects_non_integer_form_fields(tmp_path, capsys, field, change):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, **_twist_with(change)}), encoding="utf-8")
    assert main(["primitive", "--form", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: form: {field}: ")
    assert captured.out == ""


def _primitive_of(tmp_path, capsys, form):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form), encoding="utf-8")
    rc = main(["primitive", "--form", str(path)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return serialize.form_from_obj(form["n"], json.loads(captured.out))


def test_integer_strings_and_integers_load_alike(tmp_path, capsys):
    a = _primitive_of(tmp_path, capsys, {"n": 2, **_twist_with({"num": "-2", "den": "3"})})
    b = _primitive_of(tmp_path, capsys, {"n": 2, **_twist_with({"num": -2, "den": 3})})
    assert a == b == AtiyahForm.basis(2, (0, 1)).scale(Fraction(-2, 3))


def test_unsorted_indices_carry_the_sign_of_their_permutation(tmp_path, capsys):
    # [2, 1, inf] -> 1 is the form -e(1,2,inf), so its primitive is -e(1,2)
    sorted_ = _primitive_of(tmp_path, capsys, {"n": 2, **_twist_with({})})
    for indices, sign in [([2, 1, "inf"], -1), (["inf", 1, 2], 1), ([1, "inf", 2], -1)]:
        form = {"n": 2, **_twist_with({"indices": indices})}
        assert _primitive_of(tmp_path, capsys, form) == sorted_.scale(sign), indices
    assert sorted_ == AtiyahForm.basis(2, (0, 1))


@pytest.mark.parametrize("command", ["verify", "primitive"])
def test_repeated_indices_exit_two(tmp_path, capsys, command):
    twist = _twist_with({"indices": [1, 1, "inf"]})
    if command == "verify":
        path = write_scenario(tmp_path, forms={"omega": twist})
        argv = ["verify", "--scenario", str(path), "--report", str(tmp_path / "r.json")]
    else:
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"n": 2, **twist}), encoding="utf-8")
        argv = ["primitive", "--form", str(path)]
    assert main(argv) == 2
    assert "indices: [1, 1, 'inf'] repeats an index" in capsys.readouterr().err


def _size_overrides(past):
    """Scenario fields at their size caps, or one past them.  The form
    counts its one coefficient, the distinct terms of the numerator and
    the one term of the default denominator."""
    terms = [_term([k % 64, k // 64]) for k in range(MAX_FORM_TERMS - 2 + past)]
    return [
        ({"n": MAX_N + past}, "n: must be an integer in 1.."),
        ({"samples": MAX_SAMPLES + past}, "samples: must be an integer in 1.."),
        ({"max_degree": MAX_DEGREE + past}, "max_degree: must be an integer in 0.."),
        (
            {"forms": {"B": _form_with_scalar({"numerator": terms})}},
            f"forms.B: {MAX_FORM_TERMS + 1} coefficients and terms, above the limit",
        ),
        ({"coeff_bound": MAX_COEFF_BOUND + past}, "coeff_bound: must be an integer in 1.."),
    ]


@pytest.mark.parametrize("overrides, needle", _size_overrides(past=1))
def test_verify_rejects_scenarios_past_the_size_caps(tmp_path, capsys, overrides, needle):
    scenario = write_scenario(tmp_path, **overrides)
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert f"input error: {needle}" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, needle", _size_overrides(past=0))
def test_scenarios_at_the_size_caps_load(tmp_path, overrides, needle):
    # loading only: running suites at the caps would take hours
    _, ctx, _ = load_scenario(write_scenario(tmp_path, **overrides))
    assert (ctx.n, ctx.samples) == (overrides.get("n", 2), overrides.get("samples", 3))


@pytest.mark.parametrize(
    "form, needle",
    [
        (
            _form_with_scalar(
                {"numerator": [_term([k % 64, k // 64]) for k in range(MAX_FORM_TERMS - 1)]}
            ),
            f"{MAX_FORM_TERMS + 1} coefficients and terms, above the limit {MAX_FORM_TERMS}",
        ),
        ({"degree": 4, "coeffs": []}, "degree 4 outside 0..3"),
    ],
    ids=["terms", "degree"],
)
def test_primitive_applies_the_scenario_form_caps(tmp_path, capsys, form, needle):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, **form}), encoding="utf-8")
    assert main(["primitive", "--form", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: form: {needle}\n"



# The exit contract: 0 pass, 1 an identity failed, 2 malformed input; 3 is
# a fault of the program.  The fuzz tests below mutate one of two small
# valid scenarios: cheap suites at n = 1, one sample, and two named
# 2-forms; or cheap graph suites at n = 2 with a quotient twist.  For
# ``omnilie primitive`` they mutate one of two closed forms.
_FUZZ_BASE = {
    "n": 1,
    "suites": ["exact-curvature", "cohomologous-iso", "jacobi"],
    "samples": 1,
    "seed": 7,
    "max_degree": 1,
    "coeff_bound": 2,
    "forms": {
        "theta": {
            "degree": 2,
            "coeffs": [{"indices": [1, "inf"], "value": {"numerator": [_term([1])]}}],
        },
        "B": {
            "degree": 2,
            "coeffs": [{"indices": [1, "inf"], "value": {"numerator": [_term([0], den="2")]}}],
        },
    },
}
_FUZZ_BASES = [
    _FUZZ_BASE,
    {
        "n": 2,
        "suites": ["dg-leibniz", "exact-curvature"],
        "samples": 1,
        "seed": 7,
        "max_degree": 1,
        "coeff_bound": 2,
        "forms": {"omega": _twist_obj(_QUOTIENT)},
    },
]

_FUZZ_FORMS = [
    {"n": 2, **_twist_obj(_QUOTIENT)},
    {
        "n": 1,
        "degree": 2,
        "coeffs": [{"indices": ["inf", 1], "value": {"numerator": [_term([1], num="-3")]}}],
    },
]

# Stands for an integer of 5000 digits, which json.dumps cannot write.
_HUGE = "__huge_integer__"

# Valid values stay cheap: the small integers are at most 3, and 9, 512
# and 1001 are past the caps of n, max_degree and samples.
_NAMES = st.sampled_from(
    ["jacobi", "exact-curvature", "cohomologous-iso", "dg-leibniz", "morphism-5-9",
     "Jacobi", "jacobi ", "", "all",
     "B", "omega", "theta", "inf", "drop-l3", "0"]
)
_LEAVES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([-1, 0, 1, 2, 3, 9, 512, 1001, -(10**30), 10**30, _HUGE]),
    _NAMES,
    st.text(max_size=4),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.5, 2.0, 1e300]),
)
_VALUES = st.one_of(
    _LEAVES,
    st.lists(_LEAVES, max_size=2),
    st.dictionaries(st.one_of(_NAMES, st.text(max_size=3)), _LEAVES, max_size=2),
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_scenarios(draw, bases=_FUZZ_BASES):
    """A base scenario (or form file) after one or two mutations: drop a
    key or item, replace a value (other types, out-of-range or huge
    integers, garbled names), or add an unknown key or item."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        if not path:
            doc = draw(_VALUES) if action == "replace" else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if action == "drop":
            del parent[path[-1]]
        elif action == "replace":
            parent[path[-1]] = draw(_VALUES)
        elif isinstance(target, dict):
            target[draw(st.text(min_size=1, max_size=3))] = draw(_VALUES)
        elif isinstance(target, list):
            target.append(draw(_VALUES))
    return doc


def _assert_exit_contract(doc, command="verify"):
    text = json.dumps(doc).replace(json.dumps(_HUGE), "9" * 5000)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = {
            "verify": ["verify", "--scenario", str(path), "--report", str(Path(tmp) / "r.json")],
            "primitive": ["primitive", "--form", str(path)],
        }[command]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    shown = out.getvalue() + err.getvalue()
    assert rc in (0, 1, 2), (rc, text, shown)
    assert "Traceback" not in shown and "internal error" not in shown, (text, shown)


def test_the_fuzzed_base_scenario_passes(tmp_path):
    scenario = tmp_path / "scenario.json"
    for base in _FUZZ_BASES:
        scenario.write_text(json.dumps(base), encoding="utf-8")
        rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
        assert rc == 0, base


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_scenarios())
# a suite name added to the quotient base: morphism-5-9 once exited 3 on it
@example(dict(_FUZZ_BASES[1], suites=["dg-leibniz", "exact-curvature", "morphism-5-9"]))
def test_mutated_scenarios_keep_the_exit_contract(doc):
    _assert_exit_contract(doc)


def test_the_fuzzed_base_forms_have_a_primitive(tmp_path, capsys):
    for base in _FUZZ_FORMS:
        _primitive_of(tmp_path, capsys, base)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_scenarios(bases=_FUZZ_FORMS))
# labels out of order, and a repeated label
@example(dict(_FUZZ_FORMS[0], coeffs=[dict(_FUZZ_FORMS[0]["coeffs"][0], indices=[2, 1, "inf"])]))
@example(dict(_FUZZ_FORMS[1], coeffs=[dict(_FUZZ_FORMS[1]["coeffs"][0], indices=[1, 1])]))
def test_mutated_form_files_keep_the_exit_contract(doc):
    _assert_exit_contract(doc, "primitive")


@pytest.mark.parametrize(
    "raw",
    [b"{\"n\": \xff}", b"{\"seed\": " + b"9" * 5000 + b"}", b"[" * 100000],
    ids=["not UTF-8", "integer past the digit limit", "nested too deeply"],
)
def test_verify_rejects_unreadable_scenario_json(tmp_path, capsys, raw):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(raw)
    rc = main(["verify", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: scenario: invalid JSON: ")
