"""Smoke tests of the benchmark: every workload at tiny sizes, the tracing
wrappers and the output checks. Run with `python -m pytest perfbench`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import convact  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_every_layer_metric_has_a_prediction():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(workloads.PREDICTIONS) == {n for n in names if not n.startswith("trace.")}


def test_smoke_trace_splits_layers():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sdof_solve", "--seed", "2",
         "--seconds", "0.5", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    metrics = json.loads(proc.stdout.strip().split("\n")[-1])["metrics"]
    assert metrics["stationarity.assemble.s"]["value"] > 0
    assert metrics["stationarity.solve_stationary.s"]["value"] > 0
    assert metrics["stationarity.n_free"]["value"] == 2 * workloads.SMOKE_SIZES["sdof_solve"]["n"]
    assert metrics["grid.sample.s"]["value"] == 0


def test_wrappers_cover_every_namespace_and_undo():
    originals = {}
    for mod, attr in tracing.TRACED:
        if "." not in attr:
            originals[(mod, attr)] = getattr(getattr(convact, mod), attr)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert convact.identities.sample is convact.grid.sample
        assert convact.identities.sample is not originals[("grid", "sample")]
        assert convact.cli.assemble is convact.stationarity.assemble
        assert convact.action_value is convact.actions.action_value
        g = convact.Grid(1.0, 8)
        tracer.task = 0
        with tracer.span(tracing.TASK):
            convact.identities.ibp_residual(
                convact.IdentityKind.CONV_LEFT,
                convact.identities.sample(lambda t: t * (1 - t), g),
                convact.sample(lambda t: 1.0 + t, g),
                0.5,
            )
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(getattr(convact, mod), attr) is original
    names = [s.name for s in tracer.spans]
    assert names.count("grid.sample") == 2
    ibp = names.index("identities.ibp_residual")
    assert tracer.spans[ibp].parent == names.index(tracing.TASK)
    assert {tracer.spans[i].parent for i, n in enumerate(names) if n.startswith("fracops.")} == {ibp}


def test_self_time_subtracts_child_coverage():
    spans = [
        tracing.Span("outer", 0.0, 10.0, None, 0),
        tracing.Span("child", 1.0, 3.0, 0, 0),
        tracing.Span("child", 5.0, 6.0, 0, 0),
        tracing.Span("grandchild", 5.5, 6.0, 2, 0),
    ]
    assert tracing.self_times(spans) == [7.0, 2.0, 0.5, 0.5]
    assert tracing.layer_times(spans, [0, 1]) == {"outer": 3.5, "child": 1.25, "grandchild": 0.25}


def test_checks_catch_wrong_and_changed_output(tmp_path):
    wl = workloads.SdofSolve(1, tmp_path, smoke=True)
    out = tmp_path / "out"
    rc, extra = wl.run_task(0, out)
    assert wl.check(0, out, rc, extra).failure is None
    solved = out / "sdof_solved.csv"
    lines = solved.read_text().split("\n")
    tau, u, J = lines[5].split(",")
    lines[5] = ",".join([tau, repr(float(u) + 1.0), J])
    solved.write_text("\n".join(lines))
    assert "sup error" in wl.check(0, out, rc, extra).failure
    lines[5] = ",".join([tau, f"{float(u):.20e}", J])  # same value, other bytes
    solved.write_text("\n".join(lines))
    assert "differs" in wl.check(0, out, rc, extra).failure
    assert "exit code" in wl.check(0, out, 2, extra).failure
