"""The benchmark's own tests: brief runs of every workload, both modes.

Run from the repository root (it is not collected by the default test
run, since every case starts servers and measures for a second)::

    python -m pytest clientbench/selftest.py -q

Each workload runs briefly untraced and traced, and the tests check that
every metric ``BENCHMARK.json`` declares is present and finite, that every
failure is classified, and that spans nest (children inside their parents,
self time never negative).  The failure classifier is exercised with a
client that misbehaves on purpose.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Expectations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(workload: str, trace: int, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "clientbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)
    return completed


def _classified(failures) -> bool:
    return all(failure["class"].startswith(run.FAILURE_CLASSES)
               for failure in failures)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_brief_run_reports_every_declared_metric(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = last["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]), metric["name"]
    assert last["attempted"] >= 1
    result = json.loads((run.OUT / f"result-{workload}-seed{SEED}"
                                   f"-trace{trace}.json").read_text())
    assert len(result["failures"]) == last["failed"]
    assert _classified(result["failures"])
    assert last["correct"] == (last["failed"] == 0)
    if trace:
        spans = json.loads((run.OUT / f"spans-{workload}-seed{SEED}.json")
                           .read_text())["spans"]
        assert spans
        assert tracing.nesting_errors(spans) == []
        assert min(tracing.self_times(spans)) >= 0


def test_http_trace_attributes_the_wire_to_transport():
    """Client spans adopt the server's spans of the same request."""
    completed = _run("http", 1)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["serve.http.transport_ms"]["value"] > 0
    assert metrics["serve.protocol.self_ms"]["value"] > 0


class _Misbehaving:
    """Answers with each failure class in turn."""

    def __init__(self):
        self.calls = 0

    def call(self, request, rid=None):
        self.calls += 1
        if request["cmd"] == "open":
            return {"ok": True, "session": "s1"}, {}
        if self.calls == 2:
            raise ConnectionResetError("peer went away")
        if self.calls == 3:
            return {"ok": False, "error": {"code": "program_error",
                                           "message": "boom"}}, {}
        if self.calls == 4:
            return {"ok": True, "source": "(svg [])", "svg": "<svg/>"}, {}
        return {"ok": True}, {}


def test_every_failure_is_classified():
    script = [{"slot": 0, "body": {"cmd": "open", "example": "x"},
               "check": False}]
    script += [{"slot": 0, "body": {"cmd": "release"}, "check": True}] * 4
    script += [{"slot": 1, "body": {"cmd": "undo"}, "check": False}]
    expectations = Expectations()
    expectations.renders["(svg [])"] = "<svg></svg>"
    record = run.Record()
    run.replay(_Misbehaving(), script, record, expectations,
               limit=len(script))
    classes = [failure["class"] for failure in record.failures]
    assert classes == ["transport:ConnectionResetError",
                       "response:program_error", "check:mismatch",
                       "check:no_state", "dependency:no_session"]
    assert _classified(record.failures)
    assert sum(1 for sample in record.samples if not sample[2]) == 5


def test_refuses_to_run_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and the benchmark, it fails cleanly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "clientbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("drag", 0, cwd=tmp_path)
    assert completed.returncode != 0
    lines = completed.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
