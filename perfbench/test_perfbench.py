"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from ssetkit import cli  # noqa: E402
from ssetkit.reporting import Report  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_benchmark(trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", "certify", "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = _run_benchmark(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name in want:
        assert name in proc.stdout.split(proc.stdout.strip().splitlines()[-1])[0]
    assert "fail_ratio" in proc.stdout


def test_no_result_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def canary(tmp_path_factory):
    """The small every-layer jobs of seed 0, with their input directory."""
    out = tmp_path_factory.mktemp("inputs")
    built = jobs.build("certify", 0, str(out), os.path.join(ROOT, "fixtures"))
    chosen = [j for j in built if j["id"].startswith("canary:")]
    return chosen, str(out)


def _traced_pass(chosen, inputs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = [run.run_job(cli, run.resolve(j["argv"], inputs)) for j in chosen]
    finally:
        tracer.uninstall()
    return dict(tracer.counters), len(tracer.start), [o.key() for o in outcomes]


def test_counters_repeat_exactly_and_tracing_changes_no_report(canary):
    chosen, inputs = canary
    first = _traced_pass(chosen, inputs)
    second = _traced_pass(chosen, inputs)
    assert first == second
    counters = first[0]
    for name in ("linalg.elim_calls", "homology.chain_complex_calls", "kan.horns",
                 "forms.pullback_calls", "subdivision.chain_terms", "io_text.input_bytes"):
        assert counters[name] > 0, name
    untraced = [run.run_job(cli, run.resolve(j["argv"], inputs)).key() for j in chosen]
    assert untraced == first[2]
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.layer[:] = ["cli", "linalg", "linalg", "reporting"]
    t.name[:] = ["main", "rank", "rref", "Report.render"]
    t.start[:] = [0.0, 1.0, 1.5, 5.0]
    t.end[:] = [10.0, 4.0, 3.5, 6.0]
    t.parent[:] = [-1, 0, 1, 0]
    t.job[:] = [0, 0, 0, 0]
    self_ms = t.layer_self_ms()
    assert self_ms["cli"] == pytest.approx(6000.0)
    assert self_ms["linalg"] == pytest.approx(3000.0)
    assert self_ms["reporting"] == pytest.approx(1000.0)
    assert t.inclusive_ms("rref", "linalg") == 0.0
    assert t.inclusive_ms("rank", "linalg") == pytest.approx(3000.0)


def test_reference_check_rejects_a_wrong_answer(canary):
    chosen, inputs = canary
    job = next(j for j in chosen if j["id"] == "canary:homology")
    outcome = run.run_job(cli, run.resolve(job["argv"], inputs))
    assert references.check(job["expect"], outcome.code, outcome.stdout, None) == []
    wrong = outcome.stdout.replace("record betti exact : (1, 1, 0)", "record betti exact : (1, 2, 0)")
    assert wrong != outcome.stdout
    assert references.check(job["expect"], outcome.code, wrong, None)
    assert references.check(job["expect"], 1, outcome.stdout, None)


def test_horn_witness_check():
    text = ("sset 1\ncap 2\ndim 0\na\nb\nc\ndim 1\nab | faces b a\nbc | faces c b\n"
            "ac | faces c a\ndim 2\n")
    assert references.horn_witness_problem("{faces=(bc, None, ab), k=1, n=2}", text) is None
    filled = text + "abc | faces bc ac ab\n"
    assert "filler" in references.horn_witness_problem("{faces=(bc, None, ab), k=1, n=2}", filled)
    assert "incompatible" in references.horn_witness_problem("{faces=(ab, None, ab), k=1, n=2}", text)


def test_poincare_check_rejects_a_degenerate_pairing():
    records = {"unit": "(1)", "cup.H0[0].H0[0]": "(1)", "cup.H0[0].H1[0]": "(1, 0)",
               "cup.H0[0].H1[1]": "(0, 1)", "cup.H0[0].H2[0]": "(1)",
               "cup.H1[0].H1[0]": "(0)", "cup.H1[0].H1[1]": "(-1)",
               "cup.H1[1].H1[0]": "(1)", "cup.H1[1].H1[1]": "(0)"}
    assert references._poincare(records, None, [1, 2, 1], 2) is None
    assert references._unit_law(records, None, [1, 2, 1]) is None
    records["cup.H1[0].H1[1]"] = records["cup.H1[1].H1[0]"] = "(0)"
    assert references._poincare(records, None, [1, 2, 1], 2) is not None


def test_a_raising_job_counts_as_failed():
    class RaisingCli:
        @staticmethod
        def main(argv):
            return int("not a number")

    verifier = run.Verifier([{"id": "mutated:0", "expect": {"exit_in": [0, 1, 2]}},
                             {"id": "ok", "expect": {"exit": 0}}], None)
    outcome = run.run_job(RaisingCli, ["homology", "x.sset"])
    assert outcome.error.startswith("ValueError")
    verifier.record(0, outcome)
    verifier.record(0, run.Outcome(2, "", 0.0, None))
    verifier.record(1, run.Outcome(0, "", 0.0, None))
    assert (verifier.attempted, verifier.failed, verifier.wrong) == (3, 1, 0)
    verifier.record(1, outcome)
    assert (verifier.failed, verifier.wrong) == (2, 1)


def test_benchmark_workloads_have_no_mutated_inputs(tmp_path):
    fixtures = os.path.join(ROOT, "fixtures")
    for workload in (w["name"] for w in SPEC["workloads"]):
        out = tmp_path / workload
        out.mkdir()
        built = jobs.build(workload, 5, str(out), fixtures)
        assert not [j for j in built if "exit_in" in j["expect"]], workload
    out = tmp_path / "mutated"
    out.mkdir()
    built = jobs.build("mutated", 5, str(out), fixtures)
    assert sum(1 for j in built if j["id"].startswith("mutated:")) == jobs.MUTATED_JOBS


def test_calibration_scales_by_the_reference_chunk():
    assert run.reference_chunk() == run.reference_chunk()
    verifier = run.Verifier([{"id": "x", "expect": {"exit": 0}}] * 2, None)

    class SlowCli:
        @staticmethod
        def main(argv):
            run.reference_chunk()
            return 0

    seconds, outcomes, chunks = run.run_pass(SlowCli, [["a"], ["b"]], verifier, calibrate=True)
    assert seconds == sum(o.seconds for o in outcomes) > 0
    assert len(chunks) == 3 and min(chunks) > 0
    assert verifier.failed == 0
    # A job that is one reference chunk takes about the nominal time once calibrated.
    for ms in run.calibrated_ms(outcomes, chunks):
        assert ms == pytest.approx(run.REFERENCE_NOMINAL_S * 1000.0, rel=0.5)
    assert run.calibrated_ms(outcomes[:1], [0.001, 0.003]) == [
        pytest.approx(outcomes[0].seconds * 1000.0 * run.REFERENCE_NOMINAL_S / 0.002)]
    assert run.run_pass(SlowCli, [["a"]], verifier)[2] == []


def test_set_up_is_scaled_by_the_reference_processes(tmp_path, monkeypatch):
    times = iter([0.1, 0.3, 0.3])     # reference before, set-up, reference after
    monkeypatch.setattr(run, "_run_child", lambda cmd: next(times))
    monkeypatch.setattr(run, "_inputs_digest", lambda path: "same")
    args = run.parse_args(["--workload", "certify", "--seed", "1"])
    calibrated, wall = run.timed_set_up(args, str(tmp_path), "same")
    assert wall == 0.3
    assert calibrated == pytest.approx(0.3 * run.REFERENCE_PROCESS_NOMINAL_S / 0.2)


def test_report_digest_matches_report_digest():
    report = Report(command="homology x.sset")
    report.add_input("x.sset", b"sset 1\n")
    report.add("betti", (1, 0))
    report.timing_ms = 17
    assert references.report_digest(report.render()) == report.digest()


def test_inputs_depend_on_the_seed_alone(tmp_path):
    fixtures = os.path.join(ROOT, "fixtures")
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = jobs.build("derham", 3, str(a), fixtures)
    assert jobs.build("derham", 3, str(b), fixtures) == first
    assert run._inputs_digest(str(a)) == run._inputs_digest(str(b))
    assert jobs.build("derham", 4, str(c), fixtures) != first


def test_timed_set_up_writes_the_same_inputs_without_the_oracle(tmp_path):
    args = run.parse_args(["--workload", "derham", "--seed", "3"])
    built, inputs, digest = run.set_up(args, str(tmp_path))
    calibrated, wall = run.timed_set_up(args, str(tmp_path), digest)
    assert calibrated > 0 and wall > 0
    assert sorted(os.listdir(tmp_path)) == ["inputs"]
    with pytest.raises(RuntimeError):
        run.timed_set_up(args, str(tmp_path), "another digest")
    again = tmp_path / "again"
    again.mkdir()
    assert built == jobs.build("derham", 3, str(again), os.path.join(ROOT, "fixtures"))


def test_closed_forms():
    assert references.nerve_homology(3, 3) == ([1, 0, 0, 6], [[], [3], [], []])
    assert references.sphere_product_betti((1, 2), 3) == [1, 1, 1, 1]
    assert references.projection_lifting_problems(2, 2) == 54
    betti, torsion = references.complex_homology(
        references.closure([[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                            [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]), 2)
    assert (betti, torsion) == ([1, 0, 0], [[], [2], []])
