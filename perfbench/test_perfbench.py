"""Tests of the benchmark itself: seeded inputs, the checks, and the metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import (  # noqa: E402
    ASYMPTOTIC_LABEL,
    Instance,
    Mismatch,
    Reference,
    check_invariants,
    check_sweep,
    check_verdict,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work(monkeypatch):
    monkeypatch.chdir(ROOT)  # instance paths in command lines are relative to the checkout
    path = ROOT / ".perfbench-out" / "pytest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def files_of(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_always_generates_the_same_inputs(name, work):
    seen = []
    for attempt in range(2):
        sub = work / f"{name}-{attempt}"
        sub.mkdir()
        wl = workloads.make(name, 11, sub)
        wl.prepare()
        first = next(iter(wl.rounds()))
        prefix = str(sub.relative_to(ROOT))
        calls = [[a.replace(prefix, "WORK") for a in argv] for op in first for argv in op.calls]
        seen.append((files_of(sub), calls))
    assert seen[0][0] and seen[0] == seen[1]
    other = work / f"{name}-other"
    other.mkdir()
    wl = workloads.make(name, 12, other)
    wl.prepare()
    next(iter(wl.rounds()))
    assert files_of(other) != seen[0][0]


def relci(argv: list[str]) -> dict:
    import relci.cli  # noqa: F401

    rc, out, err = workloads.call_in_process(argv)
    assert rc == 0, err
    return json.loads(out)


BALANCED = Instance(6, 5, (3, 3), (1, 2), hn=((6, 5),))


@pytest.fixture
def instance_file(work):
    return workloads.write_instance(work / "inst.json", BALANCED)


def test_checks_accept_the_program_output(instance_file):
    ref = Reference(BALANCED, 30)
    assert check_sweep(relci(["sweep", "-i", instance_file, "--h-max", "30"]), ref, 30) == "ok"
    assert check_invariants(relci(["invariants", "-i", instance_file, "-h", "30"]), ref, 30) == "ok"
    assert check_verdict(relci(["verdict", "-i", instance_file]), ref) == "ok"


def test_a_margin_off_by_one_is_rejected(instance_file):
    ref = Reference(BALANCED, 30)
    report = relci(["sweep", "-i", instance_file, "--h-max", "30"])
    report["result"]["margins"][20]["e_cleared"] = str(int(report["result"]["margins"][20]["e_cleared"]) + 1)
    with pytest.raises(Mismatch):
        check_sweep(report, ref, 30)
    report = relci(["invariants", "-i", instance_file, "-h", "30"])
    report["result"]["e_cleared"] = str(int(report["result"]["e_cleared"]) - 1)
    with pytest.raises(Mismatch):
        check_invariants(report, ref, 30)


@pytest.mark.parametrize("section,flipped", [
    ("small_h", "NotFPositiveSmallH"),
    ("slope", "SlopeFails"),
    ("instability", "ChowUnstableFibres"),
])
def test_a_flipped_conclusion_is_rejected(instance_file, section, flipped):
    ref = Reference(BALANCED)
    report = relci(["verdict", "-i", instance_file])
    assert report["result"][section]["conclusion"] != flipped
    report["result"][section]["conclusion"] = flipped
    with pytest.raises(Mismatch):
        check_verdict(report, ref)


@pytest.mark.parametrize("label", ["Boundary", "NotFPositiveEventually"])
def test_an_asymptotic_label_off_both_alpha_and_exact_sign_is_rejected(instance_file, label):
    ref = Reference(BALANCED)
    report = relci(["verdict", "-i", instance_file])
    assert report["result"]["asymptotic"]["conclusion"] == "StrictlyFPositiveEventually"
    report["result"]["asymptotic"]["conclusion"] = label
    with pytest.raises(Mismatch):
        check_verdict(report, ref)


@pytest.mark.parametrize("index", range(len(workloads.FAULTY_ASYMPTOTIC)))
def test_the_alpha_rule_fault_counts_as_failed_and_its_mend_passes(work, index):
    inst, _ = workloads.FAULTY_ASYMPTOTIC[index]
    ref = Reference(inst)
    report = relci(["verdict", "-i", workloads.write_instance(work / "faulty.json", inst)])
    assert check_verdict(report, ref) == "failed"
    mended = copy.deepcopy(report)
    mended["result"]["asymptotic"]["conclusion"] = ASYMPTOTIC_LABEL[ref.eventual_sign]
    assert check_verdict(mended, ref) == "ok"
    mended["result"]["asymptotic"]["conclusion"] = "Boundary"
    with pytest.raises(Mismatch):
        check_verdict(mended, ref)


def test_a_json_number_in_a_report_is_rejected(instance_file):
    report = relci(["verdict", "-i", instance_file])
    report["result"]["small_h"]["witnesses"]["alpha"] = int(report["result"]["small_h"]["witnesses"]["alpha"])
    with pytest.raises(Mismatch):
        check_verdict(report, Reference(BALANCED))


def test_exit_1_where_2_is_due_is_rejected():
    trace = "Traceback (most recent call last):\nAttributeError: 'list' object has no attribute 'get'\n"
    with pytest.raises(Mismatch):
        workloads.check_invalid([(1, "", trace)], known_fault=False)
    assert workloads.check_invalid([(1, "", trace)], known_fault=True) == "failed"
    assert workloads.check_invalid([(2, "", "relci: invalid input: bad\n")], known_fault=True) == "ok"


def test_the_seeded_stream_avoids_the_seed_dependent_fault():
    rng = random.Random(3)
    for i, shape in enumerate(workloads.SHAPES * 2):
        inst = workloads.draw_instance(rng, *shape, i % 3)
        ref = Reference(inst)
        lead = ref.eventual_sign
        alpha = ref.num.alpha
        assert not (alpha > 0 and lead <= 0) and not (alpha < 0 and lead >= 0)


def test_benchmark_json_names_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace,names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_a_short_run_emits_exactly_those_metrics(trace, names):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "catalogue", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    faulty = len(workloads.FAULTY_ASYMPTOTIC)
    assert result["correct"] is True
    assert result["failed"] * (len(workloads.SHAPES) + faulty) == result["attempted"] * faulty
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
