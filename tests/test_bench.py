"""``tools/bench.py`` writes every end-to-end metric of ``BENCHMARK.json``.

The writer is fed a ``run.py --trace 0`` result line as the harness prints
it; no benchmark runs here.
"""

import json
from pathlib import Path

import pytest

from tools import bench

ROOT = Path(__file__).resolve().parents[1]
# the last stdout line of ``perfbench/run.py --workload catalogue --seed 1 --seconds 2 --trace 0``
LINE = ('{"correct": true, "attempted": 1112, "failed": 0, "metrics": {'
        '"op_cpu_ms.p50": {"value": 0.6048590000000686, "unit": "ms"}, '
        '"op_cpu_ms.tail": {"value": 0.8185186499998554, "unit": "ms"}, '
        '"ops_per_cpu_s": {"value": 1627.547398915077, "unit": "1/s"}, '
        '"setup_s": {"value": 0.018597763000000003, "unit": "s"}, '
        '"peak_rss_mb": {"value": 19.2734375, "unit": "MB"}}}')


def test_the_file_names_every_end_to_end_metric(tmp_path):
    path = tmp_path / "BENCH_1.json"
    bench.write(path, {"catalogue": [LINE]}, {"commit": "0" * 40})
    written = json.loads(path.read_text(encoding="utf-8"))["workloads"]["catalogue"]
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(written["metrics"]) == names
    assert (written["runs"], written["correct"], written["attempted"]) == (1, True, 1112)
    p50 = written["metrics"]["op_cpu_ms.p50"]
    assert p50["median"] == p50["q1"] == p50["q3"] == 0.6048590000000686 and p50["runs"] == 1


def test_compare_flags_a_change_past_its_bound(tmp_path):
    slower = json.loads(LINE)
    slower["metrics"]["op_cpu_ms.p50"]["value"] *= 1.3  # bound 0.25, lower is better
    old = bench.write(tmp_path / "old.json", {"catalogue": [LINE]}, {})
    new = bench.write(tmp_path / "new.json", {"catalogue": [json.dumps(slower)]}, {})
    rows = {row.split()[1]: row for row in bench.compare(old, new)}
    assert rows["op_cpu_ms.p50"].endswith("worse past bound)")
    assert all(row.endswith("within bound)") for name, row in rows.items() if name != "op_cpu_ms.p50")


@pytest.mark.parametrize("setup_s, verdict", [
    ((0.015, 0.0186, 0.025), "unresolved, quartiles span 27%"),  # quartiles 0.0168 and 0.0218
    ((0.010, 0.0125, 0.017), "within bound"),  # 28 %, but every run below the old 0.0186
], ids=["overlapping", "every_run_better"])
def test_compare_leaves_a_spread_past_its_bound_unresolved(tmp_path, setup_s, verdict):
    runs = []
    for value in setup_s:
        run = json.loads(LINE)
        run["metrics"]["setup_s"]["value"] = value
        runs.append(json.dumps(run))
    old = bench.write(tmp_path / "old.json", {"catalogue": [LINE]}, {})
    new = bench.write(tmp_path / "new.json", {"catalogue": runs}, {})
    rows = {row.split()[1]: row for row in bench.compare(old, new)}
    assert rows["setup_s"].endswith(f"(lower is better, bound 25%: {verdict})")
    assert all(row.endswith("within bound)") for name, row in rows.items() if name != "setup_s")
