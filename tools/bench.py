"""Write ``BENCH_<n>.json`` from the benchmark harness as it stands, or compare two such files.

    python3 tools/bench.py
    python3 tools/bench.py --compare OLD.json NEW.json

The first form runs ``perfbench/run.py --trace 0`` in this checkout once per
workload of ``BENCHMARK.json`` and seed of ``SEEDS``, workloads alternating
(every workload on the first seed, then every workload on the next), the
whole list ``PASSES`` times, each run as long as ``run_seconds`` of
``BENCHMARK.json``.  For every workload and end-to-end metric the file holds
each run's value, their median and quartiles and the run count, with the
commit, the interpreter and the machine.  Nothing is compiled first:
``PYTHONDONTWRITEBYTECODE`` and whether ``src/relci/__pycache__`` holds
bytecode are recorded as found, since a fresh checkout runs relci from
source.  The file is ``BENCH_<n>.json`` at the root, n the first unused
number.  It takes about 11 minutes on a 2-CPU VM.

The second form prints each metric's relative change from OLD to NEW
against the bound and better direction that ``BENCHMARK.json`` gives it,
or ``unresolved`` when the quartiles of either file span more of its
median than that bound, since a change within the noise cannot be told
from none (unless every NEW run reads better than every OLD run).  Two files taken at different times are not a paired comparison:
the machine can drift between them by more than the bounds, so a change
read this way is a lead to re-measure with the two trees' runs
alternating, not evidence.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
SEEDS = (1, 2, 3)
PASSES = 2


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def machine() -> dict:
    """The commit and the state of the interpreter and the machine that a run depends on."""
    cache = ROOT / "src" / "relci" / "__pycache__"
    return {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "relci_bytecode": cache.is_dir() and any(cache.glob("*.pyc")),
    }


def run_once(workload: str, seed: int, seconds: float) -> str:
    """The last stdout line of one ``run.py --trace 0`` run: its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def summary(lines: list[str]) -> dict:
    """Outcomes and per-metric spread of one workload's ``run.py`` result lines."""
    results = [json.loads(line) for line in lines]
    out: dict = {
        "runs": len(results),
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": {},
    }
    for name, spec in END_TO_END.items():
        values = [res["metrics"][name]["value"] for res in results]
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                     else values * 3)
        out["metrics"][name] = {"unit": spec["unit"], "median": statistics.median(values),
                                "q1": q1, "q3": q3, "runs": len(values), "values": values}
    return out


def write(path: Path, lines: dict[str, list[str]], meta: dict) -> dict:
    """Write the BENCH file for ``lines`` (workload name to result lines); returns its content."""
    bench = {**meta, "workloads": {name: summary(found) for name, found in lines.items()}}
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return bench


def spread(metric: dict) -> float:
    """The quartile spread of one metric's runs, as a share of their median."""
    return (metric["q3"] - metric["q1"]) / metric["median"] if metric["median"] else 0.0


def compare(old: dict, new: dict) -> list[str]:
    """One line per workload and metric: the change, and whether it is past its bound."""
    rows = []
    for workload, then in old["workloads"].items():
        now = new["workloads"].get(workload)
        for name, spec in END_TO_END.items():
            if now is None or name not in then["metrics"] or name not in now["metrics"]:
                rows.append(f"{workload:10} {name:16} missing")
                continue
            was, got = then["metrics"][name], now["metrics"][name]
            a, b = was["median"], got["median"]
            change = (b - a) / a if a else 0.0
            lower = spec["better"] == "lower"
            worse = change if lower else -change
            noise = max(spread(was), spread(got))
            olds, news = was["values"], got["values"]
            apart = max(news) < min(olds) if lower else min(news) > max(olds)  # every NEW run better
            if noise > spec["bound"] and not apart:
                verdict = f"unresolved, quartiles span {noise:.0%}"
            else:
                verdict = "worse past bound" if worse > spec["bound"] else "within bound"
            rows.append(f"{workload:10} {name:16} {a:12.4g} -> {b:12.4g} {change:+8.1%}  "
                        f"({spec['better']} is better, bound {spec['bound']:.0%}: {verdict})")
    return rows


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    args = parser.parse_args()
    if args.compare:
        old, new = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        print("\n".join(compare(old, new)))
        return 0
    seconds = BENCHMARK["run_seconds"]
    meta = {**machine(), "seeds": list(SEEDS), "passes": PASSES, "seconds": seconds}
    lines: dict[str, list[str]] = {name: [] for name in WORKLOADS}
    for _ in range(PASSES):
        for seed in SEEDS:
            for name in WORKLOADS:
                lines[name].append(run_once(name, seed, seconds))
                print(f"{name} seed {seed}: {lines[name][-1]}", file=sys.stderr, flush=True)
    path = next_path()
    write(path, lines, meta)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
