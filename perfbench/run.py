"""Run one workload of the relci benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  With ``--trace 0`` the workload runs
closed-loop for S seconds, in whole rounds, and the last line of stdout
is one JSON object with the end-to-end metrics.  With ``--trace 1`` a
fixed amount of work runs twice, first with every public relci function
wrapped by ``tracer.Tracer`` and then plain, and the metrics are the
per-layer counts and times (S is not used).  Every operation's output is
checked against ``reference``; the counts and times of a traced run are
also written to ``.perfbench-out/``.

Some figures come from a fresh child process that sets up and then runs
the first rounds of the workload unchecked (``--probe-rounds``): the
set-up time, the peak resident memory of in-process workloads after a
fixed amount of work, and the plain half of a traced run, so that it
starts from the same empty caches as the traced half.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median with the run's own

END_TO_END = {
    "op_cpu_ms.p50": "ms",
    "op_cpu_ms.tail": "ms",
    "ops_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COUNTED = ("exact.binom_trunc", "invariants.pushforward_rank", "invariants.pushforward_degree",
           "invariants.positivity_margin", "verdicts.stable_margin_poly", "exact.interpolate",
           "exact.signed_subset_tables")
TIMED = ("invariants.pushforward_rank", "invariants.pushforward_degree",
         "verdicts.stable_margin_poly", "exact.interpolate", "exact.signed_subset_tables",
         "verdicts.small_h_verdict", "verdicts.asymptotic_verdict", "verdicts.slope_verdict",
         "verdicts.instability_verdict", "invariants.canonical_margin", "bundles.classify",
         "bundles.virtual_slopes", "oracles.sym_degree_bruteforce",
         "oracles.koszul_degree_bruteforce", "oracles.hilbert_series_rank", "oracles.chow_expand")
SELF_TIMED = ("invariants.positivity_margin", "verdicts.stable_margin_poly", "verdicts.h_sweep",
              "cli.main")
PER_LAYER = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.ms": "ms" for name in TIMED},
    **{f"{name}.self_ms": "ms" for name in SELF_TIMED},
    "invariants.binomials_per_margin": "count",
    "invariants.koszul.repeat_calls": "count",
    "cli.report_bytes": "bytes",
    "cli.import_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tally:
    """Per-operation times and outcomes of one phase."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report_bytes = 0


def run_rounds(wl, rounds, tally: Tally, *, seconds=None, tracer=None, snaps=None, between=None):
    """Run whole rounds until ``seconds`` have passed or the rounds run out.

    ``between(elapsed)`` runs after each round; its own time does not count
    towards ``seconds``.
    """
    from workloads import call_cold

    start = perf_counter()
    paused = 0.0
    for ops in rounds:
        for op in ops:
            if tracer is not None:
                tracer.begin_operation()
            if snaps is None:
                results, cpu = wl.execute(op)
            else:  # traced cold process: the child writes its counts to a file
                snap_file = wl.work / "child-trace.json"
                argv, = op.calls  # a cold operation is one command line
                res, cpu, _ = call_cold(argv, [str(HERE / "traced_cli.py"), str(snap_file)])
                results = [res]
                snaps.append(json.loads(snap_file.read_text(encoding="utf-8")))
            tally.samples.append(cpu)
            tally.attempted += 1
            tally.report_bytes += sum(len(out.encode()) for _, out, _ in results)
            try:
                if op.check(results) == "failed":
                    tally.failed += 1
            except Exception as exc:  # any exception in a check means the output was wrong
                tally.errors.append(f"{op.calls[0]}: {type(exc).__name__}: {exc}")
        if between is not None:
            t0 = perf_counter()
            between(t0 - start - paused)
            paused += perf_counter() - t0
        if seconds is not None and perf_counter() - start - paused >= seconds:
            break
    return tally


def probe(args, rounds: int) -> dict:
    """Set up a fresh process, then run the first ``rounds`` rounds unchecked.

    Returns ``setup_s``, ``cpu_s`` (the rounds' operations) and
    ``maxrss_kb`` (the child's peak resident set).
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-rounds", str(rounds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_probe(wl, rounds: int, setup_s: float) -> dict:
    """The child's side of ``probe``."""
    cpu = sum(wl.execute(op)[1] for ops in itertools.islice(wl.rounds(), rounds) for op in ops)
    return {"setup_s": setup_s, "cpu_s": cpu,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def import_ms() -> float:
    """Cumulative import time of relci.cli in a fresh interpreter (-X importtime), median of 3."""
    from workloads import child_env

    vals = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import relci.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "relci.cli":
                vals.append(int(parts[1]) / 1e3)
    return statistics.median(vals)


def layer_metrics(snap: dict, tally: Tally, overhead_ms: float) -> dict:
    calls, ms, self_ms = snap["calls"], snap["ms"], snap["self_ms"]
    values = {f"{n}.calls": calls.get(n, 0) for n in COUNTED}
    values.update({f"{n}.ms": ms.get(n, 0.0) for n in TIMED})
    values.update({f"{n}.self_ms": self_ms.get(n, 0.0) for n in SELF_TIMED})
    margins = calls.get("invariants.positivity_margin", 0)
    values["invariants.binomials_per_margin"] = (
        calls.get("exact.binom_trunc", 0) / margins if margins else 0.0)
    values["invariants.koszul.repeat_calls"] = snap["repeat_calls"]
    values["cli.report_bytes"] = tally.report_bytes
    values["cli.import_ms"] = import_ms()
    values["trace.overhead_ms"] = overhead_ms
    return values


def end_to_end(wl, args, setup_s: float) -> tuple[Tally, dict]:
    """Closed loop for ``args.seconds``; the end-to-end metrics."""
    # Set-up probes are spread over the run, so that they do not all land
    # in one of the spells in which this machine runs slower.  The first
    # also reads the peak memory of an in-process workload after a fixed
    # amount of work, without the checks' own allocations.
    setups = [setup_s]
    peaks = []

    def probe_when_due(elapsed: float) -> None:
        if len(setups) <= SETUP_PROBES and elapsed >= len(setups) * args.seconds / (SETUP_PROBES + 1):
            got = probe(args, 0 if peaks or not wl.in_process else wl.rss_rounds)
            setups.append(got["setup_s"])
            peaks.append(got["maxrss_kb"])

    tally = run_rounds(wl, wl.rounds(), Tally(), seconds=args.seconds, between=probe_when_due)
    while len(setups) <= SETUP_PROBES:
        probe_when_due(args.seconds)
    peak_kb = peaks[0] if wl.in_process else wl.peak_kb
    samples = tally.samples
    return tally, {
        "op_cpu_ms.p50": statistics.median(samples) * 1e3,
        "op_cpu_ms.tail": statistics.quantiles(samples, n=100, method="inclusive")[wl.tail_pct - 1] * 1e3,
        "ops_per_cpu_s": len(samples) / sum(samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }


def traced(wl, args) -> tuple[Tally, dict]:
    """The same fixed work twice, traced here and plain in a fresh process; the per-layer metrics."""
    from tracer import Tracer, merge

    fixed = list(itertools.islice(wl.rounds(), wl.trace_rounds))
    tally = Tally()
    if wl.in_process:
        tracer = Tracer()
        tracer.install()
        try:
            run_rounds(wl, fixed, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
    else:
        snaps: list[dict] = []
        run_rounds(wl, fixed, tally, snaps=snaps)
        snap = merge(snaps)
    plain_s = probe(args, wl.trace_rounds)["cpu_s"]
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(snap, indent=1, sort_keys=True), encoding="utf-8")
    return tally, layer_metrics(snap, tally, (sum(tally.samples) - plain_s) * 1e3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "relci" / "__init__.py").is_file() or not (ROOT / "demos" / "instances").is_dir():
        print(f"perfbench: no relci source tree under {ROOT}", file=sys.stderr)
        return 1
    os.chdir(ROOT)  # instance paths in command lines are relative to the checkout
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 1
    probing = args.probe_rounds is not None
    mode = "probe" if probing else f"trace{args.trace}"
    work = OUT / f"{args.workload}-seed{args.seed}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, work)
        wl.prepare()
        setup_s = wl.setup()
        if probing:
            print(json.dumps(run_probe(wl, args.probe_rounds, setup_s)))
            return 0
        if args.trace:
            tally, values = traced(wl, args)
        else:
            tally, values = end_to_end(wl, args, setup_s)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in tally.errors[:20]:
        print(f"perfbench: wrong output: {err}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
