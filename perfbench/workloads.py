"""The benchmark's workloads: seeded inputs, operations and their checks.

Every workload is a closed loop of operations from one process and one
thread.  An operation is one or more ``relci`` command lines; it is run
either in process (``relci.cli.main`` with stdout captured) or as a fresh
``python -m relci.cli`` process.  Operations come in rounds, and a run
always finishes the round it is in, so the share of operations that
fail is the same in every run.

Each operation carries a check built from ``reference``.  A check
returns "ok", or "failed" when the output shows one of the two program
faults the benchmark names, and raises ``Mismatch`` on any other wrong
output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from reference import (
    Instance,
    Reference,
    alpha_rule_contradicts,
    check_cones,
    check_contact,
    check_example,
    check_invariants,
    check_oracle,
    check_sweep,
    check_verdict,
    expect,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = ROOT / "demos" / "instances"

# (rc, stdout, stderr) of one relci command line
Result = tuple[int, str, str]


@dataclass
class Op:
    """One operation: relci command lines run back to back, and their check."""

    calls: list[list[str]]
    check: Callable[[list[Result]], str]


def call_in_process(argv: list[str]) -> Result:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = sys.modules["relci.cli"].main(argv)
    except Exception:  # reported like the traceback of a cold process, exit 1
        return 1, buf.getvalue(), traceback.format_exc()
    return rc, buf.getvalue(), ""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def call_cold(argv: list[str], prefix: list[str] | None = None) -> tuple[Result, float, int]:
    """Run one relci command line in a fresh interpreter.

    Also returns the child's CPU time (s) and peak resident set (KiB),
    from its own rusage: the rusage of the children as a whole would also
    count the set-up probes.
    """
    cmd = [sys.executable, *(prefix or ["-m", "relci.cli"]), *argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(120, proc.kill)  # a hung child must not hang the run
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = (proc.returncode, out.read().decode(), err.read().decode())
        return result, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def report_of(res: Result) -> dict:
    rc, out, err = res
    expect(rc == 0, f"exit {rc}: {err.strip()[-300:]}")
    return json.loads(out)


def write_instance(path: Path, inst: Instance) -> str:
    path.write_text(json.dumps(inst.to_json()), encoding="utf-8")
    return str(path.relative_to(ROOT))


def load_demo(name: str) -> Instance:
    data = json.loads((DEMOS / name).read_text(encoding="utf-8"))
    b, ci = data["bundle"], data["ci"]
    split = tuple(b["split"]) if b.get("split") is not None else None
    hn = tuple((x["rank"], x["degree"]) for x in b["hn"]) if b.get("hn") else None
    return Instance(b["rank"], b["degree"], tuple(ci["k"]), tuple(ci["y"]),
                    b.get("base_genus", 0), hn, split)


def draw_instance(rng: random.Random, r: int, c: int, balanced: bool, kind: int) -> Instance:
    """A random instance of the given shape on which the alpha rule holds.

    Balanced draws take one k in 2..5, unbalanced ones each k_i in 2..6;
    y_i is in -5..10.  ``kind`` 0 carries split data (line degrees in
    -3..5), 1 a semistable hn profile and 2 no profile, with d in -10..30.
    About 2 % of draws (all unbalanced) hit the fault of ``asymptotic_verdict``
    (its alpha-sign label contradicts the exact eventual sign); how many
    a run meets would vary with the seed and the run's length, so those
    draws are redrawn, and every round of ``catalogue`` carries the fault
    on the fixed instances of ``FAULTY_ASYMPTOTIC`` instead.
    """
    while True:
        k = (rng.randint(2, 5),) * c if balanced else tuple(rng.randint(2, 6) for _ in range(c))
        y = tuple(rng.randint(-5, 10) for _ in range(c))
        if kind == 0:
            split = tuple(rng.randint(-3, 5) for _ in range(r))
            inst = Instance(r, sum(split), k, y, split=split)
        else:
            d = rng.randint(-10, 30)
            inst = Instance(r, d, k, y, hn=((r, d),) if kind == 1 else None)
        if not alpha_rule_contradicts(Reference(inst)):
            return inst


class Workload:
    """Base: ``prepare`` writes inputs, ``setup`` imports and warms up, ``rounds`` yields Ops.

    ``setup`` is what ``setup_s`` times: the program's import and one
    warm-up operation.  Writing inputs is the benchmark's own work, so it
    stays out of that timer.
    """

    in_process = True
    tail_pct = 90  # percentile reported as op_cpu_ms.tail
    trace_rounds = 1  # fixed work of each phase of a traced run
    rss_rounds = 1  # fixed work after which peak_rss_mb is read, in a fresh process

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        """Import relci and run the warm-up operation; returns the CPU time taken."""
        start = time.process_time()
        import relci.cli  # noqa: F401

        self.execute(self.warm_up)
        return time.process_time() - start

    def rounds(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def execute(self, op: Op) -> tuple[list[Result], float]:
        """Run an operation; its results and the CPU time it took."""
        start = time.process_time()
        results = [call_in_process(argv) for argv in op.calls]
        return results, time.process_time() - start


# ------------------------------------------------------------------ sweeps

# Ladder rungs from ROADMAP: name -> (rank, degree, k, y, split, h_max)
RUNGS = {
    "W": (4, 4, (3, 3), (1, 2), (1, 1, 1, 1), 5000),
    "M": (30, 17, tuple(range(2, 22)), tuple(range(-10, 10)), None, 400),
    "L": (80, 17, tuple(range(2, 42)), tuple(range(-20, 20)), None, 100),
}


class Sweep(Workload):
    """``relci sweep`` on the three ladder rungs in turn; one operation sweeps all three.

    The seed shuffles the order of each rung's hypersurfaces in its file.
    """

    tail_pct = 80
    trace_rounds = 3

    def prepare(self) -> None:
        self.rungs = []
        for name, (r, d, k, y, split, h_max) in RUNGS.items():
            pairs = list(zip(k, y))
            self.rng.shuffle(pairs)
            inst = Instance(r, d, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs),
                            split=split)
            path = write_instance(self.work / f"rung_{name}.json", inst)
            self.rungs.append((inst, h_max, path))
        self.op = self.warm_up = Op(
            [["sweep", "-i", path, "--h-max", str(h_max)] for _, h_max, path in self.rungs],
            self.check)
        self.checked = [""] * len(self.rungs)

    def check(self, results: list[Result]) -> str:
        for i, ((inst, h_max, _), res) in enumerate(zip(self.rungs, results)):
            if res[1] != self.checked[i]:  # a report byte-identical to a checked one is checked
                check_sweep(report_of(res), Reference(inst, h_max), h_max)
                self.checked[i] = res[1]
        return "ok"

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield [self.op]


# --------------------------------------------------------------- catalogue

# Unbalanced instances, with the twist H each is queried at, on which
# asymptotic_verdict's alpha-sign label contradicts the exact eventual
# sign: alpha = 4 with sign -1, alpha = -96 with sign +1, alpha = -200
# with sign +1.  The last two are draws of draw_instance's generator
# before the redraw.  Three in a round of 139 is near the share of such
# draws among the seeded shapes: 138 in 6800, about 2 %.
FAULTY_ASYMPTOTIC = [
    (Instance(4, 1, (2, 5), (-2, 7)), 500),
    (Instance(12, 6, (5, 3), (-4, 7), hn=((12, 6),)), 700),
    (Instance(10, 17, (6, 2, 5), (2, 7, 8), split=(3, -1, 2, 4, -1, 4, 0, -2, 3, 5)), 300),
]


# Every round of catalogue holds one instance of each shape (rank,
# codimension, balanced), so the mix of small and large instances, and
# with it the tail, is the same in every round; the seed draws the rest.
SHAPES = [(r, c, balanced) for r in range(4, 17) for c in range(1, min(6, r - 2) + 1)
          for balanced in (True, False)]


class Catalogue(Workload):
    """A seeded stream of distinct instances: ``verdict`` plus ``invariants -h H`` on each."""

    tail_pct = 95
    trace_rounds = 1
    rss_rounds = 3

    def prepare(self) -> None:
        warm = Instance(6, 5, (2, 3), (1, 1), hn=((6, 5),))
        self.warm_up = self._op(warm, 40, "warm")

    def _op(self, inst: Instance, h: int, name: str) -> Op:
        path = write_instance(self.work / f"{name}.json", inst)

        def check(results: list[Result]) -> str:
            ref = Reference(inst, h)
            check_invariants(report_of(results[1]), ref, h)
            return check_verdict(report_of(results[0]), ref)

        return Op([["verdict", "-i", path], ["invariants", "-i", path, "-h", str(h)]], check)

    def rounds(self) -> Iterator[list[Op]]:
        for n in itertools.count():
            ops = [self._op(draw_instance(self.rng, r, c, balanced, i % 3),
                            self.rng.randint(200, 1000), f"r{n}-{i}")
                   for i, (r, c, balanced) in enumerate(SHAPES)]
            yield ops + [self._op(inst, h, f"faulty{j}") for j, (inst, h) in enumerate(FAULTY_ASYMPTOTIC)]



# ---------------------------------------------------------------- cli_cold

# Malformed instance files; relci must exit 2 on each.  The three marked
# True are wrong-shaped sections that make cli._parse_instance raise
# AttributeError (exit 1 with a traceback); that fault counts as failed.
MALFORMED = {
    "not_json": ("{\"bundle\": ", False),
    "missing_ci": (json.dumps({"bundle": {"rank": 4, "degree": 4}}), False),
    "k_below_two": (json.dumps({"bundle": {"rank": 4, "degree": 4}, "ci": {"k": [1], "y": [0]}}), False),
    "bundle_list": (json.dumps({"bundle": [4, 4], "ci": {"k": [2], "y": [0]}}), True),
    "hn_pairs": (json.dumps({"bundle": {"rank": 4, "degree": 4, "hn": [[4, 4]]},
                             "ci": {"k": [2], "y": [0]}}), True),
    "ci_list": (json.dumps({"bundle": {"rank": 4, "degree": 4}, "ci": [[2], [0]]}), True),
}


def check_invalid(results: list[Result], known_fault: bool) -> str:
    rc, out, err = results[0]
    if known_fault and rc == 1 and "AttributeError" in err:
        return "failed"
    expect(rc == 2, f"malformed input gave exit {rc}, not 2: {err.strip()[-200:]}")
    expect(out == "" and "Traceback" not in err and err.startswith("relci: invalid input:"),
           "exit 2 prints one error line and no report")
    return "ok"


class CliCold(Workload):
    """One fresh ``python -m relci.cli`` process per operation, over a fixed mix."""

    in_process = False
    tail_pct = 85
    peak_kb = 0  # largest peak resident set of a relci child

    def prepare(self) -> None:
        rng = self.rng
        gen_a = draw_instance(rng, rng.randint(5, 7), rng.randint(1, 3), rng.random() < 0.5, 0)
        gen_b = draw_instance(rng, rng.randint(5, 7), rng.randint(1, 3), rng.random() < 0.5, 2)
        h_a = rng.randint(20, 200)
        path_a = write_instance(self.work / "gen_a.json", gen_a)
        path_b = write_instance(self.work / "gen_b.json", gen_b)
        demo = {name: load_demo(f"{name}.json") for name in ("worked", "unstable", "no_hn", "split210")}
        dpath = {name: str((DEMOS / f"{name}.json").relative_to(ROOT)) for name in demo}
        contact = {
            "weights": [str(rng.randint(0, 3)) for _ in range(3)] + ["1"],
            "y": {"dim": 2, "deg": rng.randint(1, 4), "e_f": f"{rng.randint(1, 30)}/{rng.randint(1, 4)}"},
            "z": {"dim": rng.randint(1, 3), "deg": rng.randint(1, 4), "e_f": str(rng.randint(0, 20))},
        }
        contact_path = self.work / "contact.json"
        contact_path.write_text(json.dumps(contact), encoding="utf-8")
        ex_r = rng.randint(3, 6)
        ex = (rng.randint(1, 3), ex_r, rng.randint(1, ex_r - 2), rng.randint(1, 3),
              rng.choice(["as-written", "swapped"]))
        svg = str((self.work / "cones.svg").relative_to(ROOT))

        def one(argv, check) -> Op:
            return Op([argv], lambda res: check(res[0]))

        def verdict(inst, path):
            return one(["verdict", "-i", path], lambda res: check_verdict(report_of(res), Reference(inst)))

        def invariants(inst, path, h):
            return one(["invariants", "-i", path, "-h", str(h)],
                       lambda res: check_invariants(report_of(res), Reference(inst, h), h))

        def sweep(inst, path, h_max):
            return one(["sweep", "-i", path, "--h-max", str(h_max)],
                       lambda res: check_sweep(report_of(res), Reference(inst, h_max), h_max))

        def cones(inst, path, c, svg_path):
            argv = ["cones", "-i", path, "-c", str(c)] + (["--svg", svg_path] if svg_path else [])

            def check(res):
                status = check_cones(report_of(res), inst, c, svg_path)
                if svg_path:
                    expect((ROOT / svg_path).read_text(encoding="utf-8").startswith("<svg"), "svg file")
                return status
            return one(argv, check)

        def oracle(inst, path, h_max):
            return one(["oracle", "-i", path, "--h-max", str(h_max)],
                       lambda res: check_oracle(report_of(res), inst, h_max))

        cpath = str(contact_path.relative_to(ROOT))
        self.mix = [
            invariants(demo["worked"], dpath["worked"], 7),
            verdict(demo["worked"], dpath["worked"]),
            verdict(demo["unstable"], dpath["unstable"]),
            verdict(demo["no_hn"], dpath["no_hn"]),
            verdict(gen_a, path_a),
            invariants(gen_a, path_a, h_a),
            sweep(demo["split210"], dpath["split210"], 40),
            sweep(gen_b, path_b, 30),
            cones(demo["split210"], dpath["split210"], 1, svg),
            cones(demo["unstable"], dpath["unstable"], 2, None),
            oracle(demo["worked"], dpath["worked"], 10),
            oracle(demo["split210"], dpath["split210"], 12),
            one(["contact", "-i", cpath], lambda res: check_contact(report_of(res), contact)),
            one(["example", "--a", str(ex[0]), "--r", str(ex[1]), "--c", str(ex[2]),
                 "--m", str(ex[3]), "--orientation", ex[4]],
                lambda res: check_example(report_of(res), *ex)),
        ]
        for name, (text, fault) in MALFORMED.items():
            path = self.work / f"bad_{name}.json"
            path.write_text(text, encoding="utf-8")
            self.mix.append(Op([["verdict", "-i", str(path.relative_to(ROOT))]],
                               lambda res, fault=fault: check_invalid(res, fault)))
        self.warm_up = self.mix[1]  # compiles bytecode, fills the page cache

    def setup(self) -> float:
        return self.execute(self.warm_up)[1]

    def execute(self, op: Op) -> tuple[list[Result], float]:
        results, cpu = [], 0.0
        for argv in op.calls:
            res, child_cpu, peak_kb = call_cold(argv)
            self.peak_kb = max(self.peak_kb, peak_kb)
            results.append(res)
            cpu += child_cpu
        return results, cpu

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield self.mix


def make(name: str, seed: int, work: Path) -> Workload:
    return {"sweep": Sweep, "catalogue": Catalogue, "cli_cold": CliCold}[name](seed, work)


WORKLOADS = ("sweep", "catalogue", "cli_cold")
