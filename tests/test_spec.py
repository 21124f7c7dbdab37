"""Reports on seeded random instances, held to the benchmark's relci-free spec.

``perfbench/reference.py`` imports no relci: it rebuilds ranks and degrees
from truncated power series, intersection numbers from the class of X in
the cycle ring, and the stable polynomial from forward differences of its
own margins, and its ``check_*`` functions hold every field of a report to
those numbers (each through ``check_envelope``, which also checks the echo,
the warnings and that every number is a string).  Here every subcommand
runs in process through ``relci.cli.main``, compact and ``--pretty``, and
each report must pass its check with ``"ok"``.  A failure names the seed,
the draw and the instance.

The instances are drawn with plain seeded ``random.Random``, in the ranges
of the benchmark's ``draw_instance``: split, one-block ``hn`` and
profile-free bundles, balanced and unbalanced data, boundary draws with
alpha = 0, and the draws whose alpha rule contradicts the exact eventual
sign, which the benchmark redraws and which are kept here.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from perfbench.reference import (
    Instance,
    Mismatch,
    Reference,
    alpha_rule_contradicts,
    check_cones,
    check_contact,
    check_example,
    check_invariants,
    check_oracle,
    check_sweep,
    check_verdict,
)
from relci.cli import main

SEED = 35


def held(argv, check, where):
    """Run ``argv`` in both layouts; each report must exit 0 and pass ``check``."""
    for layout in ([], ["--pretty"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, *layout])
        assert code == 0, f"{where}: {argv + layout} exited {code}: {err.getvalue()}"
        try:
            assert check(json.loads(out.getvalue())) == "ok", f"{where}: {argv + layout}"
        except Mismatch as exc:
            pytest.fail(f"{where}: {argv + layout}: {exc}")


def random_instance(rng):
    """A random instance, drawn like the benchmark's but never redrawn.

    Balanced data on a profile-free or one-block bundle takes the degree
    r * y_sum / (c * k), where alpha = 0, whenever that is an integer.
    """
    r = rng.randint(3, 10)
    c = rng.randint(1, r - 2)
    balanced = rng.random() < 0.5
    k = (rng.randint(2, 5),) * c if balanced else tuple(rng.randint(2, 6) for _ in range(c))
    y = tuple(rng.randint(-5, 10) for _ in range(c))
    kind = rng.choice(("split", "hn", "none"))
    if kind == "split":
        split = tuple(rng.randint(-3, 5) for _ in range(r))
        return Instance(r, sum(split), k, y, split=split)
    d = rng.randint(-10, 30)
    if balanced and r * sum(y) % (c * k[0]) == 0:
        d = r * sum(y) // (c * k[0])  # mu = y_sum / (c * k): alpha = 0
    return Instance(r, d, k, y, hn=((r, d),) if kind == "hn" else None)


def test_instance_reports(tmp_path):
    # verdict, invariants -h h and sweep --h-max h on every draw; cones on every profiled one
    rng = random.Random(SEED)
    path, svg = tmp_path / "instance.json", str(tmp_path / "cones.svg")
    seen = {"contradictions": 0, "balanced_alpha_0_ample": 0, "cones": 0}
    for i in range(300):
        inst = random_instance(rng)
        where = f"seed {SEED}, draw {i}: {inst}"
        path.write_text(json.dumps(inst.to_json()), encoding="utf-8")
        h = rng.randint(1, 60)
        ref = Reference(inst, h)
        instance = ["-i", str(path)]
        held(["verdict", *instance], lambda rep: check_verdict(rep, ref), where)
        held(["invariants", *instance, "-h", str(h)], lambda rep: check_invariants(rep, ref, h), where)
        held(["sweep", *instance, "--h-max", str(h)], lambda rep: check_sweep(rep, ref, h), where)
        if inst.blocks:
            c = rng.randint(1, inst.r - 1)
            drawn = svg if i % 10 == 0 else None
            held(["cones", *instance, "-c", str(c), *(["--svg", svg] if drawn else [])],
                 lambda rep: check_cones(rep, inst, c, drawn), where)
            seen["cones"] += 1
        seen["contradictions"] += alpha_rule_contradicts(ref)
        seen["balanced_alpha_0_ample"] += (inst.balanced and ref.num.alpha == 0
                                           and sum(inst.k) > inst.r)
    assert seen["contradictions"] >= 1 and seen["balanced_alpha_0_ample"] >= 10, seen
    assert seen["cones"] >= 150, seen


def test_oracle_reports(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "instance.json"
    for i in range(60):
        r = rng.randint(3, 6)
        c = rng.randint(1, r - 2)
        split = tuple(rng.randint(-3, 5) for _ in range(r))
        inst = Instance(r, sum(split), tuple(rng.randint(2, 6) for _ in range(c)),
                        tuple(rng.randint(-5, 10) for _ in range(c)), split=split)
        path.write_text(json.dumps(inst.to_json()), encoding="utf-8")
        h_max = rng.randint(0, 4)
        held(["oracle", "-i", str(path), "--h-max", str(h_max)],
             lambda rep: check_oracle(rep, inst, h_max), f"seed {SEED}, draw {i}: {inst}")


def test_contact_reports(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "contact.json"
    for i in range(60):
        data = {
            "weights": [str(rng.randint(0, 3)) for _ in range(3)] + ["1"],
            "y": {"dim": 2, "deg": rng.randint(1, 4),
                  "e_f": str(Fraction(rng.randint(0, 30), rng.randint(1, 4)))},
            "z": {"dim": rng.randint(1, 3), "deg": rng.randint(1, 4), "e_f": str(rng.randint(0, 20))},
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        held(["contact", "-i", str(path)], lambda rep: check_contact(rep, data),
             f"seed {SEED}, draw {i}: {data}")


def test_example_reports():
    rng = random.Random(SEED)
    for i in range(60):
        r = rng.randint(3, 6)
        flags = (rng.randint(1, 3), r, rng.randint(1, r - 2), rng.randint(1, 3),
                 rng.choice(["as-written", "swapped"]))
        argv = ["example", *(f"--{name}={value}" for name, value in zip("arcm", flags[:4])),
                "--orientation", flags[4]]
        held(argv, lambda rep: check_example(rep, *flags), f"seed {SEED}, draw {i}: {flags}")
