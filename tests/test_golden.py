"""Golden reports: stdout, stderr and exit code of ``relci.cli.main`` per case.

The cases cover every demo instance under every subcommand, plus inline
instances that reach each per-instance decision the reports depend on
(effectivity warnings, bridge membership without a Harder-Narasimhan
profile, the balanced canonical gate, the instability excess, eventual
signs that disagree with alpha, and under ``verdict`` alone a zero stable
polynomial with a negative alpha), the ``example`` family in both
orientations, and split lists that do not fit the rest of the bundle
(exit 2, each message naming the first inconsistency in file order),
``sweep`` on the three benchmark ladder rungs (and in the indented
layout on ``worked.json`` and rung W), ``verdict``, ``sweep --h-max 10000``
and ``invariants -h 10000`` on the four rank-200 corners at the documented
limits, ``oracle`` on ``worked.json`` at the largest ``--h-max`` within its
work bound, and ``cones --svg`` on some demo instances.  A ladder or corner
report is pinned by the byte length and sha256 of its stdout, since rung W's
runs to 276 KB and the corners' to 11.1 MB, and that same stdout is held to
the relci-free spec of ``perfbench/reference.py`` first, so that a failure
tells numbers that are wrong from bytes that moved; a ``--svg`` case by
the byte length and sha256 of the drawing it writes, in place of its
stdout, which names the drawing's path.  ``--help`` is left out:
argparse wraps it to the terminal.

Regenerate the expected file only after a deliberate report change,
either every case or only the cases named by their ids::

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py "worked.json verdict" "ladder_M sweep --h-max 400"

Naming cases leaves every other entry byte-unchanged; an unknown id is
an error and writes nothing.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from conftest import CORNERS  # as a plain module, so that the file also runs as a script
from relci.cli import main

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "demos" / "instances"
GOLDEN = Path(__file__).with_name("golden_reports.json")


def _instance(rank, degree, k, y, *, split=None, hn=None, base_genus=None):
    bundle = {"rank": rank, "degree": degree}
    if base_genus is not None:
        bundle["base_genus"] = base_genus
    if split is not None:
        bundle["split"] = list(split)
    if hn is not None:
        bundle["hn"] = [{"rank": r, "degree": d} for r, d in hn]
    return {"bundle": bundle, "ci": {"k": list(k), "y": list(y)}}


INLINE = {
    # y/k above the top slope 2: the effectivity warning; y/k equal to it: none
    "hyper_warn": _instance(3, 3, [2], [5], split=[2, 1, 0]),
    "hyper_at_mu1": _instance(3, 3, [2], [4], split=[2, 1, 0]),
    "codim2_warn_first": _instance(4, 4, [2, 3], [5, 1], hn=[(2, 4), (2, 0)]),
    # no profile: bridge membership Inside, Boundary and Outside
    "nohn_alpha_pos": _instance(5, 7, [2, 2], [1, 1]),
    "nohn_alpha_zero": _instance(4, 4, [2, 2], [2, 2]),
    "nohn_alpha_neg": _instance(5, 0, [2, 3], [3, 3]),
    # balanced with c*k above, below and at the rank, each with the excess
    "balanced_ck_gt_r": _instance(5, 0, [3, 3], [2, 2]),
    "balanced_ck_lt_r": _instance(6, 0, [2, 2], [3, 3]),
    "balanced_ck_eq_r": _instance(4, 0, [2, 2], [1, 1], hn=[(4, 0)]),
    # unbalanced with the excess: c*k[0] above the rank, and only k_sum above it
    "unbalanced_k0_big": _instance(4, 0, [5, 2], [3, 3], hn=[(4, 0)]),
    "unbalanced_k0_small": _instance(5, 0, [2, 6], [3, 3]),
    # eventual signs that the classical alpha rule gets wrong or that need care
    "eventual_r4": _instance(4, 1, [2, 5], [-2, 7]),
    "eventual_r12": _instance(12, 6, [5, 3], [-4, 7]),
    "split_r10": _instance(10, 17, [6, 2, 5], [2, 7, 8], split=[3, -1, 2, 4, -1, 4, 0, -2, 3, 5]),
}

# verdict only: alpha < 0 and a zero stable polynomial, margins -12, 0, 36, then 0 from h = 4 on
ZERO_POLY = ("zero_poly_alpha_neg verdict", ["verdict"], _instance(5, -16, [2, 3, 4], [-5, -12, -12]))

# exit 2: the split's length and sum are compared with rank and degree
# before the bundle's own checks (rank >= 2, genus >= 0) run
INVALID_SPLITS = {
    "split_shorter_than_rank": _instance(4, 5, [3], [1], split=[5]),
    "split_sum_not_degree": _instance(4, 5, [3], [1], split=[1, 1, 1, 1]),
    "split_wrong_length_negative_genus": _instance(4, 3, [3], [1], split=[1, 1, 1], base_genus=-1),
    "split_disagrees_with_hn": _instance(4, 4, [3], [1], split=[1, 1, 1, 1], hn=[(2, 4), (2, 0)]),
    "split_empty": _instance(4, 0, [3], [1], split=[]),
}

# the ladder of perfbench/workloads.py, hypersurfaces in their unshuffled order
LADDER = {
    "W": (_instance(4, 4, [3, 3], [1, 2], split=[1, 1, 1, 1]), 5000),
    "M": (_instance(30, 17, range(2, 22), range(-10, 10)), 400),
    "L": (_instance(80, 17, range(2, 42), range(-20, 20)), 100),
}

# reports pinned by the byte length and sha256 of their stdout
DIGESTED = ("ladder_", "corner_")

# (demo instance, codimension) drawn by ``cones --svg``
SVGS = [("split210.json", 1), ("split210.json", 2), ("unstable.json", 2), ("worked.json", 1)]

EXAMPLES = [(1, 4, 2, 2), (2, 5, 3, 1), (1, 3, 1, 1), (3, 6, 2, 3), (2, 3, 1, 2), (0, 4, 2, 1)]


def _cases():
    """(case id, argv, instance document or None); the path is appended to argv."""
    out = []
    for path in sorted(INSTANCES.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        argvs = [["invariants", "-h", str(h)] for h in (0, 1, 2, 7, 300)]
        argvs += [["verdict"], ["verdict", "--pretty"], ["cones", "-c", "1"], ["cones", "-c", "2"]]
        argvs += [["sweep", "--h-max", "12"], ["sweep", "--h-max", "60"], ["oracle", "--h-max", "6"]]
        if path.name == "worked.json":
            # --h-max 30 is the largest within MAX_ORACLE_WORK: 185,504, and 209,440 at 31
            argvs += [["sweep", "--h-max", "12", "--pretty"], ["oracle", "--h-max", "30"]]
        out += [(f"{path.name} {' '.join(a)}", a, doc) for a in argvs]
    for name, doc in INLINE.items():
        argvs = [["invariants", "-h", "1"], ["invariants", "-h", "7"], ["verdict"], ["sweep", "--h-max", "12"]]
        if "hn" in doc["bundle"] or "split" in doc["bundle"]:
            argvs.append(["cones", "-c", "1"])
        if "split" in doc["bundle"]:
            argvs.append(["oracle", "--h-max", "3"])
        out += [(f"{name} {' '.join(a)}", a, doc) for a in argvs]
    out.append(ZERO_POLY)
    for name, doc in INVALID_SPLITS.items():
        for argv in (["verdict"], ["oracle", "--h-max", "3"]):
            out.append((f"{name} {' '.join(argv)}", argv, doc))
    for name, (doc, h_max) in LADDER.items():
        argvs = [["sweep", "--h-max", str(h_max)]]
        if name == "W":
            argvs.append(["sweep", "--h-max", str(h_max), "--pretty"])
        out += [(f"ladder_{name} {' '.join(a)}", a, doc) for a in argvs]
    for name, (k, y) in CORNERS.items():
        doc = _instance(200, 17, k, y)
        argvs = [["verdict"], ["sweep", "--h-max", "10000"], ["invariants", "-h", "10000"]]
        out += [(f"corner_{name} {' '.join(a)}", a, doc) for a in argvs]
    for name, c in SVGS:
        doc = json.loads((INSTANCES / name).read_text(encoding="utf-8"))
        out.append((f"{name} cones -c {c} --svg", ["cones", "-c", str(c), "--svg"], doc))
    for a, r, c, m in EXAMPLES:
        for orientation in ("as-written", "swapped"):
            argv = ["example", "--a", str(a), "--r", str(r), "--c", str(c), "--m", str(m),
                    "--orientation", orientation]
            out.append((" ".join(argv), argv, None))
    return out


CASES = _cases()


def _digest(data):
    return len(data), hashlib.sha256(data).hexdigest()


def run_case(argv, doc, workdir):
    svg = Path(workdir) / "cones.svg"
    if argv[-1] == "--svg":
        argv = [*argv, str(svg)]
    if doc is not None:
        path = Path(workdir) / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "-i", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    got = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if str(svg) in argv:
        del got["stdout"]
        got["svg_bytes"], got["svg_sha256"] = _digest(svg.read_bytes())
    return got


def pinned(case_id, got):
    """``got`` as the expected file holds it: a ladder or corner stdout by its digest."""
    if case_id.startswith(DIGESTED):
        got["stdout_bytes"], got["stdout_sha256"] = _digest(got.pop("stdout").encode("utf-8"))
    return got


@cache
def _reference(name):
    """The spec's numbers for one ladder rung or corner, up to the largest twist its cases ask."""
    # imported here: the regeneration script below runs with only src on the path
    from perfbench.reference import Instance, Reference

    cases = [(argv, doc) for case_id, argv, doc in CASES if case_id.split()[0] == name]
    bundle, ci = cases[0][1]["bundle"], cases[0][1]["ci"]
    split = bundle.get("split")
    inst = Instance(bundle["rank"], bundle["degree"], tuple(ci["k"]), tuple(ci["y"]),
                    split=None if split is None else tuple(split))
    return Reference(inst, max(int(argv[2]) for argv, _ in cases if len(argv) > 2))


def held_to_spec(case_id, argv, stdout):
    """A ladder or corner report checked by the spec: "ok", else ``Mismatch`` is raised."""
    from perfbench.reference import check_invariants, check_sweep, check_verdict

    report, ref = json.loads(stdout), _reference(case_id.split()[0])
    if argv[0] == "verdict":
        return check_verdict(report, ref)
    check = {"sweep": check_sweep, "invariants": check_invariants}[argv[0]]
    return check(report, ref, int(argv[2]))  # --h-max H or -h H


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_case_ids_match(golden):
    assert sorted(golden) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id, argv, doc", CASES, ids=[case_id for case_id, _, _ in CASES])
def test_report(golden, tmp_path, case_id, argv, doc):
    got = run_case(argv, doc, tmp_path)
    if case_id.startswith(DIGESTED):
        assert got["code"] == 0 and held_to_spec(case_id, argv, got["stdout"]) == "ok"
    assert pinned(case_id, got) == golden[case_id]


def regenerate(case_ids, path, workdir):
    """Rewrite the named cases in ``path``, or every case when none is named."""
    cases = {case_id: (argv, doc) for case_id, argv, doc in CASES}
    for case_id in case_ids:
        if case_id not in cases:
            raise KeyError(f"no golden case {case_id!r}")
    got = json.loads(path.read_text(encoding="utf-8")) if case_ids else {}
    for case_id in case_ids or cases:
        argv, doc = cases[case_id]
        got[case_id] = pinned(case_id, run_case(argv, doc, workdir))
    path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return len(case_ids or cases)


def test_regenerating_named_cases(tmp_path):
    path = tmp_path / "golden.json"
    stale = json.loads(GOLDEN.read_text(encoding="utf-8"))
    stale["worked.json verdict"] = {"code": 9}
    path.write_text(json.dumps(stale, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    regenerate(["worked.json verdict", "worked.json invariants -h 2"], path, tmp_path)
    assert path.read_bytes() == GOLDEN.read_bytes()
    with pytest.raises(KeyError, match="no golden case 'worked.json nonsense'"):
        regenerate(["worked.json verdict", "worked.json nonsense"], path, tmp_path)
    assert path.read_bytes() == GOLDEN.read_bytes()  # nothing written


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        try:
            count = regenerate(sys.argv[1:], GOLDEN, tmp)
        except KeyError as exc:
            sys.exit(f"test_golden.py: {exc.args[0]}")
    print(f"wrote {count} cases to {GOLDEN}", file=sys.stderr)
