"""Source mutants of the exact kernels and the report layout, each run against its tier-1 tests.

Each mutant is one exact text substitution in one file under ``src/relci``.
The script copies ``src``, ``tests``, ``demos``, ``perfbench``, ``tools``,
``pyproject.toml``, ``README.md`` and ``BENCHMARK.json`` into a temporary
directory (every package a tier-1 module imports, which
``tests/test_mutants.py`` checks, and every file one reads) and first runs
every named node id there unmutated, which must pass.  Then, one mutant at
a time, it applies the substitution to a fresh copy and runs the mutant's
node ids in one fresh pytest process (the whole of tier-1 when it names
none).  The mutant is caught when tests fail or fail to collect (pytest exit
status 1 or 2).  Run from the repository root::

    python3 tests/mutants.py

The exit status is 1 when a mutant that should be caught survives, or an
expected survivor is caught (its reason is then stale).  Any other pytest
exit status, or a run past the timeout, stops the script with pytest's
output.  This file is not a test module; ``tests/test_mutants.py`` checks in
tier-1, without running anything, that each substitution still applies
exactly once and each node id still names a test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "perfbench", "tools", "pyproject.toml", "README.md",
          "BENCHMARK.json")
TIMEOUT_S = 300  # per mutant; all of tier-1 takes about 20–50 s
INVARIANTS = "src/relci/invariants.py"
SHIFT = "shift = sum(map(abs, val)).bit_length() + bound.bit_length() + 2"
STEP = "b = b * m // (m - r + 1) if b else binom_trunc(m, r - 1)"
STABLE_TRIM = "    while out and not out[-1]:\n"
INV = "tests/test_invariants.py::"
GOLDEN = "tests/test_golden.py::test_report"
PACKED = (f"{INV}TestMarginRuns::test_packed_band_at_its_width",
          f"{INV}TestStablePoly::test_one_packed_pass_equals_two_passes")

# name: (file, old text, new text, node ids expected to fail; none for a survivor,
# which runs all of tier-1)
MUTANTS = {
    # _pack's no-carry shift without one of its terms, or short of bits
    "pack_shift_without_bound": (
        INVARIANTS, SHIFT, "shift = sum(map(abs, val)).bit_length() + 2", PACKED,
    ),
    "pack_shift_without_val_sum": (INVARIANTS, SHIFT, "shift = bound.bit_length() + 2", PACKED),
    "pack_shift_10_bits_short": (INVARIANTS, SHIFT, f"{SHIFT} - 10", PACKED),
    # _koszul_sum: a binomial per level, a wrong exact step, a step across an empty level
    "koszul_comb_per_level": (
        INVARIANTS, STEP, "b = binom_trunc(m, r - 1)",
        (f"{INV}TestLoneSum::test_binomials_per_run_of_levels",),
    ),
    "koszul_wrong_step_divisor": (
        INVARIANTS, STEP, "b = b * m // (m - r + 2) if b else binom_trunc(m, r - 1)",
        (f"{INV}TestLoneSum::test_equals_one_binomial_per_level",
         f"{INV}TestPushforward::test_deg_always_integral"),
    ),
    "koszul_no_reset": (
        INVARIANTS, "        else:\n            b = 0\n", "        else:\n            pass\n",
        (f"{INV}TestLoneSum::test_equals_one_binomial_per_level",
         f"{INV}TestPushforward::test_rank_quartic_curve"),
    ),
    "margin_n_minus_one": (
        INVARIANTS, "- n * fibre_deg(X) * pf.degree)", "- (n - 1) * fibre_deg(X) * pf.degree)",
        (f"{INV}TestMargin::test_worked_margins",
         "tests/test_acceptance.py::test_criterion_1_small_twist_proportionality"),
    ),
    "alpha_rank_minus_one": (
        INVARIANTS, "- X.rank * X.y_weight", "- (X.rank - 1) * X.y_weight",
        (f"{INV}TestAlpha::test_worked", f"{INV}TestAlpha::test_sign_tracks_slope_comparison"),
    ),
    "stable_poly_constant_plus_one": (
        INVARIANTS, STABLE_TRIM, "    out[0] += 1\n" + STABLE_TRIM,
        (f"{INV}TestStablePoly::test_closed_form_matches_sampled",
         "tests/test_cli.py::TestSweepCommand::test_margins_and_stable_data"),
    ),
    # the band ends n twists past k_sum - r instead of n + 1: the degree is a
    # polynomial of degree n there, so Newton's formula from n twists misses it at h_max
    "run_window_of_n": (
        INVARIANTS, "h_run = min(h_max, start + n)", "h_run = min(h_max, start + n - 1)",
        (f"{INV}TestMarginRuns::test_tail_at_sampled_twists", f"{INV}TestMarginRuns::test_draws"),
    ),
    # --pretty re-lays the compact report at another indent
    "pretty_indent_1": (
        "src/relci/cli.py", "json.dumps(json.loads(text), indent=2)",
        "json.dumps(json.loads(text), indent=1)",
        (f"{GOLDEN}[worked.json verdict --pretty]",
         f"{GOLDEN}[worked.json sweep --h-max 12 --pretty]"),
    ),
    # the oracle's product in the cycle ring loses the cross term of S * S = 0
    "oracle_product_drops_cross_term": (
        "src/relci/oracles.py", "a.p * b.q + a.q * b.p", "a.p * b.q",
        ("tests/test_oracles.py::TestChowExpand::test_matches_closed_forms",),
    ),
    # the slope criterion strict: on balanced alpha = 0 data with c*k > r the canonical top
    # power and margin are 0, so the three readings disagree and verdict exits 3; no golden
    # case sits there, the spec test's boundary draws do
    "slope_strict": (
        "src/relci/verdicts.py", "crit = X.bundle.slope >= ratio", "crit = X.bundle.slope > ratio",
        ("tests/test_spec.py::test_instance_reports",),
    ),
    # unstable_large_h read as "the margins do not end positive": the two differ only where
    # alpha < 0 and the stable polynomial is zero, as on the golden zero_poly_alpha_neg
    "unstable_large_h_non_positive": (
        "src/relci/verdicts.py", "(stable_margin_poly(X) or (0,))[-1] < 0",
        "(stable_margin_poly(X) or (0,))[-1] <= 0",
        ("tests/test_verdicts.py::TestInstability::test_large_h_flag_follows_exact_sign",
         f"{GOLDEN}[zero_poly_alpha_neg verdict]"),
    ),
    # h_sweep holds the stable polynomial to the run at n twists instead of n + 1
    "sweep_check_window_of_n": (
        "src/relci/verdicts.py", "for h in range(start, min(h_max, start + n) + 1):",
        "for h in range(start, min(h_max, start + n - 1) + 1):", (),
    ),
}

SURVIVORS = {
    "sweep_check_window_of_n": "E(h) = margin(h) / h^(n-1) has degree at most n, but its "
    "degree-n coefficient cancels (``_stable_poly`` asserts it of the polynomial), so n "
    "twists already fix both sides; the n + 1st keeps the check from resting on that",
}


def _pytest(tmp: str, ids) -> int:
    """Run ``ids`` (all of tier-1 when empty) in the tree at ``tmp``: pytest's exit status."""
    args = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=short", "-p", "no:cacheprovider",
            # test_mutants.py is left out: a mutated copy no longer holds the old text
            "--ignore=tests/test_mutants.py", *(ids or ["tests"])]
    try:
        proc = subprocess.run(args, cwd=tmp, env={**os.environ, "PYTHONPATH": "src"},
                              timeout=TIMEOUT_S, capture_output=True, text=True)
    except subprocess.TimeoutExpired as exc:  # its output is bytes, text=True or not
        output = (exc.stdout or b"").decode(errors="replace")
        raise SystemExit(f"pytest ran past {TIMEOUT_S} s:\n{output}") from exc
    if proc.returncode not in (0, 1, 2):  # 1: tests failed, 2: a collection error
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode


def run(name: str | None) -> tuple[bool, float]:
    """Run one mutant's tests in a fresh copy of the tree: (caught, seconds).

    ``None`` runs every named node id on the unmutated copy instead.
    """
    with tempfile.TemporaryDirectory(prefix="relci-mutant-") as tmp:
        for part in COPIED:
            source, target = ROOT / part, Path(tmp) / part
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        if name is None:
            ids = sorted({node_id for *_, named in MUTANTS.values() for node_id in named})
        else:
            path, old, new, ids = MUTANTS[name]
            target = Path(tmp) / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {path}")
            target.write_text(text.replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        caught = _pytest(tmp, ids) != 0
    return caught, time.perf_counter() - start


def main() -> int:
    broken, seconds = run(None)
    if broken:
        raise SystemExit("the named tests fail on the unmutated copy")
    print(f"{'(unmutated)':32} {'passed':9} {seconds:6.1f} s", flush=True)
    wrong = 0
    for name in MUTANTS:
        caught, seconds = run(name)
        expected = name not in SURVIVORS
        wrong += caught != expected
        verdict = "caught" if caught else "survived"
        note = "" if caught == expected else "  UNEXPECTED"
        print(f"{name:32} {verdict:9} {seconds:6.1f} s{note}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
