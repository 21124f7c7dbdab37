import hashlib
import io
import json
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import relci
from relci import BundleOverCurve, RelativeCI, cli, cross_check, exact, invariants, oracles, verdicts
from relci.bundles import split_hn_blocks
from relci.cli import (
    _FLAG_LIMITS,
    MAX_K_SUM,
    MAX_ORACLE_WORK,
    MAX_RANK,
    MAX_TWIST,
    instance_from_json,
    instance_to_json,
    main,
)
from tests.conftest import CORNERS, make_ci

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SIGN_WORDS = {1: "positive", 0: "zero", -1: "negative"}

WORKED = {
    "bundle": {"rank": 4, "degree": 4, "base_genus": 0, "split": [1, 1, 1, 1]},
    "ci": {"k": [3, 3], "y": [1, 2]},
}


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED), encoding="utf-8")
    return str(path)


def run_main(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cold(child_env, *args):
    """``main`` in a fresh interpreter without site, where no module of the tests is loaded."""
    proc = subprocess.run([sys.executable, "-S", "-m", "relci.cli", *args], env=child_env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def margin_draws(rng, tmp_path, count):
    """Seeded instance files, then one whose margins all vanish (alpha = 0, balanced)."""
    draws = [make_ci(rng) for _ in range(count)]
    draws.append(RelativeCI(BundleOverCurve(4, 3), (2, 2), (1, 2)))
    for i, X in enumerate(draws):
        path = tmp_path / f"draw{i}.json"
        path.write_text(json.dumps(instance_to_json(X)), encoding="utf-8")
        yield X, str(path)


class TestInvariantsCommand:
    def test_worked_instance_h2(self, capsys, worked_file):
        code, out, _ = run_main(capsys, "invariants", "-i", worked_file, "-h", "2")
        assert code == 0
        rep = json.loads(out)
        res = rep["result"]
        assert res["h_top"] == "27"
        assert res["fibre_deg"] == "9"
        assert res["rank"] == "10"
        assert res["deg"] == "20"
        assert res["e_cleared"] == "360"
        assert res["alpha"] == "36"
        assert res["kf_top"] == "144"
        assert res["sign"] == "positive"
        assert rep["tool"] == {"name": "relci", "version": "0.1.0"}

    def test_h_defaults_to_one(self, capsys, worked_file):
        code, out, _ = run_main(capsys, "invariants", "-i", worked_file)
        assert code == 0
        assert json.loads(out)["result"]["e_cleared"] == "36"

    def test_no_floats_anywhere(self, capsys, worked_file):
        _, out, _ = run_main(capsys, "invariants", "-i", worked_file, "-h", "3")

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(out))

    def test_derived_margin_forms(self, capsys, tmp_path, rng):
        # the rational margin and the sign word are derived from the cleared margin
        words = set()
        for X, path in margin_draws(rng, tmp_path, 60):
            h = rng.randint(1, X.k_sum + 2)
            code, out, _ = run_main(capsys, "invariants", "-i", path, "-h", str(h))
            res = json.loads(out)["result"]
            cleared = int(res["e_cleared"])
            assert code == 0 and Fraction(res["e_rational"]) * int(res["rank"]) == cleared
            assert res["sign"] == SIGN_WORDS[(cleared > 0) - (cleared < 0)]
            words.add(res["sign"])
        assert words == set(SIGN_WORDS.values())

    def test_malformed_ci_exits_2(self, capsys, tmp_path):
        bad = dict(WORKED, ci={"k": [3, 3], "y": [1]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, _, err = run_main(capsys, "invariants", "-i", str(path))
        assert code == 2
        assert "invalid input" in err

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        code, _, err = run_main(capsys, "invariants", "-i", path)
        assert code == 2
        assert err == (f"relci: invalid input: cannot read input file {path}: "
                       f"[Errno 2] No such file or directory: '{path}'\n")

    def test_not_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_main(capsys, "invariants", "-i", str(path))
        assert code == 2
        assert err.startswith(f"relci: invalid input: input file {path} is not valid JSON: ")

    @pytest.mark.parametrize("ci", [{"y": []}, {"k": [], "y": []}], ids=["absent", "empty"])
    def test_empty_ci_k_exits_2(self, capsys, tmp_path, ci):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(WORKED, ci=ci)), encoding="utf-8")
        code, _, err = run_main(capsys, "invariants", "-i", str(path))
        assert (code, err) == (2, "relci: invalid input: ci.k must be a nonempty list\n")

    def test_split_inconsistent_exits_2(self, capsys, tmp_path):
        bad = dict(WORKED, bundle={"rank": 4, "degree": 5, "split": [1, 1, 1, 1]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, _, err = run_main(capsys, "invariants", "-i", str(path))
        assert code == 2
        assert "split" in err


class TestVerdictCommand:
    def test_worked_report(self, capsys, worked_file):
        code, out, _ = run_main(capsys, "verdict", "-i", worked_file)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["small_h"]["conclusion"] == "FPositiveAllSmallH"
        assert res["slope"]["conclusion"] == "SlopeHolds"
        assert res["instability"]["conclusion"] == "NoConclusion"
        assert res["cone"]["class"] == {"p": "9", "q": "-9"}
        # ratio 1 is below the common threshold 2 of the coincident cones
        assert res["cone"]["region"] == "InsideNef"

    def test_unstable_variant(self, capsys, tmp_path):
        inst = dict(WORKED, ci={"k": [3, 3], "y": [5, 5]})
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, out, _ = run_main(capsys, "verdict", "-i", str(path))
        assert code == 0
        rep = json.loads(out)
        res = rep["result"]
        assert res["instability"]["conclusion"] == "ChowUnstableFibres"
        assert res["instability"]["witnesses"]["unstable_dualizing"] is True
        assert rep["warnings"]  # effectivity violations flagged

    def test_without_hn_reports_bridge_only(self, capsys, tmp_path):
        inst = {"bundle": {"rank": 5, "degree": 7}, "ci": {"k": [2, 3], "y": [1, -2]}}
        path = tmp_path / "nohn.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, out, _ = run_main(capsys, "verdict", "-i", str(path))
        assert code == 0
        cone = json.loads(out)["result"]["cone"]
        assert "region" not in cone
        assert cone["bridge_membership"] == "Inside"
        assert "virtual slopes unavailable" in cone["note"]

    def test_round_trip(self, capsys, worked_file):
        _, out, _ = run_main(capsys, "verdict", "-i", worked_file)
        assert json.loads(out)["command"] == "verdict"

    def test_determinism_three_runs(self, worked_file, child_env):
        outs = set()
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "relci.cli", "verdict", "-i", worked_file],
                env=child_env,
                capture_output=True,
            )
            assert proc.returncode == 0
            outs.add(proc.stdout)
        assert len(outs) == 1


class TestConesCommand:
    def test_split_rays_and_svg(self, capsys, tmp_path):
        inst = {
            "bundle": {"rank": 3, "degree": 3, "split": [2, 1, 0]},
            "ci": {"k": [2], "y": [1]},
        }
        path = tmp_path / "split.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        svg = tmp_path / "cones.svg"
        code, out, _ = run_main(
            capsys, "cones", "-i", str(path), "-c", "2", "--svg", str(svg)
        )
        assert code == 0
        res = json.loads(out)["result"]
        got = {c["label"]: c["threshold"] for c in res["cones"]}
        assert got == {"Pseff": "3", "Bridge": "2", "Nef": "1"}
        text = svg.read_text(encoding="utf-8")
        assert 'data-slope="3"' in text and 'data-slope="1"' in text
        assert text.startswith("<svg")

    def test_semistable_coincide(self, capsys, worked_file):
        code, out, _ = run_main(capsys, "cones", "-i", worked_file, "-c", "2")
        assert code == 0
        res = json.loads(out)["result"]
        assert res["coincide"] is True
        assert {c["threshold"] for c in res["cones"]} == {"2"}

    def test_missing_hn_exits_2(self, capsys, tmp_path):
        inst = {"bundle": {"rank": 5, "degree": 7}, "ci": {"k": [2, 3], "y": [1, -2]}}
        path = tmp_path / "nohn.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, _, _ = run_main(capsys, "cones", "-i", str(path), "-c", "2")
        assert code == 2

    def test_codim_out_of_range_exits_2(self, capsys, worked_file):
        code, _, _ = run_main(capsys, "cones", "-i", worked_file, "-c", "4")
        assert code == 2

    def test_svg_of_a_threshold_past_float_range(self, capsys, tmp_path):
        inst = {"bundle": {"rank": 4, "degree": 10**400, "hn": [{"rank": 1, "degree": 10**400},
                                                               {"rank": 3, "degree": 0}]},
                "ci": {"k": [2], "y": [0]}}
        path, svg = tmp_path / "steep.json", tmp_path / "steep.svg"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, out, _ = run_main(capsys, "cones", "-i", str(path), "-c", "1", "--svg", str(svg))
        assert code == 0 and json.loads(out)["result"]["svg"] == str(svg)
        # the Pseff ray, of slope 10^400, draws as vertical; its exact slope is kept
        text = svg.read_text(encoding="utf-8")
        assert f'L 90.00 410.00 Z" fill="#d95f02"' in text and f'data-slope="{10**400}"' in text

    def test_svg_runs_cold(self, capsys, child_env, tmp_path):
        # the front end imports the drawing module only here: run it where nothing has
        svg = tmp_path / "cones.svg"
        argv = ["cones", "-i", str(DEMOS / "instances" / "split210.json"), "-c", "1", "--svg", str(svg)]
        code, out, err = run_cold(child_env, *argv)
        assert (code, err) == (0, "")
        drawing = svg.read_bytes()
        golden = json.loads(Path(__file__).with_name("golden_reports.json").read_text(encoding="utf-8"))
        expected = golden["split210.json cones -c 1 --svg"]
        assert len(drawing) == expected["svg_bytes"]
        assert hashlib.sha256(drawing).hexdigest() == expected["svg_sha256"]
        assert out == run_main(capsys, *argv)[1]


class TestSweepCommand:
    def test_margins_and_stable_data(self, capsys, worked_file):
        code, out, _ = run_main(capsys, "sweep", "-i", worked_file, "--h-max", "4")
        assert code == 0
        res = json.loads(out)["result"]
        cleared = [m["e_cleared"] for m in res["margins"]]
        assert cleared == ["36", "360", "1296", "3024"]
        assert res["stable_poly_coeffs"] == ["-540", "324"]
        assert res["eventual_sign"] == "positive"

    def test_c1_constant_sign_column(self, capsys, tmp_path):
        inst = {"bundle": {"rank": 4, "degree": -3}, "ci": {"k": [3], "y": [2]}}
        path = tmp_path / "c1.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, out, _ = run_main(capsys, "sweep", "-i", str(path), "--h-max", "10")
        assert code == 0
        res = json.loads(out)["result"]
        assert {m["sign"] for m in res["margins"]} == {"negative"}
        assert res["eventual_sign"] == "negative"

    def test_sign_words_match_cleared_margins(self, capsys, tmp_path, rng):
        words = set()
        for X, path in margin_draws(rng, tmp_path, 30):
            code, out, _ = run_main(capsys, "sweep", "-i", path, "--h-max", str(X.k_sum + 2))
            rows = json.loads(out)["result"]["margins"]
            assert code == 0 and [row["h"] for row in rows] == [str(h) for h in range(1, X.k_sum + 3)]
            for row in rows:
                cleared = int(row["e_cleared"])
                assert row["sign"] == SIGN_WORDS[(cleared > 0) - (cleared < 0)]
                words.add(row["sign"])
        assert words == set(SIGN_WORDS.values())

    def test_rows_are_not_walked_by_the_encoder(self, capsys, monkeypatch):
        # each row is built as the strings it prints; the encoder walks the rest
        true_enc, calls = cli._enc, Counter()

        def counted(value):
            calls["enc"] += 1
            return true_enc(value)

        monkeypatch.setattr(cli, "_enc", counted)
        worked = str(DEMOS / "instances" / "worked.json")
        code, out, _ = run_main(capsys, "sweep", "-i", worked, "--h-max", "5000")
        assert code == 0 and len(json.loads(out)["result"]["margins"]) == 5000
        assert calls["enc"] < 100

    def test_run_past_the_window_takes_n_running_sums(self, capsys, monkeypatch, tmp_path):
        # rung W: r = 4 running sums over the whole run would feed about 45,000
        # elements; the band and the dim X = 2 sums of the continued run feed about 10,000
        true_accumulate, fed = invariants.accumulate, []

        def counted(iterable, *args, **kwargs):
            items = list(iterable)
            fed.append(len(items))
            return true_accumulate(items, *args, **kwargs)

        monkeypatch.setattr(invariants, "accumulate", counted)
        worked = str(DEMOS / "instances" / "worked.json")
        code, out, _ = run_main(capsys, "sweep", "-i", worked, "--h-max", "5000")
        assert code == 0 and len(json.loads(out)["result"]["margins"]) == 5000
        assert 0 < sum(fed) < 4 * 5000
        # the rank-200 corners: the band's r passes over its h_run + 1 entries, the running
        # sum of its ranks and the dim X < r passes of the continued run over the h_max - h_run
        # twists past it feed at most (r + 1) * (h_max + 1); the moments' r + 1 passes over
        # at most k_sum + 1 entries (k_sum >= r here) feed at most (r + 1) * (k_sum + 1)
        for k, y in CORNERS.values():
            X = RelativeCI(BundleOverCurve(200, 17), k, y)
            path = tmp_path / "corner.json"
            path.write_text(json.dumps(instance_to_json(X)), encoding="utf-8")
            fed.clear()
            assert run_main(capsys, "sweep", "-i", str(path), "--h-max", "10000")[0] == 0
            assert 0 < sum(fed) <= 2 * (X.rank + 1) * (max(10000, X.k_sum) + 2) == 4_020_804

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    def test_rows_are_the_text_json_dumps_writes(self, capsys, tmp_path, rng, pretty):
        # margins that are zero, negative and hundreds of digits long
        draws = [make_ci(rng) for _ in range(12)]
        draws += [RelativeCI(BundleOverCurve(4, 3), (2, 2), (1, 2)),  # every margin zero
                  RelativeCI(BundleOverCurve(5, -10**300), (3, 2), (1, -7)),
                  RelativeCI(BundleOverCurve(6, 10**250 + 1), (4,), (-3,))]
        words, longest = set(), 0
        for X in draws:
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(instance_to_json(X)), encoding="utf-8")
            h_max = X.k_sum + 3
            code, out, _ = run_main(capsys, "sweep", "-i", str(path), "--h-max", str(h_max),
                                    *["--pretty"] * pretty)
            sweep = verdicts.h_sweep(X, h_max)
            report = {
                "command": "sweep",
                "input": instance_to_json(X),
                "result": {
                    "margins": [{"h": h, "e_cleared": m, "sign": sign_word(m)}
                                for h, m in enumerate(sweep.margins, 1)],
                    "stable_poly_coeffs": sweep.stable_poly,
                    "sign_stable_from": sweep.sign_stable_from,
                    "eventual_sign": sign_word(sweep.eventual_sign),
                },
                "warnings": cli._warnings(X),
                "tool": {"name": "relci", "version": relci.__version__},
            }
            layout = {"indent": 2} if pretty else {"separators": (",", ":")}
            assert code == 0
            assert out == json.dumps(reference_encoding(report), sort_keys=True, **layout) + "\n"
            words |= {sign_word(m) for m in sweep.margins}
            longest = max(longest, *(len(str(abs(m))) for m in sweep.margins))
        assert words == set(SIGN_WORDS.values()) and longest > 250


def sign_word(value):
    return SIGN_WORDS[(value > 0) - (value < 0)]


def reference_encoding(value):
    """A report with every number as its decimal string, as reports print them."""
    if isinstance(value, dict):
        return {key: reference_encoding(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_encoding(v) for v in value]
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return str(value)
    return value


def test_encoder_rejects_other_types():
    with pytest.raises(TypeError, match="^cannot encode <object object at "):
        cli._enc(object())


class TestOracleCommand:
    def test_all_suites_pass(self, capsys, worked_file):
        code, out, _ = run_main(capsys, "oracle", "-i", worked_file, "--h-max", "8")
        assert code == 0
        res = json.loads(out)["result"]
        assert res["status"] == "all 4 oracle suites passed"
        assert res["mismatches"] == []

    def test_negative_h_max_exits_2(self, capsys, worked_file):
        # three of the four suites would make 0 comparisons and still read "passed"
        code, out, err = run_main(capsys, "oracle", "-i", worked_file, "--h-max", "-1")
        assert (code, out) == (2, "")
        assert err == "relci: invalid input: h_max must be >= 0, got -1\n"

    def test_requires_split(self, capsys, tmp_path):
        inst = {
            "bundle": {"rank": 4, "degree": 4, "hn": [{"rank": 4, "degree": 4}]},
            "ci": {"k": [3, 3], "y": [1, 2]},
        }
        path = tmp_path / "hn_only.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, _, err = run_main(capsys, "oracle", "-i", str(path))
        assert code == 2
        assert "split" in err


class TestContactCommand:
    def test_report(self, capsys, tmp_path):
        payload = {
            "weights": ["1", "1", "1", "1"],
            "y": {"dim": 1, "deg": 2, "e_f": "4"},
            "z": {"dim": 2, "deg": 3, "e_f": "6"},
        }
        path = tmp_path / "contact.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_main(capsys, "contact", "-i", str(path))
        assert code == 0
        res = json.loads(out)["result"]
        assert res["y_status"] == "Semistable"
        assert res["intersection"]["deg"] == "6"

    def test_rejects_floats(self, capsys, tmp_path):
        payload = {
            "weights": [1.5, 1, 1, 1],
            "y": {"dim": 1, "deg": 2, "e_f": "4"},
            "z": {"dim": 2, "deg": 3, "e_f": "6"},
        }
        path = tmp_path / "contact.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, _ = run_main(capsys, "contact", "-i", str(path))
        assert code == 2

    # an exponent grows the number without bound; a decimal point is no 'p/q' either
    @pytest.mark.parametrize("e_f", ["1e10000000", "1e3", "0.5", " 1/2", "1_0", "1/-2", "+-1"])
    def test_only_integers_and_p_over_q(self, capsys, tmp_path, e_f):
        payload = {
            "weights": ["1", "1", "1", "1"],
            "y": {"dim": 1, "deg": 2, "e_f": e_f},
            "z": {"dim": 2, "deg": 3, "e_f": "6"},
        }
        path = tmp_path / "contact.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_main(capsys, "contact", "-i", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "relci: invalid input: y.e_f: rationals must be integers or 'p/q' strings\n"

    @pytest.mark.parametrize("e_f, value", [(-3, "-3"), ("+12", "12"), ("-6/4", "-3/2"), ("0/7", "0")])
    def test_signed_integers_and_p_over_q(self, capsys, tmp_path, e_f, value):
        payload = {
            "weights": ["1", "1", "1", "1"],
            "y": {"dim": 1, "deg": 2, "e_f": e_f},
            "z": {"dim": 2, "deg": 3, "e_f": "6"},
        }
        path = tmp_path / "contact.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_main(capsys, "contact", "-i", str(path))
        assert code == 0
        assert json.loads(out)["input"]["y"]["e_f"] == value

    def test_reads_stdin(self, capsys, monkeypatch):
        payload = {
            "weights": ["1", "1", "1", "1"],
            "y": {"dim": 1, "deg": 2, "e_f": "4"},
            "z": {"dim": 2, "deg": 3, "e_f": "6"},
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        code, out, _ = run_main(capsys, "contact", "-i", "-")
        assert code == 0
        assert json.loads(out)["input"]["weights"] == ["1", "1", "1", "1"]

    def test_runs_cold(self, capsys, child_env, tmp_path):
        # the front end imports the contact module only here: run it where nothing has
        payload = {
            "weights": ["3", "2", "2/3", "1"],
            "y": {"dim": 1, "deg": 2, "e_f": "4"},
            "z": {"dim": 2, "deg": 3, "e_f": "9/2"},
        }
        path = tmp_path / "contact.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cold(child_env, "contact", "-i", str(path))
        assert (code, err) == (0, "")
        assert out == run_main(capsys, "contact", "-i", str(path))[1]


class TestExampleCommand:
    def test_as_written_diagnosis(self, capsys):
        code, out, _ = run_main(
            capsys, "example", "--a", "1", "--r", "4", "--c", "2", "--m", "2",
            "--orientation", "as-written",
        )
        assert code == 0
        verdict = json.loads(out)["result"]["verdict"]
        assert verdict["hypotheses"]["effective"] is False
        assert verdict["conclusion"] == "Undetermined"

    def test_swapped_diagnosis(self, capsys):
        code, out, _ = run_main(
            capsys, "example", "--a", "1", "--r", "4", "--c", "2", "--m", "2",
            "--orientation", "swapped",
        )
        assert code == 0
        verdict = json.loads(out)["result"]["verdict"]
        assert verdict["hypotheses"]["instability_excess"] is False


def layout_cases():
    """name: (argv, document written to the ``-i`` file or None), for every subcommand.

    The demo instances under each instance command (``cones`` and ``oracle`` exit 2 on
    ``no_hn.json``), a ``contact`` input, the ``example`` family in both orientations,
    and an instance of rank 1, which exits 2.
    """
    cases = {}
    argvs = [["invariants", "-h", "2"], ["verdict"], ["cones", "-c", "1"],
             ["sweep", "--h-max", "12"], ["oracle", "--h-max", "3"]]
    for path in sorted((DEMOS / "instances").glob("*.json")):
        for argv in argvs:
            cases[f"{path.name} {argv[0]}"] = ([*argv, "-i", str(path)], None)
    cases["contact"] = (["contact"], {"weights": ["1", "1", "1", "1"],
                                      "y": {"dim": 1, "deg": 2, "e_f": "4"},
                                      "z": {"dim": 2, "deg": 3, "e_f": "6/5"}})
    for orientation in ("as-written", "swapped"):
        cases[f"example {orientation}"] = (["example", "--a", "1", "--r", "4", "--c", "2", "--m",
                                            "2", "--orientation", orientation], None)
    cases["rank_1 verdict"] = (["verdict"], {"bundle": {"rank": 1, "degree": 0},
                                             "ci": {"k": [2], "y": [0]}})
    return cases


LAYOUT_CASES = layout_cases()


class TestLayouts:
    """``--pretty`` prints the compact report re-laid by ``json.dumps(indent=2)``."""

    def test_cases_cover_every_subcommand(self):
        commands = {argv[0] for argv, _ in LAYOUT_CASES.values()}
        assert commands == set(cli.build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    def test_same_report_stderr_and_exit_code(self, capsys, tmp_path, name):
        argv, doc = LAYOUT_CASES[name]
        if doc is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = [*argv, "-i", str(path)]
        code, compact, err = run_main(capsys, *argv)
        relaid = json.dumps(json.loads(compact), indent=2) + "\n" if compact else ""
        assert run_main(capsys, *argv, "--pretty") == (code, relaid, err)


class TestOracleCanFail:
    def test_wrong_degree_is_reported(self, capsys, monkeypatch, worked_file):
        true_pushforward = oracles.pushforward

        def off_by_one(X, h):
            pf = true_pushforward(X, h)
            return pf._replace(degree=pf.degree + 1)

        monkeypatch.setattr(oracles, "pushforward", off_by_one)
        X = RelativeCI(BundleOverCurve.split((1, 1, 1, 1)), (3, 3), (1, 2))
        checks, mismatches = cross_check(X, 4)
        assert checks["koszul_vs_degree"] == 5
        assert [(m["suite"], m["h"]) for m in mismatches] == [("koszul_vs_degree", h) for h in range(5)]
        code, out, _ = run_main(capsys, "oracle", "-i", worked_file, "--h-max", "4")
        assert code == 4
        assert json.loads(out)["result"]["status"] == "oracle mismatch"


def rebind(monkeypatch, fn, replacement):
    """Replace ``fn`` under every name bound to it in a loaded ``relci`` module."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "relci"]:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)


class TestEachTwistOnce:
    """Within one command every (instance, twist) pair reaches the Koszul sum once.

    A lone twist takes the direct sum; a run of twists reaches it only at
    its last twist, the cross-check of the run's prefix sums, and keeps
    nothing, so a lone twist inside a run still takes its own sum."""

    @pytest.mark.parametrize("argv, twists", [
        (["invariants", "-h", "7"], {7}),
        # small-twist band 1..2, checked at its end 2, which is also the
        # canonical twist and then a memo hit; the stable polynomial comes
        # from the subset tables, not from twists
        (["verdict"], {2}),
        (["sweep", "--h-max", "40"], {40}),
    ], ids=["invariants", "verdict", "sweep"])
    def test_worked_instance(self, capsys, monkeypatch, argv, twists):
        true_sum = invariants._koszul_sum
        seen = Counter()

        def counted(X, h):
            seen[X, h] += 1
            return true_sum(X, h)

        rebind(monkeypatch, true_sum, counted)
        code, _, _ = run_main(capsys, *argv, "-i", str(DEMOS / "instances" / "worked.json"))
        assert code == 0
        assert {n for n in seen.values() if n > 1} == set()
        assert {h for _, h in seen} == twists

    def test_hypersurface_band_end_and_canonical_twist_reach_the_sum_once(self, capsys, monkeypatch,
                                                                          tmp_path):
        # band 1..1999 is one run checked at 1999; the canonical twist
        # 2000 - 80 = 1920 lies inside it and takes its own sum
        path = tmp_path / "hyper.json"
        path.write_text(json.dumps({"bundle": {"rank": 80, "degree": 17},
                                    "ci": {"k": [2000], "y": [3]}}), encoding="utf-8")
        true_sum = invariants._koszul_sum
        seen = []

        def counted(X, h):
            seen.append(h)
            return true_sum(X, h)

        rebind(monkeypatch, true_sum, counted)
        code, _, _ = run_main(capsys, "verdict", "-i", str(path))
        assert code == 0
        assert seen == [1999, 1920]

    def test_sweep_exits_3_when_run_and_direct_sum_disagree(self, capsys, monkeypatch, worked_file):
        true_sum = invariants._koszul_sum

        def off_by_one(X, h):
            pf = true_sum(X, h)
            return pf._replace(degree=pf.degree + 1)

        rebind(monkeypatch, true_sum, off_by_one)
        code, out, err = run_main(capsys, "sweep", "-i", worked_file, "--h-max", "40")
        assert (code, out) == (3, "")
        assert err.startswith("relci: internal check failed: run of twists disagrees "
                              "with the Koszul sum at h=40:")
        assert json.dumps(WORKED["ci"]) in err
        assert '"split": [1, 1, 1, 1]' in err

    def test_sweep_exits_3_when_the_continued_run_disagrees(self, capsys, monkeypatch, worked_file):
        # a tail one twist late: rank and degree at h_max still match the Koszul sum
        true_continue = invariants._continue
        monkeypatch.setattr(invariants, "_continue",
                            lambda window, count: true_continue(window, count + 1)[1:])
        code, out, err = run_main(capsys, "sweep", "-i", worked_file, "--h-max", "40")
        assert (code, out) == (3, "")
        assert err.startswith("relci: internal check failed: run of twists continued past h=5 "
                              "disagrees with its rank and degree at h=40: E ")
        assert json.dumps(WORKED["ci"]) in err
        assert '"split": [1, 1, 1, 1]' in err

    # unstable.json has the instability excess, so its verdict needs the
    # stable polynomial twice: in the asymptotic and instability verdicts
    @pytest.mark.parametrize("name", ["worked", "unstable"])
    def test_verdict_builds_stable_poly_once(self, capsys, monkeypatch, name):
        true_build = invariants._stable_poly
        calls = []

        def counted(X):
            calls.append(X)
            return true_build(X)

        rebind(monkeypatch, true_build, counted)
        code, _, _ = run_main(capsys, "verdict", "-i", str(DEMOS / "instances" / f"{name}.json"))
        assert code == 0
        assert len(calls) == 1

    def test_verdict_exits_3_on_broken_table_moment(self, capsys, monkeypatch, worked_file):
        # the top entry cnt[k_sum] feeds no twist below k_sum, so only the
        # moment identity of the stable polynomial sees the change
        true_tables = exact.signed_subset_tables

        def bumped(k, y):
            cnt, val = true_tables(k, y)
            cnt[-1] += 1
            return cnt, val

        rebind(monkeypatch, true_tables, bumped)
        code, out, err = run_main(capsys, "verdict", "-i", worked_file)
        assert (code, out) == (3, "")
        assert err.startswith("relci: internal check failed: subset table moments")
        # the instance as an instance file reads it back, not its repr
        echo = instance_to_json(instance_from_json(WORKED))
        assert err.endswith(f" for instance {json.dumps(echo)}\n")


class TestExit3NamesTheInstance:
    """An exit 3 ends with the instance the run loaded, whichever module raised,
    or with the flags of ``example``."""

    @staticmethod
    def echo_of(name):
        return instance_to_json(instance_from_json(json.loads((DEMOS / "instances" / name).read_text())))

    def test_verdict_report_with_a_conclusion_past_a_failed_gate(self, capsys, monkeypatch):
        # no_hn.json fails the Slope gates, so its 'Undetermined' must count as a conclusion
        monkeypatch.setattr(verdicts, "_NO_CONCLUSION", ())
        code, out, err = run_main(capsys, "verdict", "-i", str(DEMOS / "instances" / "no_hn.json"))
        assert (code, out) == (3, "")
        assert err.startswith("relci: internal check failed: verdict 'Slope' concluded 'Undetermined'")
        assert err.endswith(f" for instance {json.dumps(self.echo_of('no_hn.json'))}\n")

    def test_oracle_chow_contraction(self, capsys, monkeypatch):
        true_contract = oracles._contract

        def one_rank_off(cls, bundle_degree, rank):
            return true_contract(cls, bundle_degree, rank + 1)

        monkeypatch.setattr(oracles, "_contract", one_rank_off)
        code, out, err = run_main(capsys, "oracle", "-i", str(DEMOS / "instances" / "worked.json"),
                                  "--h-max", "3")
        assert (code, out) == (3, "")
        assert err.startswith("relci: internal check failed: contracting degree 4, expected 5")
        assert err.endswith(f" for instance {json.dumps(self.echo_of('worked.json'))}\n")

    def assert_exit_3(self, capsys, name, argv, prefix):
        code, out, err = run_main(capsys, *argv, "-i", str(DEMOS / "instances" / name))
        assert (code, out) == (3, "")
        assert err.startswith(f"relci: internal check failed: {prefix}")
        assert err.endswith(f" for instance {json.dumps(self.echo_of(name))}\n")

    def test_koszul_degree_integrality(self, capsys, monkeypatch):
        # no_hn.json: r = 5, d = 7; at h = 1 one more in the s = 0 binomial adds d = 7 to r * deg
        monkeypatch.setattr(invariants, "binom_trunc", lambda n, m: exact.binom_trunc(n, m) + 1)
        self.assert_exit_3(capsys, "no_hn.json", ["invariants", "-h", "1"],
                           "pushforward degree not integral: 42/5 at h=1")

    def test_stable_poly_against_the_run(self, capsys, monkeypatch):
        # worked.json: -540 + 324 h, dim X = 2, window h = 3..5; a constant term one off
        # keeps the moment and degree checks inside _stable_poly green
        true_poly = invariants._stable_poly
        monkeypatch.setattr(invariants, "_stable_poly", lambda X: (true_poly(X)[0] + 1, *true_poly(X)[1:]))
        self.assert_exit_3(capsys, "worked.json", ["sweep", "--h-max", "10"],
                           "stable margin polynomial disagrees with the run of twists at h=3: "
                           "2! margin 2592 vs 2598 for instance ")

    def test_canonical_margin_two_ways(self, capsys, monkeypatch):
        # only the direct route reads the top power through invariants
        true_top = invariants.canonical_top_power
        monkeypatch.setattr(invariants, "canonical_top_power", lambda X: true_top(X) + 1)
        self.assert_exit_3(capsys, "worked.json", ["verdict"], "canonical margin mismatch: direct ")

    def test_small_twist_three_ways(self, capsys, monkeypatch):
        # worked.json has alpha 36; the ratio and the margins still say nonnegative
        monkeypatch.setattr(verdicts, "alpha_invariant", lambda X: -1)
        self.assert_exit_3(capsys, "worked.json", ["verdict"],
                           "small-twist equivalence broke: alpha -1, ratio 1 vs 2, margins ")

    def test_small_twist_band_closed_form(self, capsys, monkeypatch):
        # worked.json: r = 4, alpha 36, band margins 36 and 360; the second moved by r
        # keeps all three signs nonnegative, but 4 * 364 is not 2^2 * C(5, 3) * 36
        true_margins = verdicts.positivity_margins

        def moved(X, h_max):
            *head, last = true_margins(X, h_max)
            return (*head, last + X.rank)

        monkeypatch.setattr(verdicts, "positivity_margins", moved)
        self.assert_exit_3(capsys, "worked.json", ["verdict"],
                           "small-twist margin disagrees with its closed form at h=2: "
                           "r margin 1456 vs h^2 binom(5, 3) alpha 1440 for instance ")

    def test_slope_three_ways(self, capsys, monkeypatch):
        # the canonical margin keeps its own top power, so it still agrees with the criterion
        monkeypatch.setattr(verdicts, "canonical_top_power", lambda X: -1)
        self.assert_exit_3(capsys, "worked.json", ["verdict"],
                           "slope equivalence broke: kf_top -1, margin ")

    def test_oracle_chow_integrality(self, capsys, monkeypatch):
        true_contract = oracles._contract

        def half_off(cls, bundle_degree, rank):
            return true_contract(cls, bundle_degree, rank) + Fraction(1, 2)

        monkeypatch.setattr(oracles, "_contract", half_off)
        self.assert_exit_3(capsys, "worked.json", ["oracle", "--h-max", "3"],
                           "expected integer intersection number, got ")

    def test_numbers_past_the_output_limit(self, capsys, monkeypatch, tmp_path):
        # the degree 10^4290 prints, but the run's degrees at h = 5000 have 4,301 digits
        true_sum = invariants._koszul_sum

        def off_by_one(X, h):
            pf = true_sum(X, h)
            return pf._replace(degree=pf.degree + 1)

        rebind(monkeypatch, true_sum, off_by_one)
        inst = {"bundle": {"rank": 4, "degree": 10**4290}, "ci": {"k": [3], "y": [1]}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, out, err = run_main(capsys, "sweep", "-i", str(path), "--h-max", "5000")
        assert (code, out) == (3, "")
        library, _, echo = err.partition(" for instance ")
        assert library == ("relci: internal check failed: run of twists disagrees with the Koszul "
                           "sum at h=5000: rank, degree 37507501, an int of 4301 digits vs "
                           "37507501, an int of 4301 digits")
        assert echo == json.dumps(instance_to_json(instance_from_json(inst))) + "\n"

    def test_example_names_its_flags(self, capsys, monkeypatch):
        # example reads no instance file, so its exit 3 ends with the flags it echoes
        monkeypatch.setattr(verdicts, "_NO_CONCLUSION", ())
        code, out, err = run_main(capsys, "example", "--a", "1", "--r", "4", "--c", "2", "--m", "1")
        assert (code, out) == (3, "")
        assert err.startswith("relci: internal check failed: verdict 'ExampleFamily' concluded "
                              "'Undetermined' with a failed hypothesis")
        flags = {"a": 1, "r": 4, "c": 2, "m": 1, "orientation": "as-written"}
        assert err.endswith(f" for flags {json.dumps(flags)}\n")


@st.composite
def instances(draw):
    """A valid instance: plain bundle, bundle with a profile, or split bundle."""
    kind = draw(st.sampled_from(["plain", "hn", "split"]))
    genus = draw(st.integers(0, 3))
    degs = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=6))
    if kind == "split":
        bundle = BundleOverCurve.split(degs, genus)
    else:
        hn = split_hn_blocks(degs) if kind == "hn" else None
        bundle = BundleOverCurve(len(degs), sum(degs), genus, hn)
    c = draw(st.integers(1, bundle.rank - 2))
    k = draw(st.lists(st.integers(2, 6), min_size=c, max_size=c))
    y = draw(st.lists(st.integers(-10, 10), min_size=c, max_size=c))
    return RelativeCI(bundle, tuple(k), tuple(y))


class TestInstanceCodec:
    @given(instances())
    def test_round_trip(self, X):
        doc = instance_to_json(X)
        X2 = instance_from_json(json.loads(json.dumps(doc)))
        assert X2 == X
        assert instance_to_json(X2) == doc


WRONG_SHAPES = {
    "bundle_list": {"bundle": [4, 4], "ci": {"k": [2], "y": [0]}},
    "hn_pairs": {"bundle": {"rank": 4, "degree": 4, "hn": [[4, 4]]}, "ci": {"k": [2], "y": [0]}},
    "ci_list": {"bundle": {"rank": 4, "degree": 4}, "ci": [[2], [0]]},
    "k_int": {"bundle": {"rank": 4, "degree": 4}, "ci": {"k": 5, "y": [0]}},
    "split_int": {"bundle": {"rank": 4, "degree": 4, "split": 7}, "ci": {"k": [2], "y": [0]}},
}


class TestWrongShapes:
    @pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
    def test_instance_exits_2(self, capsys, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(WRONG_SHAPES[name]), encoding="utf-8")
        code, out, err = run_main(capsys, "verdict", "-i", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("relci: invalid input:")

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run_main(capsys, "verdict", "-i", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("relci: invalid input:")

    # an absent key and a JSON null read alike
    @pytest.mark.parametrize("command, doc, field", [
        ("verdict", {"bundle": {"degree": 4}, "ci": {"k": [2], "y": [0]}}, "bundle.rank"),
        ("verdict", {"bundle": {"rank": 4, "degree": None}, "ci": {"k": [2], "y": [0]}},
         "bundle.degree"),
        ("contact", {"weights": ["1"] * 4, "y": {"deg": 2, "e_f": "4"},
                     "z": {"dim": 2, "deg": 3, "e_f": "6"}}, "y.dim"),
    ], ids=["rank_absent", "degree_null", "contact_dim_absent"])
    def test_missing_integer_field_exits_2(self, capsys, tmp_path, command, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_main(capsys, command, "-i", str(path))
        assert (code, out, err) == (2, "", f"relci: invalid input: {field}: missing\n")

    def test_contact_node_list_exits_2(self, capsys, tmp_path):
        payload = {"weights": ["1", "1", "1", "1"], "y": {"dim": 1, "deg": 2, "e_f": "4"}, "z": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_main(capsys, "contact", "-i", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("relci: invalid input:")


class TestWorkLimits:
    """Inputs just above a documented limit exit 2 before any subset table is built."""

    @pytest.fixture(autouse=True)
    def no_tables(self, monkeypatch):
        def refuse(k, y):
            raise AssertionError("a subset table was built")

        rebind(monkeypatch, exact.signed_subset_tables, refuse)

    def assert_rejected(self, capsys, *argv):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("relci: invalid input:") and "above the limit" in err

    @pytest.mark.parametrize("argv", [["verdict"], ["invariants"], ["sweep"], ["cones", "-c", "1"]])
    def test_k_sum(self, capsys, tmp_path, argv):
        inst = {"bundle": {"rank": 4, "degree": 0}, "ci": {"k": [2, MAX_K_SUM - 1], "y": [0, 0]}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        self.assert_rejected(capsys, *argv, "-i", str(path))

    @pytest.mark.parametrize("command", ["verdict", "invariants", "sweep"])
    def test_rank(self, capsys, monkeypatch, tmp_path, command):
        def refuse(X):
            raise AssertionError("a stable polynomial was built")

        rebind(monkeypatch, invariants._stable_poly, refuse)
        for rank in (MAX_RANK, MAX_RANK + 1):
            inst = {"bundle": {"rank": rank, "degree": 0}, "ci": {"k": [2], "y": [0]}}
            (tmp_path / f"{rank}.json").write_text(json.dumps(inst), encoding="utf-8")
        # the largest rank within the limit gets as far as the tables
        with pytest.raises(AssertionError, match="a subset table was built"):
            main([command, "-i", str(tmp_path / f"{MAX_RANK}.json")])
        self.assert_rejected(capsys, command, "-i", str(tmp_path / f"{MAX_RANK + 1}.json"))

    def test_sweep_h_max(self, capsys, worked_file):
        self.assert_rejected(capsys, "sweep", "-i", worked_file, "--h-max", str(MAX_TWIST + 1))

    def test_invariants_h(self, capsys, worked_file):
        # the largest twist within the limit gets as far as the tables
        with pytest.raises(AssertionError, match="a subset table was built"):
            main(["invariants", "-i", worked_file, "-h", str(MAX_TWIST)])
        self.assert_rejected(capsys, "invariants", "-i", worked_file, "-h", str(MAX_TWIST + 1))

    def test_invariants_h_checked_before_the_file_is_read(self, capsys, tmp_path):
        self.assert_rejected(capsys, "invariants", "-i", str(tmp_path / "missing.json"), "-h", str(10**2200))

    def test_oracle_work(self, capsys, monkeypatch, worked_file):
        def refuse(X, h_max):
            raise AssertionError(f"cross_check ran at h_max {h_max}")

        rebind(monkeypatch, oracles.cross_check, refuse)
        # worked: c = 2, r = 4; the largest h_max within the limit is the last one run
        h_max = max(h for h in range(100) if 2**2 * comb(h + 4, 4) <= MAX_ORACLE_WORK)
        with pytest.raises(AssertionError, match=f"h_max {h_max}$"):
            main(["oracle", "-i", worked_file, "--h-max", str(h_max)])
        self.assert_rejected(capsys, "oracle", "-i", worked_file, "--h-max", str(h_max + 1))


    @pytest.mark.parametrize("flag, limit", [("--r", MAX_RANK), ("--a", MAX_K_SUM), ("--m", MAX_K_SUM)])
    def test_example(self, capsys, monkeypatch, flag, limit):
        def refuse(*args):
            raise AssertionError("the example family was built")

        bounds = {"--a": MAX_K_SUM, "--r": MAX_RANK, "--c": MAX_RANK - 2, "--m": MAX_K_SUM}
        for orientation in ("as-written", "swapped"):  # at the bounds it runs
            code, out, _ = run_main(capsys, "example", *self.flags(bounds), "--orientation", orientation)
            assert code == 0 and json.loads(out)["result"]["bundle"]["rank"] == str(MAX_RANK)
        rebind(monkeypatch, verdicts.build_example, refuse)
        self.assert_rejected(capsys, "example", *self.flags({**bounds, flag: limit + 1}))

    @staticmethod
    def flags(values):
        return [word for flag, value in values.items() for word in (flag, str(value))]


class TestParser:
    @pytest.mark.parametrize("command", sorted(cli.build_parser()._subparsers._group_actions[0].choices))
    def test_subcommand_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: relci {command} ")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert (exc.value.code, capsys.readouterr().out) == (0, "relci 0.1.0\n")


class TestDocumentedLimits:
    """``relci --help`` names every bounded input with the limit ``relci.cli`` enforces."""

    BOUNDED = [(("ci.k",), MAX_K_SUM), (("bundle.rank",), MAX_RANK), (("oracle",), MAX_ORACLE_WORK)]
    BOUNDED += [((command, flag), limit)
                for command, limits in _FLAG_LIMITS.items() for flag, _, limit in limits]

    @pytest.mark.parametrize("words, limit", BOUNDED, ids=[" ".join(w) for w, _ in BOUNDED])
    def test_epilog(self, capsys, monkeypatch, words, limit):
        monkeypatch.setenv("COLUMNS", "1000")  # the epilog on one line
        with pytest.raises(SystemExit):
            main(["--help"])
        epilog = capsys.readouterr().out.strip().split("\n\n")[-1]
        assert epilog.startswith("limits: ")
        clause = next(c for c in epilog.split("; ") if all(w in c for w in words))
        assert str(limit) in clause


TOO_LONG = (f"relci: invalid input: a reported number has more than {sys.get_int_max_str_digits()} "
            f"digits, the interpreter's limit for decimal output\n")


class TestUnwritableReports:
    """A report that cannot be printed or written exits 2 with one line on stderr."""

    @pytest.mark.parametrize("argv", [["verdict"], ["invariants", "-h", "100"], ["sweep", "--h-max", "40"]],
                             ids=["verdict", "invariants", "sweep"])
    def test_number_past_the_digit_limit(self, capsys, tmp_path, argv):
        # inside every documented limit, yet h_top has more digits than str() may print
        inst = {"bundle": {"rank": 200, "degree": 10**4000}, "ci": {"k": [300], "y": [1]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, out, err = run_main(capsys, *argv, "-i", str(path))
        assert (code, out) == (2, "")
        assert err == TOO_LONG

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
    def test_margin_row_past_the_digit_limit(self, capsys, monkeypatch, worked_file, pretty):
        # only the second row is past the limit; the rest of the report is short
        result = verdicts.SweepResult(margins=(1, -(10**4300), 0), stable_poly=(Fraction(1, 2),),
                                      sign_stable_from=6, eventual_sign=1)
        monkeypatch.setattr(cli, "h_sweep", lambda X, h_max: result)
        code, out, err = run_main(capsys, "sweep", "-i", worked_file, "--h-max", "3", *pretty)
        assert (code, out, err) == (2, "", TOO_LONG)

    def test_verdict_exits_before_the_stable_polynomial(self, capsys, monkeypatch, tmp_path):
        # the small-twist band's margins are already past the limit
        inst = {"bundle": {"rank": 200, "degree": 10**4000}, "ci": {"k": [300], "y": [1]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        true_poly, calls = invariants.stable_margin_poly, Counter()

        def counted(X):
            calls["stable_margin_poly"] += 1
            return true_poly(X)

        rebind(monkeypatch, true_poly, counted)
        code, out, err = run_main(capsys, "verdict", "-i", str(path))
        assert (code, out, err) == (2, "", TOO_LONG)
        assert calls["stable_margin_poly"] == 0

    def test_svg_threshold_past_the_digit_limit(self, capsys, tmp_path):
        # four 4300-digit slopes; the two largest sum past what str() may print
        a = 6 * 10**4299
        hn = [(1, a), (1, a - 1), (1, 2 - a), (1, 1 - a)]
        inst = {"bundle": {"rank": 4, "degree": 2, "hn": [{"rank": r, "degree": d} for r, d in hn]},
                "ci": {"k": [2], "y": [0]}}
        path, svg = tmp_path / "huge.json", tmp_path / "huge.svg"
        path.write_text(json.dumps(inst), encoding="utf-8")
        code, out, err = run_main(capsys, "cones", "-i", str(path), "-c", "2", "--svg", str(svg))
        assert (code, out) == (2, "") and not svg.exists()
        assert err.startswith("relci: invalid input:") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing/x.svg", "."], ids=["missing_dir", "directory"])
    def test_svg_path(self, capsys, tmp_path, target):
        split210 = str(DEMOS / "instances" / "split210.json")
        code, out, err = run_main(capsys, "cones", "-i", split210, "-c", "1", "--svg", str(tmp_path / target))
        assert (code, out) == (2, "")
        assert err.startswith("relci: invalid input: cannot write ") and err.count("\n") == 1


NINES = int("9" * 4300)  # the longest integer JSON decodes; two of them sum past str()'s limit
INSTANCE = {"bundle": {"rank": 4, "degree": 4}, "ci": {"k": [3, 3], "y": [1, 2]}}
LONG_INPUTS = {
    "k_sum": ("verdict", {**INSTANCE, "ci": {"k": [NINES, NINES], "y": [1, 2]}},
              "ci.k sums to an int of 4301 digits,"),
    "split_sum": ("verdict", {**INSTANCE, "bundle": {"rank": 4, "degree": 4, "split": [NINES, NINES, 1, 1]}},
                  "(4, an int of 4301 digits), file says (4, 4)"),
    "bundle_list": ("verdict", {**INSTANCE, "bundle": list(range(200_000))},
                    "bundle must be an object, got a list of length 200000"),
    "rank_digits": ("verdict", {**INSTANCE, "bundle": {"rank": NINES, "degree": 4}},
                    "bundle.rank an int of 4300 digits is above the limit"),
    "rank_negative": ("verdict", {**INSTANCE, "bundle": {"rank": -NINES, "degree": 4}},
                      "bundle rank must be >= 2, got an int of 4300 digits"),
    "rank_text": ("verdict", {**INSTANCE, "bundle": {"rank": "x" * 10**6, "degree": 4}},
                  "bundle.rank: expected an integer, got a str of length 1000000"),
    "e_f": ("contact", {"weights": ["1"] * 4, "y": {"dim": 1, "deg": 2, "e_f": "1" * 500_000},
                        "z": {"dim": 2, "deg": 3, "e_f": "6"}},
            "y.e_f: not a rational: a str of length 500000"),
    "contact_dim": ("contact", {"weights": ["1"] * 4, "y": {"dim": NINES, "deg": 2, "e_f": "1"},
                                "z": {"dim": 2, "deg": 3, "e_f": "6"}},
                    "dimension an int of 4300 digits out of range 0..3"),
    "contact_deg": ("contact", {"weights": ["1"] * 4, "y": {"dim": 1, "deg": -NINES, "e_f": "1"},
                                "z": {"dim": 2, "deg": 3, "e_f": "6"}},
                    "degree must be >= 1, got an int of 4300 digits"),
}


class TestLongInputsInMessages:
    """An exit-2 message names a long input by its type and size, on one short line."""

    @pytest.mark.parametrize("name", sorted(LONG_INPUTS))
    def test_one_short_line(self, capsys, tmp_path, name):
        command, doc, words = LONG_INPUTS[name]
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_main(capsys, command, "-i", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("relci: invalid input:") and words in err
        assert err.count("\n") == 1 and len(err.encode()) < 300

    # a value prints whole up to 60 characters, or 60 digits
    @pytest.mark.parametrize("rank, tail", [
        ("x" * 58, f"got {'x' * 58!r} (str)"), ("x" * 59, "got a str of length 59 (str)"),
        (10**59, f"file says ({10**59}, 4)"), (-(10**60), "file says (an int of 61 digits, 4)"),
    ], ids=["str_58", "str_59", "int_60_digits", "int_61_digits"])
    def test_short_values_print_whole(self, capsys, tmp_path, rank, tail):
        path = tmp_path / "rank.json"
        bundle = {"rank": rank, "degree": 4, "split": [1, 1, 1, 1]}
        path.write_text(json.dumps({**INSTANCE, "bundle": bundle}), encoding="utf-8")
        code, _, err = run_main(capsys, "verdict", "-i", str(path))
        assert code == 2 and err.endswith(f"{tail}\n")

    @pytest.mark.parametrize("rank", [1, -(10**59)])
    def test_short_rank_prints_whole(self, capsys, tmp_path, rank):
        path = tmp_path / "rank.json"
        path.write_text(json.dumps({**INSTANCE, "bundle": {"rank": rank, "degree": 4}}), encoding="utf-8")
        code, _, err = run_main(capsys, "verdict", "-i", str(path))
        assert (code, err) == (2, f"relci: invalid input: bundle rank must be >= 2, got {rank}\n")

    # flags that only the library bounds: the library names the value by its size
    @pytest.mark.parametrize("argv, words", [
        (["cones", "-c", "9" * 4000], "codimension an int of 4000 digits out of range 1..3"),
        (["example", "--a", "1", "--r", "4", "--m", "1", "--c", "9" * 4000],
         "codimension an int of 4000 digits out of range 1..2"),
        (["invariants", "-h", "-" + "9" * 4000], "twist h must be >= 0, got an int of 4000 digits"),
        (["sweep", "--h-max", "-" + "9" * 4000], "h_max must be >= 1, got an int of 4000 digits"),
        (["oracle", "--h-max", "-" + "9" * 4000], "h_max must be >= 0, got an int of 4000 digits"),
        (["oracle", "--h-max", "1" + "0" * 4000],
         "oracle work 2^2 * C(an int of 4001 digits + 4, 4) is above the limit 200000"),
    ], ids=["cones", "example", "invariants", "sweep", "oracle", "oracle_work"])
    def test_library_flag_messages(self, capsys, worked_file, argv, words):
        instance = [] if argv[0] == "example" else ["-i", worked_file]
        code, out, err = run_main(capsys, *argv, *instance)
        assert (code, out, err) == (2, "", f"relci: invalid input: {words}\n")
        assert len(err.encode()) < 200

    # argparse prints its usage line before the message
    @pytest.mark.parametrize("value, line", [
        ("9" * 100_000, "relci invariants: error: argument -h: invalid int value: a str of length 100000"),
        ("9" * 4000, "relci: invalid input: -h an int of 4000 digits is above the limit 10000"),
        ("abc", "relci invariants: error: argument -h: invalid int value: 'abc'"),
    ], ids=["not_an_int", "above_the_limit", "short"])
    def test_integer_flag(self, capsys, worked_file, value, line):
        try:
            code = main(["invariants", "-i", worked_file, "-h", value])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.endswith(f"\n{line}\n") or err == f"{line}\n"
        assert len(err.encode()) < 300


# Any JSON value, with integers kept small: the caps on work are not under test.
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=8,
)


@st.composite
def contact_payloads(draw):
    """A valid ``contact`` input: weights on P^n and two subvarieties."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 8), min_size=n + 1, max_size=n + 1).filter(any))
    e_f = st.integers(0, 40) | st.builds("{}/{}".format, st.integers(0, 40), st.integers(1, 5))
    node = st.fixed_dictionaries({"dim": st.integers(0, n), "deg": st.integers(1, 4), "e_f": e_f})
    y, z = draw(node), draw(node)
    return {"weights": [str(w) for w in weights], "y": y, "z": z}


@st.composite
def scrambled(draw, documents):
    """A valid document with some of its slots dropped or replaced by any JSON value."""

    def walk(node):
        if draw(st.integers(0, 15)) == 5:
            return draw(JSON_TREES)
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items() if draw(st.integers(0, 31)) != 7}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return walk(draw(documents))


INSTANCE_TREES = scrambled(instances().map(instance_to_json))
CONTACT_TREES = scrambled(contact_payloads())


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("trees") / "input.json"


class TestAnyJsonShape:
    """Whatever JSON sits in the schema's slots, the exit code is 0 or 2."""

    def run(self, path, payload, *argv):
        path.write_text(json.dumps(payload), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "-i", str(path)])
        assert code in (0, 2), err.getvalue()
        assert (out.getvalue() == "") == (code == 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=INSTANCE_TREES)
    def test_verdict(self, input_file, payload):
        self.run(input_file, payload, "verdict")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=INSTANCE_TREES)
    def test_invariants(self, input_file, payload):
        self.run(input_file, payload, "invariants")

    @pytest.mark.parametrize("argv", [["sweep", "--h-max", "6"], ["cones", "-c", "1"], ["oracle", "--h-max", "2"]],
                             ids=["sweep", "cones", "oracle"])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=INSTANCE_TREES)
    def test_other_instance_commands(self, input_file, argv, payload):
        self.run(input_file, payload, *argv)

    @settings(max_examples=60, deadline=None)
    @given(payload=CONTACT_TREES)
    def test_contact(self, input_file, payload):
        self.run(input_file, payload, "contact")
