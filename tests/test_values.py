"""Value types are tuples: immutable, validated on ``_replace``, cheap to define.

Every value type of the package is a ``collections.namedtuple`` subclass.
Its fields cannot be assigned and it takes no new attributes, and
``_replace`` on a validated type runs the constructor's checks.  The
memo of a ``RelativeCI`` lives outside its fields, so it takes no part
in ``==`` or ``hash``.  Importing the front end loads neither
``dataclasses`` nor ``inspect`` (nor ``pathlib`` or ``typing``, on an
interpreter without site hooks), which a cold ``relci`` process would
otherwise pay for.  Of the package, ``import relci`` loads no module,
and ``import relci.cli`` loads every module but ``contact`` and ``svg``,
which only their own commands import.
"""

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from relci import (
    BundleOverCurve,
    ContactInstance,
    CycleClass,
    InputError,
    InternalCheckError,
    RelativeCI,
    VerdictReport,
    WeightFiltration,
    canonical_class,
    chow_expand,
    cross_check,
    h_sweep,
    mn_divisor_test,
    positivity_margins,
    pushforward,
    surface_formula_check,
)

# what ``import relci.cli`` loads of the package, sorted
FRONT_END_MODULES = ["relci", "relci.bundles", "relci.cli", "relci.errors", "relci.exact",
                     "relci.invariants", "relci.oracles", "relci.verdicts"]


def worked() -> RelativeCI:
    return RelativeCI(BundleOverCurve.split((1, 1, 1, 1)), (3, 3), (1, 2))


X = worked()
# name: (a call that builds a value of that type, a field); the kernels run in the test,
# so a fault in one fails that test, not the collection of the module
VALUES = {
    "BundleOverCurve": (lambda: X.bundle, "rank"),
    "CycleClass": (lambda: CycleClass(1, 1, 0), "p"),
    "RelativeCI": (lambda: X, "k"),
    "ContactInstance": (lambda: ContactInstance(3, 1, 2, 4), "deg"),
    "WeightFiltration": (lambda: WeightFiltration((1, 1, 1, 1)), "weights"),
    "VerdictReport": (lambda: VerdictReport("T", {}, "C", {}), "conclusion"),
    "PushforwardSummary": (lambda: pushforward(X, 2), "rank"),
    "CanonicalClass": (lambda: canonical_class(X), "h_coeff"),
    "SurfaceFormulaReport": (lambda: surface_formula_check(X), "ratio_holds"),
    "ChowSummary": (lambda: chow_expand(X), "kf_top"),
    "SweepResult": (lambda: h_sweep(X, 3), "margins"),
    "DivisorPositivity": (lambda: mn_divisor_test(X.bundle, 1, 0), "nef"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_assigned(name):
    build, field = VALUES[name]
    value = build()
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):  # a subclass without __slots__ = () would take it
        setattr(value, "extra", 1)


def test_cached_properties_cannot_be_assigned():
    with pytest.raises(AttributeError):
        worked().k_prod = 0


@pytest.mark.parametrize("value, change, error", [
    (X.bundle, {"rank": 1}, InputError),
    (CycleClass(1, 1, 0), {"codim": 0}, InputError),
    (X, {"k": (3, 1)}, InputError),
    (ContactInstance(3, 1, 2, 4), {"deg": 0}, InputError),
    (WeightFiltration((1, 1)), {"weights": (0, 0)}, InputError),
    (VerdictReport("T", {"gate": False}, "Undetermined", {}), {"conclusion": "C"}, InternalCheckError),
], ids=["BundleOverCurve", "CycleClass", "RelativeCI", "ContactInstance", "WeightFiltration",
        "VerdictReport"])
def test_replace_validates(value, change, error):
    with pytest.raises(error):
        value._replace(**change)


def test_replace_coerces_as_the_constructor_does():
    assert type(CycleClass(1, 1, 0)._replace(q=1).q) is Fraction
    assert X._replace(k=[3, 3]).k == (3, 3)
    split = BundleOverCurve.split((1, 1, 1, 1))  # == compares the line degrees as a tuple
    assert BundleOverCurve(4, 4, 0, split.hn, [1, 1, 1, 1]) == split
    assert split._replace(line_degrees=[1, 1, 1, 1]) == split


@pytest.mark.parametrize("build, message", [
    (lambda: RelativeCI(X.bundle, (3.7, 3), (1.9, 2)), "k: expected an integer, got 3.7 (float)"),
    (lambda: X._replace(y=(1, Fraction(2))), "y: expected an integer, got 2 (Fraction)"),
    (lambda: BundleOverCurve(4, 4.5), "degree: expected an integer, got 4.5 (float)"),
    (lambda: BundleOverCurve(4, 4, hn=((4, 4.0),)), "hn: expected an integer, got 4.0 (float)"),
    (lambda: BundleOverCurve.split((1, 0.0)), "line_degrees: expected an integer, got 0.0 (float)"),
    (lambda: BundleOverCurve(2, 1, 0, ((1, 1), (1, 0)), [1, 0.0]),
     "line_degrees: expected an integer, got 0.0 (float)"),
    (lambda: BundleOverCurve.split((1, 0))._replace(line_degrees=[1, 0.0]),
     "line_degrees: expected an integer, got 0.0 (float)"),
    (lambda: ContactInstance(3.0, 1.5, 2.5, 4), "ambient_n: expected an integer, got 3.0 (float)"),
    (lambda: CycleClass(1.5, 1, 0), "codim: expected an integer, got 1.5 (float)"),
    (lambda: CycleClass(True, 1, 0), "codim: expected an integer, got True (bool)"),
    # twist arguments: a bool twist would be memoised under its int key
    (lambda: pushforward(worked(), True), "h: expected an integer, got True (bool)"),
    (lambda: positivity_margins(worked(), 2.5), "h_max: expected an integer, got 2.5 (float)"),
    (lambda: cross_check(worked(), Fraction(3)), "h_max: expected an integer, got 3 (Fraction)"),
], ids=["RelativeCI", "RelativeCI._replace", "BundleOverCurve", "hn", "split", "line_degrees",
        "line_degrees._replace", "ContactInstance", "CycleClass", "bool", "pushforward",
        "positivity_margins", "cross_check"])
def test_integer_fields_reject_non_integers(build, message):
    # a float or an integral Fraction is refused, never truncated, and a bool is no integer
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_memo_stays_out_of_equality_and_hash():
    fresh, used = worked(), worked()
    positivity_margins(used, 5)
    pushforward(used, 9)
    assert used._memo != fresh._memo
    assert used == fresh and hash(used) == hash(fresh)
    assert used._replace(y=(1, 2))._memo == fresh._memo  # a new value starts with no memo


def test_front_end_import_loads_neither_dataclasses_nor_inspect(child_env):
    # against the interpreter's own start, so a site hook that loads modules cannot matter
    code = ("import json, sys; before = set(sys.modules); import relci.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "relci.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()
    # without site, whose hooks may load pathlib and typing, nothing in the process loads any;
    # the package loads no module of its own, and the front end only those its commands share
    code = ("import json, sys; "
            "mine = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'relci'); "
            "import relci; package = mine(); import relci.cli; front = mine(); "
            "heavy = sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & set(sys.modules)); "
            "print(json.dumps([package, front, heavy]))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=child_env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    package, front, heavy = json.loads(proc.stdout)
    assert package == ["relci"]
    assert front == FRONT_END_MODULES, (
        "import relci.cli must load exactly these: perfbench/tracer.py reads sys.modules for "
        "every layer it traces (exact, invariants, verdicts, bundles, oracles) right after "
        "import relci.cli, and contact and svg load only in the commands that run them")
    assert heavy == []
