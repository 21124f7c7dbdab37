"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports relci.  Ranks and degrees come from truncated power
series, intersection numbers from expanding the class of X in the cycle
ring, and the stable polynomial from forward differences of the
benchmark's own margins.  Each ``check_*`` function takes one parsed
report and returns ``"ok"``, ``"failed"`` (the operation ran into a
program fault that the benchmark names) or raises ``Mismatch`` (the
output is wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial

SIGN_WORD = {-1: "negative", 0: "zero", 1: "positive"}


class Mismatch(Exception):
    """A report disagrees with the reference arithmetic."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class Instance:
    """One instance file: bundle (rank r, degree d) and hypersurfaces (k_i, y_i)."""

    r: int
    d: int
    k: tuple[int, ...]
    y: tuple[int, ...]
    genus: int = 0
    hn: tuple[tuple[int, int], ...] | None = None
    split: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        bundle: dict = {"rank": self.r, "degree": self.d, "base_genus": self.genus}
        if self.split is not None:
            bundle["split"] = list(self.split)
        elif self.hn is not None:
            bundle["hn"] = [{"rank": a, "degree": b} for a, b in self.hn]
        return {"bundle": bundle, "ci": {"k": list(self.k), "y": list(self.y)}}

    @property
    def c(self) -> int:
        return len(self.k)

    @property
    def n(self) -> int:
        """Dimension of X."""
        return self.r - self.c

    @property
    def blocks(self) -> tuple[tuple[int, int], ...] | None:
        """Harder-Narasimhan blocks, top slope first, from split or hn."""
        if self.split is None:
            return self.hn
        out: list[list[int]] = []
        for a in sorted(self.split, reverse=True):
            if out and out[-1][1] == out[-1][0] * a:
                out[-1][0] += 1
                out[-1][1] += a
            else:
                out.append([1, a])
        return tuple((a, b) for a, b in out)

    @property
    def balanced(self) -> bool:
        return len(set(self.k)) == 1


def cycle_class(inst: Instance) -> tuple[int, int]:
    """(u, v) with [X] = u*H^c + v*H^(c-1)*S, expanding prod(k_i*H - y_i*S), S*S = 0."""
    u, v = 1, 0
    for ki, yi in zip(inst.k, inst.y):
        u, v = u * ki, v * ki - u * yi
    return u, v


@dataclass(frozen=True)
class Numbers:
    """Intersection numbers of X, from its cycle class."""

    fibre_deg: int  # prod(k): the H^c coefficient of [X]
    q: int  # the H^(c-1)S coefficient of [X]
    h_top: int  # [X] * H^n with H^r = d, H^(r-1)*S = 1
    alpha: int  # c*prod(k)*d + r*q


def numbers(inst: Instance) -> Numbers:
    u, v = cycle_class(inst)
    return Numbers(u, v, u * inst.d + v, inst.c * u * inst.d + inst.r * v)


def koszul_series(inst: Instance, top: int) -> tuple[list[int], list[int]]:
    """Rank and degree of f_*O_X(h) for h = 0..top, from truncated power series.

    rank: coefficients of P(t) / (1-t)^r with P = prod(1 - t^k_i);
    degree: coefficients of d*t*P(t) / (1-t)^(r+1) + Q(t) / (1-t)^r with
    Q = -sum_i y_i t^k_i prod_{j != i}(1 - t^k_j).  Division by (1-t) is a
    prefix sum, so no binomial coefficient is evaluated.
    """
    size = top + 1
    P = [1] + [0] * top
    Q = [0] * size
    for ki, yi in zip(inst.k, inst.y):
        # (P, Q) <- (P * (1 - t^k), Q * (1 - t^k) - y * t^k * P)
        nP, nQ = P[:], Q[:]
        for s in range(ki, size):
            nP[s] -= P[s - ki]
            nQ[s] -= Q[s - ki] + yi * P[s - ki]
        P, Q = nP, nQ
    rank = P
    for _ in range(inst.r):
        rank = list(accumulate(rank))
        Q = list(accumulate(Q))
    deg_part = list(accumulate([0] + [inst.d * p for p in rank[:-1]]))
    return rank, [a + b for a, b in zip(deg_part, Q)]


class Reference:
    """Everything the checks need about one instance, up to twist ``top``."""

    def __init__(self, inst: Instance, top: int = 0) -> None:
        self.inst = inst
        self.num = numbers(inst)
        self.h0 = max(1, sum(inst.k) - inst.r + 1)  # truncation no longer bites
        top = max(top, min(inst.k), sum(inst.k) - inst.r, self.h0 + inst.n)
        self.rank, self.deg = koszul_series(inst, top)
        self.poly = self._stable_poly()

    def reduced(self, h: int) -> int:
        """margin(h) / h^(n-1) = h*h_top*rank - n*prod(k)*deg, an integer."""
        nm = self.num
        return h * nm.h_top * self.rank[h] - self.inst.n * nm.fibre_deg * self.deg[h]

    def margin(self, h: int) -> int:
        return h ** (self.inst.n - 1) * self.reduced(h)

    def _stable_poly(self) -> list[Fraction]:
        """Power-basis coefficients through n+1 consecutive samples from h0.

        Forward differences give the binomial-basis form
        sum_j D^j * C(x - h0, j); it is expanded term by term.
        """
        n, h0 = self.inst.n, self.h0
        diffs, row = [], [self.reduced(h) for h in range(h0, h0 + n + 1)]
        while row:
            diffs.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        coeffs = [Fraction(0)] * (n + 1)
        basis = [Fraction(1)]  # falling product prod_{i<j} (x - h0 - i)
        for j, dj in enumerate(diffs):
            scale = Fraction(dj, factorial(j))
            for i, b in enumerate(basis):
                coeffs[i] += scale * b
            shift = -(h0 + j)
            basis = [(basis[i - 1] if i else 0) + (basis[i] * shift if i < len(basis) else 0)
                     for i in range(len(basis) + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    @property
    def eventual_sign(self) -> int:
        return sign(self.poly[-1]) if self.poly else 0

    def coeff(self, power: int) -> Fraction:
        return self.poly[power] if 0 <= power < len(self.poly) else Fraction(0)


ASYMPTOTIC_LABEL = {1: "StrictlyFPositiveEventually", -1: "NotFPositiveEventually", 0: "Boundary"}


def alpha_rule_contradicts(ref: Reference) -> bool:
    """Whether the label read off sign(alpha) contradicts the exact eventual sign.

    This is the fault of ``verdicts.asymptotic_verdict``, which labels by
    the sign of alpha alone; a zero alpha gives "Boundary", which
    contradicts no sign.
    """
    alpha, s = ref.num.alpha, ref.eventual_sign
    return (alpha > 0 and s <= 0) or (alpha < 0 and s >= 0)


# ------------------------------------------------------------------ reports


def numbers_are_strings(node, where: str = "report") -> None:
    """Every number in a report is a decimal string, never a JSON number."""
    if isinstance(node, dict):
        for key, val in node.items():
            numbers_are_strings(val, f"{where}.{key}")
    elif isinstance(node, list):
        for i, val in enumerate(node):
            numbers_are_strings(val, f"{where}[{i}]")
    else:
        expect(node is None or isinstance(node, (str, bool)), f"{where} is a JSON number")


def check_envelope(report: dict, command: str, inst: Instance | None) -> None:
    numbers_are_strings(report)
    expect(report.get("command") == command, "command field")
    expect(report.get("tool", {}).get("name") == "relci", "tool name")
    if inst is None:
        return
    bundle = report["input"]["bundle"]
    blocks = inst.blocks
    expect(bundle["rank"] == str(inst.r) and bundle["degree"] == str(inst.d)
           and bundle["base_genus"] == str(inst.genus), "echoed bundle")
    expect(bundle["hn"] == ([{"rank": str(a), "degree": str(b)} for a, b in blocks] if blocks else None),
           "echoed hn")
    expect(bundle["split"] == ([str(a) for a in inst.split] if inst.split is not None else None),
           "echoed split")
    expect(report["input"]["ci"] == {"k": [str(v) for v in inst.k], "y": [str(v) for v in inst.y]},
           "echoed ci")
    mu1 = Fraction(blocks[0][1], blocks[0][0]) if blocks else None
    bad = sum(1 for ki, yi in zip(inst.k, inst.y) if mu1 is not None and Fraction(yi, ki) > mu1)
    expect(len(report["warnings"]) == bad, "effectivity warnings")


def check_invariants(report: dict, ref: Reference, h: int) -> str:
    inst, nm = ref.inst, ref.num
    check_envelope(report, "invariants", inst)
    res = report["result"]
    a, b = sum(inst.k) - inst.r, sum(inst.y) - inst.d
    want = {
        "h": str(h), "h_top": str(nm.h_top), "fibre_deg": str(nm.fibre_deg),
        "rank": str(ref.rank[h]), "deg": str(ref.deg[h]), "alpha": str(nm.alpha),
        "canonical": {"h_coeff": str(a), "fibre_coeff": str(b), "general_type_fibres": a > 0},
        "kf_top": str(a ** inst.n * nm.h_top - inst.n * a ** (inst.n - 1) * b * nm.fibre_deg),
    }
    if h >= 1:
        m = ref.margin(h)
        want["e_cleared"] = str(m)
        want["e_rational"] = str(Fraction(m, ref.rank[h])) if ref.rank[h] > 0 else None
        want["sign"] = SIGN_WORD[sign(m)]
    for key, val in want.items():
        expect(res.get(key) == val, f"invariants.{key}: {res.get(key)!r} != {val!r}")
    return "ok"


def _thresholds(blocks, c: int, mu: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Nef, bridge and Pseff thresholds: sums of the c smallest virtual slopes, c*mu, the c largest."""
    slopes = sorted((Fraction(b, a) for a, b in blocks for _ in range(a)), reverse=True)
    return sum(slopes[-c:]), c * mu, sum(slopes[:c])


def _region(thresholds, ratio: Fraction) -> str:
    names = (("InsideNef", "NefBoundary"), ("InsideBridgeOutsideNef", "BridgeBoundary"),
             ("InsidePseffOutsideBridge", "PseffBoundary"))
    for t, (inside, edge) in zip(thresholds, names):
        if ratio < t:
            return inside
        if ratio == t:
            return edge
    return "OutsidePseff"


def check_verdict(report: dict, ref: Reference) -> str:
    """Check every verdict; "failed" when the asymptotic label shows the alpha-rule fault."""
    inst, nm = ref.inst, ref.num
    check_envelope(report, "verdict", inst)
    res = report["result"]
    r, c, n, k_sum, y_sum = inst.r, inst.c, inst.n, sum(inst.k), sum(inst.y)
    mu = Fraction(inst.d, r)
    ratio_sum = sum(Fraction(yi, ki) for ki, yi in zip(inst.k, inst.y))

    small = res["small_h"]
    expect(small["conclusion"] == ("FPositiveAllSmallH" if nm.alpha >= 0 else "NotFPositiveSmallH"),
           "small_h holds iff alpha >= 0")
    expect(small["witnesses"] == {
        "alpha": str(nm.alpha), "c_mu": str(c * mu), "ratio_sum": str(ratio_sum),
        "margins": {str(h): str(ref.margin(h)) for h in range(1, min(inst.k))},
    }, "small_h witnesses")

    asym = res["asymptotic"]["witnesses"]
    expect(len(ref.poly) - 1 <= n - 1, "stable polynomial degree <= dim X - 1")
    expect(asym == {
        "alpha": str(nm.alpha), "stable_poly_degree": str(len(ref.poly) - 1),
        "stable_leading_coeff": str(ref.poly[-1] if ref.poly else 0),
        "next_coeff": str(ref.coeff(n - 1)), "exact_eventual_sign": str(ref.eventual_sign),
    }, f"asymptotic witnesses {asym}")
    if inst.balanced:
        k = inst.k[0]
        lead = Fraction(nm.fibre_deg * (k - 1) * nm.alpha, 2 * factorial(n - 1))
        expect(ref.coeff(n - 1) == lead, "balanced leading coefficient")
        expect(nm.alpha == 0 or ref.eventual_sign == sign(nm.alpha), "balanced sign is sign(alpha)")

    slope = res["slope"]
    gates = {"balanced": inst.balanced, "degree_above_one": min(inst.k) > 1,
             "canonical_relatively_ample": inst.balanced and c * inst.k[0] > r}
    expect(slope["hypotheses"] == gates, "slope gates")
    if all(gates.values()):
        h0 = k_sum - r
        a, b = h0, y_sum - inst.d
        crit = mu >= Fraction(y_sum, c * inst.k[0])
        expect(slope["conclusion"] == ("SlopeHolds" if crit else "SlopeFails"),
               "slope holds iff mu >= y_sum/(c*k)")
        expect(slope["witnesses"] == {
            "kf_top": str(a ** n * nm.h_top - n * a ** (n - 1) * b * nm.fibre_deg),
            "margin": str(ref.margin(h0)), "mu": str(mu), "ratio": str(Fraction(y_sum, c * inst.k[0])),
        }, "slope witnesses")
    else:
        expect(slope["conclusion"] == "Undetermined", "slope undetermined off its gates")

    inst_v = res["instability"]
    excess = ratio_sum > c * mu
    expect(inst_v["conclusion"] == ("ChowUnstableFibres" if excess else "NoConclusion"),
           "instability holds iff sum y_i/k_i > c*mu")
    expect(inst_v["hypotheses"] == {"ratio_exceeds_bridge": excess}, "instability gate")

    u, v = nm.fibre_deg, nm.q
    cone = res["cone"]
    expect(cone["class"] == {"p": str(u), "q": str(v)}, "cycle class")
    ratio = Fraction(-v, u)
    if inst.blocks:
        nef, bridge, pseff = _thresholds(inst.blocks, c, mu)
        region = _region((nef, bridge, pseff), ratio)
        expect(cone["region"] == region, f"cone region {cone['region']} != {region}")
        expect(cone["thresholds"] == {"nef": str(nef), "bridge": str(bridge), "pseff": str(pseff)},
               "cone thresholds")
    else:
        want = "Inside" if ratio < c * mu else "Boundary" if ratio == c * mu else "Outside"
        expect(cone["bridge_membership"] == want, "bridge membership")

    # The program labels by sign(alpha); where that label contradicts the
    # exact eventual sign, the operation ran into the named fault.  A label
    # read off the exact sign is the mended answer and passes; any other
    # label is wrong output.
    label = res["asymptotic"]["conclusion"]
    by_alpha = ASYMPTOTIC_LABEL[sign(nm.alpha)]
    if label == by_alpha and alpha_rule_contradicts(ref):
        return "failed"
    expect(label in (by_alpha, ASYMPTOTIC_LABEL[ref.eventual_sign]),
           f"asymptotic label {label} for alpha {nm.alpha}, exact sign {ref.eventual_sign}")
    return "ok"


def check_sweep(report: dict, ref: Reference, h_max: int) -> str:
    inst = ref.inst
    check_envelope(report, "sweep", inst)
    res = report["result"]
    margins = res["margins"]
    expect(len(margins) == h_max, "sweep length")
    poly = [Fraction(x) for x in res["stable_poly_coeffs"]]
    expect(poly == ref.poly, "stable polynomial coefficients")
    expect(len(poly) - 1 <= inst.n - 1, "stable polynomial degree <= dim X - 1")
    start = int(res["sign_stable_from"])
    expect(start >= sum(inst.k), "sign_stable_from >= k_sum")
    expect(res["eventual_sign"] == SIGN_WORD[ref.eventual_sign], "eventual sign")
    for h, row in enumerate(margins, start=1):
        m = ref.margin(h)
        expect(row == {"h": str(h), "e_cleared": str(m), "sign": SIGN_WORD[sign(m)]},
               f"sweep margin at h={h}")
        if h >= ref.h0:
            at = sum(cf * h ** i for i, cf in enumerate(poly))
            expect(m == h ** (inst.n - 1) * at, f"margin = h^(n-1)*poly(h) at h={h}")
        if h > start:
            expect(sign(m) == ref.eventual_sign, f"sign after sign_stable_from at h={h}")
    return "ok"


def check_cones(report: dict, inst: Instance, c: int, svg: str | None) -> str:
    check_envelope(report, "cones", inst)
    res = report["result"]
    blocks = inst.blocks
    nef, bridge, pseff = _thresholds(blocks, c, Fraction(inst.d, inst.r))
    want = [{"label": label, "threshold": str(t), "ray1": {"p": "0", "q": "1"},
             "ray2": {"p": "1", "q": str(-t)}}
            for label, t in (("Pseff", pseff), ("Bridge", bridge), ("Nef", nef))]
    expect(res == {"codim": str(c), "cones": want, "coincide": len(blocks) == 1, "svg": svg},
           "cones result")
    return "ok"


def check_oracle(report: dict, inst: Instance, h_max: int) -> str:
    check_envelope(report, "oracle", inst)
    res = report["result"]
    expect(res["mismatches"] == [], "oracle reports no mismatches")
    expect(res["status"] == "all 4 oracle suites passed", "oracle status")
    expect(res["checks"] == {"sym_closed_form": str(7 * (h_max + 1)), "koszul_vs_degree": str(h_max + 1),
                             "hilbert_vs_rank": str(h_max + 1), "chow_vs_closed_forms": "5"},
           "oracle check counts")
    return "ok"


def _hm(dim: int, deg: int, e_f: Fraction, weights: list[Fraction]) -> str:
    lhs = e_f / ((dim + 1) * deg)
    rhs = sum(weights) / len(weights)
    return "Stable" if lhs < rhs else "Semistable" if lhs == rhs else "Unstable"


def check_contact(report: dict, data: dict) -> str:
    check_envelope(report, "contact", None)
    w = [Fraction(x) for x in data["weights"]]
    y, z = data["y"], data["z"]
    ey, ez = Fraction(y["e_f"]), Fraction(z["e_f"])
    dim = y["dim"] + z["dim"] - (len(w) - 1)
    deg = y["deg"] * z["deg"]
    e_f = y["deg"] * ez + z["deg"] * ey - deg * sum(w)
    expect(report["result"] == {
        "y_status": _hm(y["dim"], y["deg"], ey, w),
        "z_status": _hm(z["dim"], z["deg"], ez, w),
        "intersection": {"dim": str(dim), "deg": str(deg), "e_f": str(e_f), "status": _hm(dim, deg, e_f, w)},
    }, "contact result")
    return "ok"


def check_example(report: dict, a: int, r: int, c: int, m: int, orientation: str) -> str:
    check_envelope(report, "example", None)
    big, small = m * (r * a - 1), m * (r + 1)
    k, y = (big, small) if orientation == "as-written" else (small, big)
    ratio, mu = Fraction(y, k), Fraction(r * a - 1, r)
    checks = {"effective": ratio <= a, "base_locus_on_section": ratio > a - 1,
              "instability_excess": c * ratio > c * mu}
    res = report["result"]
    expect(res["bundle"] == {"rank": str(r), "degree": str(r * a - 1),
                             "hn": [{"rank": str(r - 1), "degree": str(a * (r - 1))},
                                    {"rank": "1", "degree": str(a - 1)}]}, "example bundle")
    expect(res["ci"] == {"k": [str(k)] * c, "y": [str(y)] * c}, "example ci")
    verdict = res["verdict"]
    expect(verdict["hypotheses"] == checks, "example checks")
    expect(verdict["conclusion"] == ("UnstableFamily" if all(checks.values()) else "Undetermined"),
           "example conclusion")
    return "ok"
