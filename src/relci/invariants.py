"""Numerical invariants of relative complete intersections.

The object of study is X, the intersection of c relative hypersurfaces
inside the projective bundle P of a rank-r degree-d bundle E over a
curve, the i-th hypersurface living in the linear system
|k_i * H - y_i * S| with k_i >= 2 (H the tautological divisor, S a
fibre).  The induced fibration f: X -> B has (r-c-1)-dimensional fibres
F, themselves complete intersections of multidegree (k_1, ..., k_c) in
projective (r-1)-space.

Everything here is an exact integer or rational identity in the data
(r, d, k, y, h):

* top self-intersection of the tautological class on X and on F;
* rank and degree of the pushforward of O_X(h), together from one
  alternating Koszul sum over index subsets (``pushforward``, memoised
  on the instance by twist, one binomial per run of nonzero table
  levels; its global /r always cancels, asserted), or for a run
  h = 0..H of twists (``positivity_margins``) from running sums of the
  subset tables up to dim X + 1 twists past k_sum - r and of the
  margin's differences beyond, held to ``pushforward`` at its last
  twist;
* the positivity margin of O_X(h): the inequality

      h^(r-c) * H_X^(r-c) * rank - (r-c) * h^(r-c-1) * H_F^(r-c-1) * deg  >=  0

  expresses that O_X(h) spreads at least as positively as its fibre
  restriction demands.  Margins are plain integers in this cleared
  form; the command line derives the rational margin (divided by the
  rank), so sign questions never touch a division;
* the stable margin polynomial, margin(h) / h^(dim X - 1) for large h,
  in closed form from the moments of the subset tables at t = 1, taken
  to monomials by Horner's rule; the moments below order c vanish and
  the degree-(dim X) coefficient cancels (both asserted);
* the alpha invariant  c * prod(k) * d - r * sum_i (prod(k)/k_i) * y_i,
  a positive multiple of  c*mu(E) - sum_i y_i/k_i, whose sign settles
  the small-twist margins outright;
* the relative canonical class (k_J - r) * H_X - (y_J - d) * F, its top
  power, and the margin of the corresponding slope inequality, computed
  both directly and through the twist-invariance of margins (the two
  cleared values agree exactly, and this is asserted);
* the closed surface formulas of balanced data (all k_i equal,
  c = r - 2), checked against the direct values.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import comb, prod
from operator import mul

from .bundles import BundleOverCurve, CycleClass, mn_divisor_test
from .errors import HypothesisError, InputError, InternalCheckError, integer, shown
from .exact import binom_trunc, signed_subset_tables

__all__ = [
    "RelativeCI",
    "PushforwardSummary",
    "CanonicalClass",
    "SurfaceFormulaReport",
    "h_top",
    "fibre_deg",
    "pushforward",
    "alpha_invariant",
    "positivity_margin",
    "positivity_margins",
    "stable_margin_poly",
    "canonical_class",
    "canonical_top_power",
    "omega_pushforward",
    "canonical_margin",
    "surface_formula_check",
    "ci_class",
    "effectivity_violations",
]


class RelativeCI(namedtuple("RelativeCI", "bundle k y")):
    """A codimension-c complete intersection in the projective bundle of E.

    ``k[i]`` is the tautological degree of the i-th hypersurface and
    ``y[i]`` the degree of its base-curve twist.  Requires
    1 <= c <= rank - 2 (so the fibres have positive dimension) and
    every k[i] >= 2.  No ``__slots__``: the cached properties below
    live in the instance ``__dict__``, outside ``==`` and ``hash``.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __new__(cls, bundle: BundleOverCurve, k: tuple[int, ...], y: tuple[int, ...]) -> "RelativeCI":
        k, y = tuple(integer(v, "k") for v in k), tuple(integer(v, "y") for v in y)
        if len(k) != len(y):
            raise InputError("k and y must have the same length")
        if not 1 <= len(k) <= bundle.rank - 2:
            raise InputError(
                f"codimension {len(k)} out of range 1..{shown(bundle.rank - 2)} "
                f"for rank {shown(bundle.rank)}"
            )
        if any(ki < 2 for ki in k):
            raise InputError("every hypersurface degree k_i must be >= 2")
        return super().__new__(cls, bundle, k, y)

    def __setattr__(self, name: str, value: object) -> None:  # else a cached property would take it
        raise AttributeError(f"cannot set {name!r}: RelativeCI is immutable")

    @property
    def codim(self) -> int:
        return len(self.k)

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @property
    def degree(self) -> int:
        return self.bundle.degree

    @property
    def dim(self) -> int:
        """Dimension of X (fibre dimension plus one)."""
        return self.rank - self.codim

    @property
    def k_sum(self) -> int:
        return sum(self.k)

    @property
    def y_sum(self) -> int:
        return sum(self.y)

    @cached_property
    def k_prod(self) -> int:
        return prod(self.k)

    @cached_property
    def y_weight(self) -> int:
        """sum_i (prod(k)/k_i) * y_i, the S-part of the class of X up to sign."""
        p = self.k_prod
        return sum((p // ki) * yi for ki, yi in zip(self.k, self.y))

    @property
    def balanced(self) -> bool:
        return len(set(self.k)) == 1

    @cached_property
    def ratio_sum(self) -> Fraction:
        """sum_i y_i / k_i, the quantity compared against c * mu(E)."""
        return sum((Fraction(yi, ki) for ki, yi in zip(self.k, self.y)), Fraction(0))

    @cached_property
    def tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Signed subset tables (cnt, val) of (k, y), built once per instance."""
        cnt, val = signed_subset_tables(self.k, self.y)
        return tuple(cnt), tuple(val)

    @cached_property
    def _memo(self) -> dict:
        """Pushforwards by twist and the stable polynomial, per instance; not
        a field, so ``==`` and ``hash`` ignore it."""
        return {}


class PushforwardSummary(namedtuple("PushforwardSummary", "h rank degree")):
    """Rank and degree of the pushforward of O_X(h) along f."""

    __slots__ = ()


def h_top(X: RelativeCI) -> int:
    """Top self-intersection of the tautological class on X.

    Expanding the product of the c hypersurface classes against the
    relations S*S = 0, H^r = d, H^(r-1)*S = 1 leaves
    prod(k) * d - sum_i (prod(k)/k_i) * y_i.
    """
    return X.k_prod * X.degree - X.y_weight


def fibre_deg(X: RelativeCI) -> int:
    """Degree of a fibre of f in its projective space: prod(k)."""
    return X.k_prod


def pushforward(X: RelativeCI, h: int) -> PushforwardSummary:
    """Rank and degree of the pushforward of O_X(h), evaluated once per instance.

    Alternating sum over index subsets I, aggregated by their k-sum s,
    of binom(h - s + r - 1, r - 1) (the truncated-binomial convention
    kills the over-twisted terms s > h).  The rank (h^0 of O_F(h) on a
    fibre) weights each term by the signed count of subsets; the degree
    weights it by ((h - k_I) * d + y_I * r) / r.  One binomial per level
    feeds both.  The levels are walked from s = min(h, k_sum) down,
    empty ones skipped: the first level of each run of nonzero levels
    takes its binomial from ``binom_trunc``, and each next level steps
    it exactly, C(m, r-1) = C(m-1, r-1) * m / (m-r+1) with
    m = h - s + r - 1 and m - r + 1 = h - s >= 1.  So a sparse table
    pays one ``comb`` per nonzero level and a dense one one per run.
    The global /r of the degree always cancels in the total; a
    non-integral result would mean a transcribed-formula bug and aborts
    hard.
    """
    h = integer(h, "h")  # so that the memo keys, and each summary's h, are ints
    if h < 0:
        raise InputError(f"twist h must be >= 0, got {shown(h)}")
    memo = X._memo
    pf = memo.get(h)
    if pf is None:
        pf = memo[h] = _koszul_sum(X, h)
    return pf


def _koszul_sum(X: RelativeCI, h: int) -> PushforwardSummary:
    r, d = X.rank, X.degree
    cnt, val = X.tables
    rank = num = b = 0  # b = C(h - s + r - 1, r - 1) at the level above, 0 past an empty one
    top = min(h, len(cnt) - 1)
    for s, c, v in zip(range(top, -1, -1), cnt[top::-1], val[top::-1]):
        if c or v:
            m = h - s + r - 1  # one more than at s + 1 inside a run
            b = b * m // (m - r + 1) if b else binom_trunc(m, r - 1)
            rank += c * b
            num += b * (c * (h - s) * d + v * r)
        else:
            b = 0
    if num % r:
        raise InternalCheckError(f"pushforward degree not integral: {shown(num)}/{shown(r)} "
                                 f"at h={shown(h)}")
    return PushforwardSummary(h, rank, num // r)


def alpha_invariant(X: RelativeCI) -> int:
    """c * prod(k) * d - r * sum_i (prod(k)/k_i) * y_i.

    Equal to r * prod(k) * (c*mu(E) - sum_i y_i/k_i), so its sign is
    exactly the sign of that slope comparison.  For balanced data it
    factors as k^(c-1) * (c*d*k - r*y_sum).
    """
    return X.codim * X.k_prod * X.degree - X.rank * X.y_weight


def positivity_margin(X: RelativeCI, h: int) -> int:
    """Cleared margin of the positivity inequality for O_X(h), h >= 1.

    h^n * h_top * rank - n * h^(n-1) * fibre_deg * deg with n = dim X;
    the rational margin divides it by the rank, at least r for h >= 1.
    """
    if h < 1:
        raise InputError(f"positivity margin needs h >= 1, got {shown(h)}")
    pf = pushforward(X, h)
    n = X.dim
    return h ** (n - 1) * (h * h_top(X) * pf.rank - n * fibre_deg(X) * pf.degree)


def positivity_margins(X: RelativeCI, h_max: int) -> tuple[int, ...]:
    """Cleared margins of O_X(h) for h = 1..h_max, from one run of pushforwards.

    The rank at h is the t^h coefficient of cnt(t) / (1 - t)^r, so r
    running sums of cnt give the ranks of a band of twists.  Since
    (h - s) * C(h-s+r-1, r-1) = r * C(h-s+r-1, r), the degree is
    d * sum_{j < h} rank(j) plus the t^h coefficient of val(t) / (1 - t)^r.
    The band runs both sums at once (``_runs``) and ends n + 1 twists
    past k_sum - r, n = dim X.  From there on rank and degree are
    polynomials in h of degree below n and at most n (see
    ``_stable_poly``), so E(h) = h * h_top * rank - n * fibre_deg * deg
    is one of degree at most n, and the margin is h^(n-1) * E(h).  The
    rest of the run continues E from the band's last n + 1 twists by n
    running sums (``_continue``).  Nothing is kept.  Rank and degree at
    h_max, by Newton's forward formula from those twists when the run
    goes past them, are held to ``pushforward`` (whose direct sum also
    asserts degree integrality), and the continued E to them at h_max; a
    mismatch aborts hard, so each margin is the one ``positivity_margin``
    returns.
    """
    h_max = integer(h_max, "h_max")
    if h_max < 1:
        raise InputError(f"h_max must be >= 1, got {shown(h_max)}")
    r, d, n = X.rank, X.degree, X.dim
    start = max(1, X.k_sum - r + 1)  # rank and degree are polynomials in h from here on
    h_run = min(h_max, start + n)
    ranks, vals = _runs(*X.tables, r, h_run + 1)
    degrees = [d * below + v for below, v in zip(accumulate(ranks, initial=0), vals)]
    top, nfib = h_top(X), n * fibre_deg(X)  # positivity_margin's formula, over the run
    e = [h * top * rank - nfib * degree
         for h, rank, degree in zip(range(1, h_run + 1), ranks[1:], degrees[1:])]
    if h_max > h_run:  # from the band's last n + 1 twists, start..h_run
        rank, degree = (sum(comb(h_max - start, j) * row[0]  # Newton's forward formula
                            for j, row in enumerate(_differences(t[start:])))
                        for t in (ranks, degrees))
        e += _continue(e[start - 1 :], h_max - h_run)
    else:
        rank, degree = ranks[h_max], degrees[h_max]
    pf = pushforward(X, h_max)
    if (pf.rank, pf.degree) != (rank, degree):
        raise InternalCheckError(
            f"run of twists disagrees with the Koszul sum at h={shown(h_max)}: rank, "
            f"degree {shown(rank)}, {shown(degree)} vs {shown(pf.rank)}, {shown(pf.degree)}"
        )
    last = h_max * top * rank - nfib * degree  # holds by construction inside the band
    if e[-1] != last:
        raise InternalCheckError(
            f"run of twists continued past h={shown(h_run)} disagrees with its rank and "
            f"degree at h={shown(h_max)}: E {shown(e[-1])} vs {shown(last)}"
        )
    twists = range(1, h_max + 1)  # h^(n-1) is h itself on a surface
    return tuple(map(mul, e, twists if n == 2 else map(pow, twists, repeat(n - 1))))


def _runs(cnt: tuple[int, ...], val: tuple[int, ...], r: int,
          length: int) -> tuple[list[int], list[int]]:
    """t^0..t^(length-1) of cnt(t) / (1 - t)^r and of val(t) / (1 - t)^r.

    r running sums of the packed coefficients (``_pack``), cut or
    zero-padded to ``length``, each then split into its balanced halves.
    """
    # the h-th sum weights val[s], s <= h < length, by C(h - s + r - 1, r - 1) <= this bound
    run, shift = _pack(cnt[:length], val[:length], comb(length + r - 2, r - 1))
    run += [0] * (length - len(run))
    for _ in range(r):
        run = list(accumulate(run))
    return _split(run, shift)


def _pack(cnt: tuple[int, ...], val: tuple[int, ...], bound: int) -> tuple[list[int], int]:
    """The packed coefficients (cnt[s] << shift) + val[s] of a linear pass, and the shift.

    No carry: if the pass weights each val[s] by at most ``bound`` in absolute
    value, it gives the pass over cnt times 2^shift plus w, the pass over val,
    with |w| <= sum|val| * bound < 2^(shift-2), which ``_split`` reads back as
    the balanced remainder mod 2^shift.
    """
    shift = sum(map(abs, val)).bit_length() + bound.bit_length() + 2
    return [(x << shift) + y for x, y in zip(cnt, val)], shift


def _split(packed: list[int], shift: int) -> tuple[list[int], list[int]]:
    """Each x = high * 2^shift + low with |low| < 2^(shift-1), as (highs, lows)."""
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    lows = [((x + half) & mask) - half for x in packed]
    return [(x - low) >> shift for x, low in zip(packed, lows)], lows


def _differences(values: list[int]) -> list[list[int]]:
    """The rows of forward differences of ``values``, orders 0..len(values)-1."""
    rows = [values]
    while len(values) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
        rows.append(values)
    return rows


def _continue(window: list[int], count: int) -> list[int]:
    """The next ``count`` values of the polynomial of degree < len(window) through ``window``.

    Its last difference is constant.  The differences of each lower order
    past the window are their value at the window's end plus the running
    sum of those one order higher, so len(window) - 1 running sums build
    the values.
    """
    ends = [row[-1] for row in _differences(window)]
    values = [ends.pop()] * count
    for end in reversed(ends):
        values[0] += end
        values = list(accumulate(values))
    return values


def stable_margin_poly(X: RelativeCI) -> tuple[Fraction, ...]:
    """Exact polynomial giving margin(h) / h^(dim X - 1) for h > k_sum - r.

    Its coefficients by power of h, trailing zeros trimmed (the zero
    polynomial is ``()``), built once per instance in closed form from
    the subset tables (see ``_stable_poly``) and memoised on it.  Its
    degree is at most dim X - 1: the degree-(dim X) coefficient cancels
    identically between the rank and degree parts, and this is asserted.
    """
    memo = X._memo
    poly = memo.get("stable_margin_poly")
    if poly is None:
        poly = memo["stable_margin_poly"] = _stable_poly(X)
    return poly


def _moments(cnt: tuple[int, ...], val: tuple[int, ...], count: int) -> tuple[list[int], list[int]]:
    """Coefficients of cnt(t) and val(t) in powers of (1 - t), orders 0..count-1.

    One pass for both tables, over the packed coefficients (``_pack``):
    repeated synthetic division by (t - 1), whose running sums of the
    coefficients, highest power first, end in the remainder (the next
    Taylor coefficient at t = 1) and leave the quotient before it.
    Zero-padded at the top, so orders past the degree come out 0.  Each
    packed moment then splits into its balanced halves.
    """
    # moment i < count weights val[s], s < len(val), by (-1)^i C(s, i), at most this (Vandermonde)
    packed, shift = _pack(cnt[::-1], val[::-1], comb(len(val) + count - 1, count - 1))
    rest = [0] * (count - len(cnt)) + packed
    moments = []
    for i in range(count):
        rest = list(accumulate(rest))
        moments.append((-1) ** i * rest.pop())
    return _split(moments, shift)


def _stable_poly(X: RelativeCI) -> tuple[Fraction, ...]:
    """The stable margin polynomial from the moments of the subset tables.

    If p(t) = sum_i b_i * (1 - t)^i, the coefficient of t^h in
    p(t) / (1 - t)^R is sum_{i < R} b_i * C(h + R-1-i, R-1-i) for
    h > deg p - R.  The rank is the case p = cnt, R = r.  Since
    (h - s) * C(h-s+r-1, r-1) = r * C(h-s+r-1, r), the degree is d times
    the case p = t * cnt, R = r + 1 (moments b_i - b_(i-1)), plus the
    case p = val, R = r.  All three hold for h > k_sum - r.

    One pass of ``_moments`` gives the moments of both tables.
    cnt = prod (1 - t^k_i) vanishes to order c at t = 1 and val to order
    c - 1, so no C(h + m, m) with m > dim X occurs; this is asserted, and
    so is the cancellation of the degree-(dim X) coefficient.  The basis
    goes to monomials in integers over the single denominator (dim X)!
    by Horner's rule in the basis: n! E(h) nests as multiply by (h + m),
    then add the order-(m - 1) term, from m = n down, so each order costs
    one pass of small multiples, not a product expanded and added.
    """
    r, c, n = X.rank, X.codim, X.dim
    b, v = _moments(*X.tables, r + 1)
    if any(b[:c]) or any(v[: c - 1]):
        raise InternalCheckError(
            f"subset table moments below order c = {shown(c)} (c - 1 for val) do not vanish: "
            f"cnt at orders {shown([i for i, x in enumerate(b[:c]) if x])}, "
            f"val at orders {shown([i for i, x in enumerate(v[: c - 1]) if x])}"
        )
    tb = [x - y for x, y in zip(b, [0, *b])]
    # coefficients of C(h + m, m), m = 0..n, in the rank and the degree
    rank_c = b[c:r][::-1] + [0]
    deg_c = [X.degree * x + y for x, y in zip(tb[c:][::-1], v[c - 1 : r][::-1])]
    # n! E(h) = sum_m (h * h_top * rank_m - n * fibre_deg * deg_m) * (n!/m!) * (h+1)...(h+m),
    # nested from m = n down: multiply by (h + m), then add order m - 1's term
    h_t, nfib = h_top(X), n * fibre_deg(X)
    out, weight = [-nfib * deg_c[n], h_t * rank_c[n]], 1  # by power of h; weight = n!/m!
    for m in range(n, 0, -1):
        out = [m * x + y for x, y in zip([*out, 0], [0, *out])]
        weight *= m
        out[0] -= nfib * deg_c[m - 1] * weight
        out[1] += h_t * rank_c[m - 1] * weight
    while out and not out[-1]:
        out.pop()
    if len(out) > n:
        raise InternalCheckError(f"stable margin polynomial has degree {shown(len(out) - 1)} "
                                 f">= dim X = {shown(n)}")
    return tuple(Fraction(x, weight) for x in out)  # weight = n!/0!


class CanonicalClass(namedtuple("CanonicalClass", "h_coeff fibre_coeff")):
    """Relative canonical class K_f = h_coeff * H_X - fibre_coeff * F."""

    __slots__ = ()

    @property
    def general_type_fibres(self) -> bool:
        """True when the canonical class is relatively (very) ample."""
        return self.h_coeff > 0


def canonical_class(X: RelativeCI) -> CanonicalClass:
    """Coefficients (k_sum - r, y_sum - d) of the relative canonical class."""
    return CanonicalClass(X.k_sum - X.rank, X.y_sum - X.degree)


def canonical_top_power(X: RelativeCI) -> int:
    """Top self-intersection of K_f, expanded against F*F = 0.

    (a*H_X - b*F)^n = a^n * h_top - n * a^(n-1) * b * fibre_deg with
    (a, b) the canonical coefficients and n = dim X.
    """
    n = X.dim
    kc = canonical_class(X)
    return (
        kc.h_coeff**n * h_top(X)
        - n * kc.h_coeff ** (n - 1) * kc.fibre_coeff * fibre_deg(X)
    )


def omega_pushforward(X: RelativeCI) -> PushforwardSummary:
    """Rank and degree of the pushforward of the relative dualizing sheaf.

    The canonical class differs from (k_sum - r) * H_X by a pullback
    from the base, so the rank is the plain pushforward rank at
    h = k_sum - r (the geometric genus of a fibre) and the degree picks
    up -(y_sum - d) times that rank.  Needs k_sum > r.
    """
    kc = canonical_class(X)
    if not kc.general_type_fibres:
        raise HypothesisError(
            f"relative canonical class is not ample in the needed sense: "
            f"k_sum = {shown(X.k_sum)} <= rank = {shown(X.rank)}"
        )
    pf = pushforward(X, kc.h_coeff)
    return PushforwardSummary(pf.h, pf.rank, pf.degree - kc.fibre_coeff * pf.rank)


def canonical_margin(X: RelativeCI) -> int:
    """Margin of the slope inequality for the relative canonical class.

    Computed twice from the pushforward at h0 = k_sum - r: directly from
    K_f (top power, fibre restriction power, pushforward of the
    dualizing sheaf) and as the plain margin of O_X(h0).  Margins are
    invariant under twisting by pullbacks from the base, so the two
    cleared values agree exactly; any difference aborts hard.  Needs
    k_sum > r.
    """
    n = X.dim
    omega = omega_pushforward(X)
    twisted = positivity_margin(X, omega.h)
    kf_fibre_power = omega.h ** (n - 1) * fibre_deg(X)
    direct = canonical_top_power(X) * omega.rank - n * kf_fibre_power * omega.degree
    if direct != twisted:
        raise InternalCheckError(f"canonical margin mismatch: direct {shown(direct)} "
                                 f"vs twisted {shown(twisted)}")
    return twisted


class SurfaceFormulaReport(namedtuple(
    "SurfaceFormulaReport",
    "kf2_formula deg_omega_formula ratio_holds matches_top_power matches_pushforward",
)):
    """Closed surface formulas (c = r - 2, balanced) versus direct values.

    ``kf2_formula`` and ``deg_omega_formula`` are the closed forms in
    the reduced invariant c*d*k - r*y_sum; the match flags compare them
    with the independently computed canonical top power and dualizing
    pushforward degree, and ``ratio_holds`` checks the degree-free
    proportionality between the two.
    """

    __slots__ = ()


def surface_formula_check(X: RelativeCI) -> SurfaceFormulaReport:
    """Evaluate the closed surface formulas and compare with direct values.

    Hypotheses: balanced, c = r - 2 (so X is a surface fibration) and
    c*k > r.  With a' = c*d*k - r*y_sum:

        K_f^2          = ((r-2)*k - r) * (k-1) * k^(r-3) * a'
        deg f_* omega  = ((3r-5)*k - 3r + 1) * (k-1) * k^(r-3) * a' / 24

    and the ratio identity
        K_f^2 * ((3r-5)*k - 3r + 1) = 24 * ((r-2)*k - r) * deg f_* omega.
    """
    r, c = X.rank, X.codim
    if not X.balanced:
        raise HypothesisError("surface formulas need balanced degrees")
    if c != r - 2:
        raise HypothesisError(f"surface formulas need codim = rank - 2, got {c}")
    k = X.k[0]
    if not canonical_class(X).general_type_fibres:
        raise HypothesisError(f"surface formulas need c*k > r, got {c * k} <= {r}")
    a_red = c * X.degree * k - r * X.y_sum
    kf2 = ((r - 2) * k - r) * (k - 1) * k ** (r - 3) * a_red
    deg_omega = Fraction(((3 * r - 5) * k - 3 * r + 1) * (k - 1) * k ** (r - 3) * a_red, 24)
    direct_kf2 = canonical_top_power(X)
    direct_deg = omega_pushforward(X).degree
    ratio = kf2 * ((3 * r - 5) * k - 3 * r + 1) == 24 * ((r - 2) * k - r) * direct_deg
    return SurfaceFormulaReport(
        kf2_formula=kf2,
        deg_omega_formula=deg_omega,
        ratio_holds=ratio,
        matches_top_power=kf2 == direct_kf2,
        matches_pushforward=deg_omega == direct_deg,
    )


def ci_class(X: RelativeCI) -> CycleClass:
    """Numerical class of X in the codim-c cycle plane.

    Expanding prod_i (k_i * H - y_i * S) with S*S = 0 gives
    p = prod(k) and q = -sum_i (prod(k)/k_i) * y_i.
    """
    return CycleClass(X.codim, X.k_prod, -X.y_weight)


def effectivity_violations(X: RelativeCI) -> tuple[int, ...]:
    """Indices i (1-based) whose hypersurface class cannot be effective.

    A class k*H - y*S moves in a nonempty linear system only if y/k is
    at most the top Harder-Narasimhan slope; offending indices mean no
    such complete intersection exists geometrically.  Empty when the
    bundle carries no Harder-Narasimhan profile (nothing to check).
    """
    if not X.bundle.has_hn:
        return ()
    return tuple(
        i for i, (ki, yi) in enumerate(zip(X.k, X.y), 1)
        if not mn_divisor_test(X.bundle, ki, yi).pseff
    )
