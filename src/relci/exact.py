"""Exact combinatorial kernel.

Everything downstream reduces to two ingredients, both computed over
arbitrary-precision integers (``fractions.Fraction`` is the one rational
type of the package: stdlib Fractions are exact, always stored reduced,
with a positive denominator):

* truncated binomial coefficients, with the convention ``C(n, m) = 0``
  whenever ``n < m`` (including every negative ``n``);
* signed subset-sum tables, the workhorse behind alternating sums over
  all ``2^c`` subsets without materialising them.

No floating point is used anywhere in the computation path.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from math import comb

from .errors import InputError, shown

__all__ = [
    "binom_trunc",
    "signed_subset_tables",
]


def binom_trunc(n: int, m: int) -> int:
    """Binomial coefficient C(n, m), truncated to 0 when n < m.

    The truncation (rather than the analytic continuation to negative
    upper index) is what makes the alternating Koszul sums correct
    verbatim: terms whose twist pushes the argument negative must drop
    out entirely.

    >>> binom_trunc(5, 2)
    10
    >>> binom_trunc(1, 3)
    0
    >>> binom_trunc(-2, 4)
    0
    """
    if m < 0:
        raise InputError(f"binom_trunc: lower index must be >= 0, got {shown(m)}")
    if n < m:
        return 0
    return comb(n, m)


def signed_subset_tables(
    weights: Sequence[int], values: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Aggregate (-1)^|I| over subsets I, grouped by the weight sum.

    Returns two lists ``cnt`` and ``val`` indexed by ``s = 0 .. sum(weights)``:

    * ``cnt[s] = sum over subsets I with weight(I) = s of (-1)^|I|``
    * ``val[s] = sum over the same subsets of (-1)^|I| * value(I)``

    where ``weight(I)`` and ``value(I)`` are the coordinate sums of the
    picked indices.  The tables are the coefficients of
    cnt(t) = prod_i (1 - t^w_i) and val(t) = sum_I (-1)^|I| value(I) t^weight(I),
    each held as one integer, its value at t = 2^bits (Kronecker
    substitution): an item costs two shifts and subtractions of whole
    integers, so alternating sums over 2^c subsets cost a few big-integer
    operations per item, which keeps codimensions in the tens cheap.  For
    equal weights the tables are the classical binomial grouping.  The
    tables do not depend on the order of the (weight, value) pairs, so
    the items go in lightest first: each step costs the size of the
    integer built so far, which grows with the running weight sum.
    Weights must be positive.
    """
    if len(weights) != len(values):
        raise InputError("signed_subset_tables: weight/value length mismatch")
    if any(w <= 0 for w in weights):
        raise InputError("signed_subset_tables: weights must be positive")
    # Every slot lies in (-2^(bits-1), 2^(bits-1)), so the integers decode
    # uniquely: |cnt[s]| <= 2^c counts subsets, and |val[s]| <= 2^(c-1) *
    # sum|v_i|, as each item lies in half of the 2^c subsets.  Both are
    # at most 2^(bits-2) when bits >= c + bitlen(sum|v_i|) + 2.  The
    # integers are exact values of polynomials, so the partial sums
    # between items need no bound.
    words = -(-(len(weights) + sum(map(abs, values)).bit_length() + 2) // 64)
    bits = 64 * words
    cnt, val = 1, 0
    for w, v in sorted(zip(weights, values)):
        # val(t) -= t^w (val(t) + v cnt(t)), then cnt(t) -= t^w cnt(t)
        val -= (val + v * cnt) << (bits * w)
        cnt -= cnt << (bits * w)
    return _slots((cnt, val), sum(weights) + 1, words)


# The bytes of an integer in native order read as the same native words on
# either byte order; only the order of the words turns round.
_WORD_STEP = 1 if sys.byteorder == "little" else -1


def _slots(packed: tuple[int, ...], count: int, words: int) -> tuple[list[int], ...]:
    """The ``count`` signed slots of ``64 * words`` bits in each packed integer, lowest first.

    Adding 2^(bits-1) to every slot makes each one nonnegative with no
    borrow between slots, and XOR-ing it back leaves each slot in two's
    complement, which ``memoryview.cast`` reads as machine words: the top
    word signed, the lower ones unsigned.  With one-word slots no Python
    code runs per slot.
    """
    size = 8 * words
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    tables = []
    for p in packed:
        data = memoryview(((p + offset) ^ offset).to_bytes(size * count, sys.byteorder))
        table = data.cast("q")[::_WORD_STEP][words - 1 :: words].tolist()
        lower = data.cast("Q")[::_WORD_STEP]
        for j in range(words - 2, -1, -1):
            table = [hi << 64 | lo for hi, lo in zip(table, lower[j::words].tolist())]
        tables.append(table)
    return tuple(tables)
