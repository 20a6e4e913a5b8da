"""Run-length-limited direction sets, their dyadic covers and dimension.

An angle belongs to level N when its binary expansion never carries more
than N+1 equal consecutive bits.  Membership is decided exactly from the
eventually periodic expansion of a reduced rational (prefix plus two
periods suffices to expose every run), held as one integer whose runs
are measured with shifts and masks.

The interval cover machinery reproduces the two-type refinement that
peels a definite fraction of every kept dyadic interval per step, in
exact integer arithmetic: level-N refinement of an interval keeps at
least half of it while every child shrinks by at least 2^-N.  Note the
recursion's own level index is offset by one from the run bound: the
level-N refinement (base case N = 2) keeps exactly the prefixes whose
runs never exceed N, i.e. the membership predicate at level N-1.

A child's index word is its parent's word followed by a suffix that
depends only on N and the parent's last bit, so covers are generated as
(num, log2den) integer pairs from two suffix tables built once per N.
The string recursion `refine_once` states the rule and is the reference
the tables are tested against.

The dimension oracle is independent of the covers: the exact dimension
of the max-run-(N+1) subshift is log2 of the spectral radius of its
transfer matrix (golden mean for N = 1, tribonacci for N = 2, ...),
cross-checked against a word-count growth rate, and always at least the
cover-based exponent 1 - 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angles import DirectionAngle
from .errors import CapExceeded, CrossCheckError, DomainError, DyadicAngleError

_DEFAULT_CAP = 2_000_000
_NOT_BITS = str.maketrans("", "", "01")


def _longest_ones(x: int) -> int:
    """Longest run of 1 bits in x: each x &= x >> 1 shortens every run by one."""
    run = 0
    while x:
        x &= x >> 1
        run += 1
    return run


def _max_run_int(x: int, length: int) -> int:
    """Longest run of equal bits in the length-bit word x, leading zeros included."""
    return max(_longest_ones(x), _longest_ones(x ^ ((1 << length) - 1)))


def max_run(bits) -> int:
    """Longest run of equal consecutive symbols (0 for the empty word)."""
    word = _as_word(bits)
    return _max_run_int(int(word, 2), len(word)) if word else 0


def _as_word(bits) -> str:
    word = bits if isinstance(bits, str) else "".join(str(int(b)) for b in bits)
    if word.translate(_NOT_BITS):
        raise DomainError(f"not a binary word: {bits!r}")
    return word


def _window(angle: DirectionAngle) -> tuple[int, int]:
    """(x, m): the first m bits of a non-dyadic angle's expansion as an
    integer, m = prefix length plus two periods."""
    prefix, period = angle.expansion()
    m = len(prefix) + 2 * len(period)
    return (angle.numerator << m) // angle.denominator, m


def membership(angle_or_word, N: int) -> bool:
    """True iff no run of equal bits exceeds N+1.

    For a rational angle the eventually periodic expansion is scanned
    over prefix plus two full periods, which exposes every run (a longer
    run would force a constant period, i.e. a dyadic angle).
    """
    if N < 1:
        raise DomainError("level N must be >= 1")
    if isinstance(angle_or_word, DirectionAngle):
        if angle_or_word.is_dyadic:
            raise DyadicAngleError(
                f"dyadic angle {angle_or_word} has no unique expansion")
        return _max_run_int(*_window(angle_or_word)) <= N + 1
    return max_run(angle_or_word) <= N + 1


def good_set_level(angle: DirectionAngle, cap: int = 16):
    """Smallest N <= cap with membership(angle, N), or None."""
    if angle.is_dyadic:
        return None
    n = max(1, _max_run_int(*_window(angle)) - 1)
    return n if n <= cap else None


class CoverInterval(NamedTuple):
    """Dyadic interval [num/2^log2den, (num+1)/2^log2den); its index word
    is num written with log2den binary digits."""

    num: int
    log2den: int

    @property
    def index(self) -> str:
        return bin(self.num | 1 << self.log2den)[3:]

    @property
    def left(self) -> Fraction:
        return Fraction(self.num, 1 << self.log2den)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.log2den)

    def contains(self, x: Fraction) -> bool:
        return self.num <= x * (1 << self.log2den) < self.num + 1


@dataclass(frozen=True)
class DyadicCoverLevel:
    """Level-k cover: kept and dropped intervals as (num, log2den) pairs in
    generation order; `keep` and `drop` view them as CoverIntervals."""

    level: int
    keep_pairs: tuple
    drop_pairs: tuple

    @cached_property
    def keep(self) -> tuple:
        return tuple(map(CoverInterval._make, self.keep_pairs))

    @cached_property
    def drop(self) -> tuple:
        return tuple(map(CoverInterval._make, self.drop_pairs))

    def keep_measure(self) -> Fraction:
        if not self.keep_pairs:
            return Fraction(0)
        top = max(ln for _, ln in self.keep_pairs)
        return Fraction(sum(1 << (top - ln) for _, ln in self.keep_pairs), 1 << top)

    def covers(self, x: Fraction) -> bool:
        return any(iv.contains(x) for iv in self.keep)


def _k2_e2(idx: str):
    if idx[-1] == "0":
        return [idx + "01", idx + "10", idx + "110"], [idx + "00", idx + "111"]
    return [idx + "01", idx + "10", idx + "001"], [idx + "11", idx + "000"]


def refine_once(idx: str, N: int):
    """(keep, drop) children of one dyadic interval under level-N refinement.

    The rule on index words; `generate_cover` applies it through suffix
    tables and is tested against this recursion.
    """
    if N < 2:
        raise DomainError("refinement level starts at N = 2")
    if N == 2:
        return _k2_e2(idx)
    kp, dp = refine_once(idx, N - 1)
    keep, drop = [], []
    for j in dp:
        # previous-level dropped intervals end with a run of exactly N bits:
        # at level N that run is now maximal, the next bit must break it
        if j[-1] == "1":
            keep.append(j + "0")
            drop.append(j + "1")
        else:
            keep.append(j + "1")
            drop.append(j + "0")
    for j in kp:
        if j.endswith("10"):
            keep.append(j + "1")
            keep.extend(j + "0" * k + "1" for k in range(1, N))
            drop.append(j + "0" * N)
        elif j.endswith("01"):
            keep.append(j + "0")
            keep.extend(j + "1" * k + "0" for k in range(1, N))
            drop.append(j + "1" * N)
        else:
            raise AssertionError(f"kept index {j} does not end in 01/10")
    return keep, drop


def _suffix_tables(N: int) -> tuple:
    """For a parent whose index ends in bit b, tables[b] = (keep, drop):
    the suffixes refine_once(idx, N) appends to idx, as (bits, length)."""
    tables = []
    for b in (0, 1):
        c = 1 - b
        keep = [(0b01, 2), (0b10, 2), (c * 0b110 | b, 3)]
        drop = [(b * 0b11, 2), (c * 0b111, 3)]
        for n in range(3, N + 1):
            # a dropped suffix ends in a run of n bits: break it or extend it
            new_keep = [(s << 1 | (s & 1) ^ 1, ln + 1) for s, ln in drop]
            new_drop = [(s << 1 | s & 1, ln + 1) for s, ln in drop]
            # a kept suffix ends in a bit change: grow its last run to r < n
            # bits and break it (kept), or to n bits (dropped)
            for s, ln in keep:
                t = s & 1
                new_keep.extend(((s << r | t * ((1 << r) - 1)) << 1 | t ^ 1,
                                 ln + r + 1) for r in range(n))
                new_drop.append((s << n | t * ((1 << n) - 1), ln + n))
            keep, drop = new_keep, new_drop
        tables.append((keep, drop))
    return tuple(tables)


def generate_cover(N: int, k: int, cap: int = _DEFAULT_CAP) -> DyadicCoverLevel:
    """Level-k cover: k refinement steps from the base split {[0,1/2], [1/2,1]}."""
    if N < 2:
        raise DomainError("cover level N must be >= 2 (recursion bases at N = 2)")
    if k < 0:
        raise DomainError("cover depth k must be >= 0")
    tables = _suffix_tables(N)
    width = len(tables[0][0])  # kept children per parent; tables[1] mirrors it
    keep, drop = [(0, 1), (1, 1)], []
    for step in range(k):
        if len(keep) * width > cap:
            raise CapExceeded(
                f"interval cap {cap} exceeded at refinement step {step + 1}",
                partial=DyadicCoverLevel(step, tuple(keep), tuple(drop)))
        keep, drop = (
            [(num << sl | s, ln + sl)
             for num, ln in keep for s, sl in tables[num & 1][0]],
            [(num << sl | s, ln + sl)
             for num, ln in keep for s, sl in tables[num & 1][1]])
    return DyadicCoverLevel(k, tuple(keep), tuple(drop))


def _transfer_matrix(N: int) -> np.ndarray:
    """Adjacency of (bit, run) states for words with runs capped at N+1."""
    cap = N + 1
    size = 2 * cap
    m = np.zeros((size, size))

    def state(bit, run):
        return bit * cap + (run - 1)

    for bit in (0, 1):
        for run in range(1, cap + 1):
            m[state(bit, run), state(1 - bit, 1)] = 1.0
            if run < cap:
                m[state(bit, run), state(bit, run + 1)] = 1.0
    return m


def admissible_word_count(N: int, length: int) -> int:
    """Exact number of binary words of the given length with runs <= N+1."""
    if length < 1:
        raise DomainError("length must be >= 1")
    cap = N + 1
    # collapsed over the bit value by 0/1 symmetry: state = current run length
    counts = [0] * (cap + 1)
    counts[1] = 2
    for _ in range(length - 1):
        nxt = [0] * (cap + 1)
        nxt[1] = sum(counts)
        for r in range(1, cap):
            nxt[r + 1] = counts[r]
        counts = nxt
    return sum(counts)


def dimension_word_rate(N: int, length: int = 40) -> float:
    """log2 growth rate of the admissible word count at the given length."""
    c0 = admissible_word_count(N, length)
    c1 = admissible_word_count(N, length + 1)
    return math.log2(c1) - math.log2(c0)


def dimension_bound(N: int) -> float:
    """Exact dimension of the max-run-(N+1) subshift, log2(spectral radius).

    Cross-checked against the word-count growth rate; always at least the
    cover exponent 1 - 1/N, confirming the lower-bound side.
    """
    if N < 1:
        raise DomainError("level N must be >= 1")
    sr = max(abs(np.linalg.eigvals(_transfer_matrix(N))))
    rate = float(np.log2(sr))
    wc = dimension_word_rate(N)
    if not abs(rate - wc) < 1e-3:
        raise CrossCheckError(f"transfer matrix {rate} vs word count {wc}")
    return rate


def cover_to_dict(level: DyadicCoverLevel, N: int) -> dict:
    """JSON-ready cover dump with exact dyadic rationals."""
    return {
        "N": N,
        "k": level.level,
        "keep": [{"num": iv.num, "log2den": iv.log2den,
                  "len_log2den": iv.log2den, "index": iv.index}
                 for iv in level.keep],
    }


_COVER_ENTRY = ('    {\n      "num": %d,\n      "log2den": %d,\n'
                '      "len_log2den": %d,\n      "index": "%s"\n    }')


def cover_json(level: DyadicCoverLevel, N: int) -> str:
    """json.dumps(cover_to_dict(level, N), indent=2), byte for byte, written
    in one pass with one template per interval."""
    head = '{\n  "N": %d,\n  "k": %d,\n  "keep": ' % (N, level.level)
    if not level.keep_pairs:
        return head + "[]\n}"
    body = ",\n".join([_COVER_ENTRY % (num, ln, ln, bin(num | 1 << ln)[3:])
                       for num, ln in level.keep_pairs])
    return head + "[\n" + body + "\n  ]\n}"
