"""Run-length-limited sets: membership, shifts, covers, dimension.

The dimension oracle pair is independent of the covers: transfer-matrix
spectral radius against exact word counting; frozen targets are the
golden-ratio and tribonacci logs computed from their minimal polynomials.
"""

import json
import math
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest

from greenjulia import goodset
from greenjulia.angles import DirectionAngle
from greenjulia.errors import CapExceeded, CrossCheckError, DyadicAngleError
from greenjulia.goodset import (admissible_word_count, cover_json,
                                cover_to_dict, dimension_bound,
                                dimension_word_rate, generate_cover,
                                good_set_level, max_run, membership,
                                refine_once)


def _bisect_root(poly, lo, hi):
    # increasing polynomial sign change on [lo, hi]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poly(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


GOLDEN = _bisect_root(lambda x: x * x - x - 1, 1.0, 2.0)
TRIBONACCI = _bisect_root(lambda x: x ** 3 - x * x - x - 1, 1.0, 2.0)


def _random_admissible_word(rng, length, N):
    bits = []
    run = 0
    bit = int(rng.integers(0, 2))
    for _ in range(length):
        if run == N + 1 or (run > 0 and rng.random() < 0.4):
            bit = 1 - bit
            run = 0
        bits.append(bit)
        run += 1
    return "".join(map(str, bits))


def test_membership_examples():
    assert membership(DirectionAngle(2, 3), 1)      # bits 10 repeating
    assert not membership("1110", 1)                # run of three 1s
    assert membership("110110110", 1)               # runs of length <= 2
    with pytest.raises(DyadicAngleError):
        membership(DirectionAngle(1, 2), 1)


def test_membership_scans_across_period_boundary():
    # 11/24 = 0.0111(01): prefix 0111 ends in a run that the scan must
    # extend into the periodic part
    ang = DirectionAngle(11, 24)
    prefix, period = ang.expansion()
    assert max_run(list(prefix) + list(period) * 2) == 3
    assert not membership(ang, 1)
    assert membership(ang, 2)


def test_shift_examples():
    assert str(DirectionAngle(2, 3).shift()) == "1/3"
    assert str(DirectionAngle(5, 12).shift()) == "5/6"
    with pytest.raises(DyadicAngleError):
        DirectionAngle(3, 4).shift()


def test_shift_preserves_membership():
    rng = np.random.default_rng(23)
    for N in (1, 2, 3):
        checked = 0
        while checked < 3400:
            word = _random_admissible_word(rng, 30, N)
            assert membership(word, N)
            assert membership(word[1:], N)  # word-level shift
            num = int(word, 2)
            den = 2 ** 30 - 1
            if num == 0 or math.gcd(num, den) > 1:
                continue
            ang = DirectionAngle(num, den)
            if ang.is_dyadic or not membership(ang, N):
                continue
            assert membership(ang.shift(), N)
            checked += 1


def _groupby_max_run(word):
    return max((len(list(g)) for _, g in groupby(word)), default=0)


def test_max_run_matches_groupby():
    assert max_run("") == 0
    for length in range(1, 13):
        for val in range(2 ** length):
            word = format(val, f"0{length}b")
            assert max_run(word) == _groupby_max_run(word)
    assert max_run([1, 1, 0]) == 2


def test_angle_runs_match_expansion():
    # membership and good_set_level read the runs off prefix + two periods
    # of the exact long-division expansion
    for q in range(3, 130):
        for p in range(1, q):
            ang = DirectionAngle(p, q)
            if ang.denominator != q or ang.is_dyadic:
                continue
            prefix, period = ang.expansion()
            run = _groupby_max_run(prefix + period + period)
            assert good_set_level(ang) == max(1, run - 1)
            for N in (1, 2, 3):
                assert membership(ang, N) == (run <= N + 1)


def test_membership_symmetries():
    # admissibility is invariant under reversal and bit complement
    flip = str.maketrans("01", "10")
    for length in range(1, 17):
        for val in range(2 ** length):
            word = format(val, f"0{length}b")
            run = max_run(word)
            rev, comp = max_run(word[::-1]), max_run(word.translate(flip))
            for N in (1, 2, 3):
                m = run <= N + 1
                assert (rev <= N + 1) == m
                assert (comp <= N + 1) == m


def test_membership_monotone_in_level():
    rng = np.random.default_rng(29)
    for _ in range(300):
        word = _random_admissible_word(rng, 40, 2)
        for N in (2, 3, 4):
            if membership(word, N):
                assert membership(word, N + 1)


def test_good_set_level():
    assert good_set_level(DirectionAngle(2, 3)) == 1
    assert good_set_level(DirectionAngle(1, 2)) is None
    # 7/9 = 0.110001110001... has runs of 3: level 2
    assert good_set_level(DirectionAngle(7, 9)) == 2


def test_base_refinement_partition_and_measure():
    for idx in ("0", "1", "010", "0110"):
        keep, drop = refine_once(idx, 2)
        lengths = [Fraction(1, 2 ** len(i)) for i in keep + drop]
        assert sum(lengths) == Fraction(1, 2 ** len(idx))
        kept = sum(Fraction(1, 2 ** len(i)) for i in keep)
        assert kept == Fraction(5, 8) * Fraction(1, 2 ** len(idx))
        assert all(len(i) - len(idx) >= 2 for i in keep)


def test_refinement_children_shrink():
    for N in (2, 3):
        for idx in ("0", "10", "0110"):
            keep, drop = refine_once(idx, N)
            for child in keep + drop:
                assert Fraction(1, 2 ** len(child)) <= \
                    Fraction(1, 2 ** N) * Fraction(1, 2 ** len(idx))


def test_cover_levels_invariants():
    # exact arithmetic in integer units of 2^-top, top the longest index
    for N in (2, 3):
        prev = generate_cover(N, 0)
        for k in range(1, 6):
            level = generate_cover(N, k)
            top = max(ln for _, ln in level.keep_pairs)
            # disjoint: sorted left endpoints never overlap
            ivs = sorted((num << (top - ln), (num + 1) << (top - ln))
                         for num, ln in level.keep_pairs)
            for (_, a_end), (b_left, _) in zip(ivs, ivs[1:]):
                assert a_end <= b_left
            # nesting with per-parent retention >= 1/2: the parent is the
            # longest proper prefix, i.e. num >> (len - plen), among them
            kept = dict.fromkeys(prev.keep_pairs, 0)
            plens = sorted({plen for _, plen in kept}, reverse=True)
            for num, ln in level.keep_pairs:
                for plen in plens:
                    if plen >= ln:
                        continue
                    parent = (num >> (ln - plen), plen)
                    if parent in kept:
                        kept[parent] += 1 << (top - ln)
                        assert ln >= plen + N  # child length <= parent / 2^N
                        break
                else:
                    raise AssertionError(f"orphan interval {num}/2^{ln}")
            for (_, plen), units in kept.items():
                assert 2 * units >= 1 << (top - plen)
            prev = level


def _string_cover(N, k):
    keep, drop = ["0", "1"], []
    for _ in range(k):
        children = [refine_once(idx, N) for idx in keep]
        keep = [c for kp, _ in children for c in kp]
        drop = [c for _, dp in children for c in dp]
    return keep, drop


@pytest.mark.parametrize("N, k", [(N, k) for N in (2, 3, 4) for k in range(4)]
                         + [(2, 5)])
def test_generate_cover_matches_string_recursion(N, k):
    level = generate_cover(N, k)
    keep, drop = _string_cover(N, k)
    assert list(level.keep_pairs) == [(int(w, 2), len(w)) for w in keep]
    assert list(level.drop_pairs) == [(int(w, 2), len(w)) for w in drop]
    assert [iv.index for iv in level.keep] == keep
    assert [iv.index for iv in level.drop] == drop


@pytest.mark.parametrize("N, k", [(N, k) for N in (2, 3) for k in range(5)]
                         + [(4, 2)])
def test_cover_json_matches_json_dumps(N, k):
    level = generate_cover(N, k)
    assert cover_json(level, N) == json.dumps(cover_to_dict(level, N), indent=2)


def test_cover_json_of_an_empty_keep():
    level = goodset.DyadicCoverLevel(0, (), ())
    assert cover_json(level, 2) == json.dumps(cover_to_dict(level, 2), indent=2)


def test_cover_interval_views():
    level = generate_cover(3, 2)
    assert level.keep_measure() == sum((iv.length for iv in level.keep),
                                       Fraction(0))
    iv = level.keep[5]
    assert iv.left == Fraction(int(iv.index, 2), 2 ** len(iv.index))
    assert iv.contains(iv.left) and not iv.contains(iv.left + iv.length)
    assert level.covers(iv.left + iv.length / 3)


def test_cover_contains_low_level_members():
    # the level-N refinement keeps exactly the words with runs <= N, i.e.
    # the membership predicate one level down
    rng = np.random.default_rng(31)
    for N in (2, 3):
        level = generate_cover(N, 5)
        keep_idx = {iv.index for iv in level.keep}
        max_len = max(len(i) for i in keep_idx)
        count = 0
        while count < 50:
            word = _random_admissible_word(rng, 40, N - 1)
            num = int(word, 2)
            den = 2 ** 40 - 1
            if num == 0 or math.gcd(num, den) > 1:
                continue
            ang = DirectionAngle(num, den)
            if ang.is_dyadic or not membership(ang, N - 1):
                continue
            prefix, period = ang.expansion()
            bits = (list(prefix) + list(period) * (max_len // len(period) + 2))
            expansion = "".join(map(str, bits[:max_len + 1]))
            assert any(expansion[:cut] in keep_idx
                       for cut in range(1, max_len + 1))
            count += 1


def test_cover_keep_words_have_bounded_runs():
    for N in (2, 3):
        level = generate_cover(N, 4)
        assert all(max_run(iv.index) <= N for iv in level.keep)
        # dropped intervals end with the first violating run
        assert all(max_run(iv.index) == N + 1 for iv in level.drop)


def test_cover_cap():
    with pytest.raises(CapExceeded) as err:
        generate_cover(3, 6, cap=100)
    assert err.value.partial is not None


def test_cover_cap_boundary_and_partial():
    # the cap bounds the kept count of a step; the partial is the last
    # complete level
    full = generate_cover(2, 4)
    assert generate_cover(2, 4, cap=len(full.keep_pairs)) == full
    with pytest.raises(CapExceeded, match="step 4") as err:
        generate_cover(2, 4, cap=len(full.keep_pairs) - 1)
    assert err.value.partial == generate_cover(2, 3)


def test_cover_json_schema():
    level = generate_cover(2, 3)
    d = cover_to_dict(level, 2)
    assert d["N"] == 2 and d["k"] == 3
    entry = d["keep"][0]
    assert set(entry) == {"num", "log2den", "len_log2den", "index"}
    assert entry["num"] == int(entry["index"], 2)


def test_dimension_cross_check_raises_without_assert(monkeypatch):
    # a typed error, so the check survives python -O
    monkeypatch.setattr(goodset, "dimension_word_rate", lambda N, length=40: 0.5)
    with pytest.raises(CrossCheckError, match="word count"):
        dimension_bound(2)


def test_dimension_frozen_values():
    assert abs(dimension_bound(1) - math.log2(GOLDEN)) < 1e-5
    assert abs(dimension_bound(2) - math.log2(TRIBONACCI)) < 1e-5
    assert abs(dimension_bound(1) - 0.69424) < 1e-5
    assert abs(dimension_bound(2) - 0.87915) < 1e-5


def test_dimension_matrix_vs_word_count():
    for N in range(1, 9):
        assert abs(dimension_bound(N) - dimension_word_rate(N)) < 1e-3


def test_dimension_dominates_cover_exponent():
    for N in range(1, 13):
        assert dimension_bound(N) >= 1.0 - 1.0 / N


def test_word_count_small_cases():
    # runs <= 2, length 3: all except 000 and 111
    assert admissible_word_count(1, 3) == 6
    assert admissible_word_count(1, 1) == 2
    assert admissible_word_count(2, 3) == 8
