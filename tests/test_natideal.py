"""Canonical n0 ideal triples against the brute-force closure oracle."""

import hashlib
import math
import os
import random
import resource
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semideal import natideal
from semideal.errors import EmptyIdeal, InternalError, TooLarge, Unsupported, ZeroDivisorIdeal
from semideal.ideals import Ideal, ideal_power
from semideal.instances import instance
from semideal.natideal import (
    NAT_FULL,
    NAT_MAX,
    NAT_ZERO,
    NatIdeal,
    from_generators,
    minimal_generators,
    nat_between,
    nat_contains,
    nat_divides,
    nat_intersect,
    nat_is_maximal,
    nat_is_prime,
    nat_is_subtractive,
    nat_product,
    nat_quotient,
    nat_scale,
    nat_separating,
    nat_sum,
    nat_unscale,
)
from oracles import (
    n0_intersect,
    n0_members,
    n0_product,
    n0_quotient,
    n0_sum,
    closure_members,
)

N0 = instance("n0")

GEN_SETS = [
    (1,),
    (2,),
    (5,),
    (2, 3),
    (3, 4),
    (3, 4, 5),
    (4, 6, 9),
    (2, 5),
    (6, 10, 15),
    (4, 5),
    (3, 5, 7),
    (8, 12, 18, 27),
    (7, 11),
]


def window(i, pad=1):
    """A bound beyond which i is plainly periodic."""
    return (i.c if i.c else i.d) + pad * max(i.d, 1) + 1


def assert_same(i, j):
    assert i == j and hash(i) == hash(j)


def assert_canonical(i):
    if i.d == 0:
        assert i == NAT_ZERO
        return
    assert i.c % i.d == 0
    # mask bits are the members below the last gap c - d, bit 0 (the member 0) clear
    assert i.mask & 1 == 0 and i.mask >> max(i.c // i.d - 1, 0) == 0
    ex = i.ex
    assert list(ex) == sorted(set(ex))
    for e in ex:
        assert 0 < e < i.c and e % i.d == 0
    if i.c:
        assert i.c >= 2 * i.d  # threshold d would collapse to c = 0
        assert (i.c - i.d) not in ex  # threshold is minimal
    # the brute-force oracle gives the same form from the members, equally hashed
    assert_same(brute_periodic(i.d, i.c, ex), i)
    s = nat_scale(i, 3)
    assert_same(s, brute_periodic(3 * i.d, 3 * i.c, [3 * e for e in ex]))
    assert_same(nat_unscale(s, 3), i)


def assert_matches(i, member_set, limit):
    assert i.members_below(limit) == sorted(x for x in member_set if x < limit)
    assert limit > i.c and i.ex == tuple(sorted(x for x in member_set if 0 < x < i.c))


def test_known_canonical_forms():
    assert from_generators([]) == NAT_ZERO
    assert from_generators([0, 0]) == NAT_ZERO
    assert from_generators([1]) == NAT_FULL
    assert from_generators([2, 3]) == NAT_MAX
    assert from_generators([3, 4, 5]) == brute_periodic(1, 3, ())
    assert from_generators([2]) == brute_periodic(2, 0, ())
    assert from_generators([4, 6]) == brute_periodic(2, 4, ())
    assert from_generators([4, 6, 9]) == brute_periodic(1, 12, (4, 6, 8, 9, 10))
    assert from_generators([6, 10, 15]) == brute_periodic(1, 30, (6, 10, 12, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28))


def test_from_generators_matches_oracle():
    for gens in GEN_SETS:
        i = from_generators(gens)
        assert_canonical(i)
        lim = window(i, pad=3) + max(gens)
        assert_matches(i, n0_members(gens, lim), lim)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5))
def test_from_generators_matches_oracle_hyp(gens):
    i = from_generators(gens)
    assert_canonical(i)
    lim = window(i, pad=3) + max(gens)
    assert_matches(i, n0_members(gens, lim), lim)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
def test_regenerating_from_members_is_identity(gens):
    i = from_generators(gens)
    # The member list determines i only past c + least nonzero member: every
    # member beyond that peels down by the least member into the window
    # (e.g. gens [5,11,18,24] have c=20 but 24 is no sum of members < 23).
    least = i.ex[0] if i.ex else (i.c if i.c else i.d)
    lim = (i.c if i.c else i.d) + least + 1
    assert from_generators(i.members_below(lim)) == i


def test_from_generators_rejects_negative():
    with pytest.raises(ValueError):
        from_generators([3, -2])


def test_contains_and_min_nonzero():
    i = from_generators([4, 6, 9])
    mem = n0_members((4, 6, 9), 200)
    for x in range(200):
        assert i.contains(x) == (x in mem)
    assert i.min_nonzero() == 4
    assert NAT_MAX.min_nonzero() == 2
    assert NAT_FULL.min_nonzero() == 1
    assert from_generators([3]).min_nonzero() == 3
    with pytest.raises(EmptyIdeal):
        NAT_ZERO.min_nonzero()
    assert NAT_ZERO.members_below(10) == [0]
    assert NAT_ZERO.members_below(0) == []


def periodic(d, threshold, extras):
    """The canonical form, by natideal's own trim, of the set {0} u extras u
    {multiples of d >= threshold}, given additively closed: one mask bit per
    scaled extra, the tail from the scaled threshold on."""
    t = max(1, -(-threshold // d))
    return natideal._scaled_bits_to_ideal(d, sum({1 << (e // d) for e in extras}), t)


# The test names below say "from periodic": they build an ideal from a
# periodic-set description, through the trim that canonicalises meets and
# quotients.
def test_from_periodic_canonicalizes():
    assert periodic(1, 4, [2, 3]) == NAT_MAX
    assert periodic(2, 4, [2]) == from_generators([2])
    assert periodic(2, 2, []) == from_generators([2])
    assert periodic(3, 0, []) == from_generators([3])


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
def test_from_periodic_roundtrip(gens):
    i = from_generators(gens)
    assert_same(periodic(i.d, i.c, i.ex), i)
    assert_same(nat_unscale(nat_scale(i, 5), 5), i)


def test_minimal_generators_known():
    assert minimal_generators(NAT_ZERO) == ()
    assert minimal_generators(NAT_FULL) == (1,)
    assert minimal_generators(NAT_MAX) == (2, 3)
    assert minimal_generators(from_generators([3, 4, 5])) == (3, 4, 5)
    assert minimal_generators(from_generators([4, 6, 9])) == (4, 6, 9)
    assert minimal_generators(from_generators([2, 4, 8])) == (2,)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=5))
def test_minimal_generators_properties(gens):
    i = from_generators(gens)
    mg = minimal_generators(i)
    assert from_generators(mg) == i
    # each listed generator is not a sum of two nonzero members
    lim = max(mg) + 1
    mem = set(i.members_below(lim)) - {0}
    for g in mg:
        assert not any(g - m in mem for m in mem if 0 < m < g)
    # and every other small member is such a sum
    for m in sorted(mem):
        if m not in mg:
            assert any(m - x in mem for x in mem if 0 < x < m)


# Conductors up to about 2e4, and members either side of bits 63/64 and
# 127/128 of the scaled membership masks (d = 2 for (126, 128)).
LARGE_GEN_SETS = [
    (150, 151),
    (100, 117, 143),
    (127, 128),
    (63, 64),
    (62, 63, 65),
    (61, 67, 127, 129),
    (126, 128),
    (64, 96, 129),
]


def oracle_minimal_generators(gens):
    """Generators that are no sum of the others."""
    gens = sorted(set(gens))
    return tuple(g for g in gens if g not in closure_members([h for h in gens if h != g], g))


def assert_matches_closure(gens):
    i = from_generators(gens)
    assert_canonical(i)
    lim = i.c + 2 * max(gens)
    mem = closure_members(gens, lim)
    assert_matches(i, mem, lim + 1)
    assert [x for x in range(lim + 1) if i.contains(x)] == sorted(mem)
    assert minimal_generators(i) == oracle_minimal_generators(gens)
    return i


@pytest.mark.parametrize("gens", LARGE_GEN_SETS, ids=str)
def test_large_ideals_match_oracle(gens):
    assert_matches_closure(gens)


# Masks of more than 8192 bits whose scaled members fall on both sides of
# bits 4095/4096 and 8191/8192: (75, 113) has all four bits, (91, 97) has 4095
# but not 4096, (101, 103) 4096 but not 4095, and the last two repeat the
# first two with d = 3 and d = 2.
SEAM_GEN_SETS = [(75, 113), (91, 97), (101, 103), (225, 339), (182, 194)]


@pytest.mark.parametrize("gens", SEAM_GEN_SETS, ids=str)
def test_chunk_seams_match_oracle(gens):
    i = assert_matches_closure(gens)
    scaled = {e // i.d for e in i.ex}
    assert i.c // i.d > 8192 + 8
    for seam in (4096, 8192):
        assert scaled.intersection(range(seam - 8, seam)) and scaled.intersection(range(seam, seam + 8))
    assert periodic(i.d, i.c, reversed(i.ex)) == i


def brauer_window(scaled):
    """X = sum over i >= 2 of s_i (e_{i-1}/e_i - 1), e_i = gcd(s_1..s_i), for
    ascending s with gcd 1; Brauer (1942) bounds the largest gap by X - s_1."""
    return sum(s * (math.gcd(*scaled[:i]) // math.gcd(*scaled[: i + 1]) - 1) for i, s in enumerate(scaled) if i)


def test_coprime_pairs_match_sylvester():
    # For a coprime pair a < b the window is exact and the conductor is
    # (a-1)(b-1), Sylvester's closed form, with half the naturals below it
    # members (0 among them, and bit 0 clear); past brute force at these sizes.
    rng = random.Random(4)
    pairs = [(2, 1999), (1000, 1001), (1009, 2003), (1447, 1449)]
    while len(pairs) < 40:
        a, b = sorted(rng.sample(range(2, 2001), 2))
        if math.gcd(a, b) == 1 and (a - 1) * (b - 1) // 2 <= natideal.MAX_EX:
            pairs.append((a, b))
    for a, b in pairs:
        assert brauer_window([a, b]) == (a - 1) * (b - 1) + a - 1
        t = rng.randint(1, 5)
        i = from_generators([t * a, t * b])
        assert (i.d, i.c, i.mask.bit_count()) == (t, t * (a - 1) * (b - 1), (a - 1) * (b - 1) // 2 - 1), (t, a, b)
        assert not i.contains(t * (a * b - a - b)) and i.contains(t * (a * b - a - b + 1))


def test_loose_windows_match_brute_force():
    # sets whose Brauer window X is at least 4x the window they need, F + s_1
    rng = random.Random(8)
    loose = 0
    while loose < 20:
        t = rng.randint(1, 3)
        gens = sorted({t * rng.randint(2, 300) for _ in range(rng.randint(3, 7))})
        d = math.gcd(*gens)
        scaled = [g // d for g in gens]
        if scaled[0] == 1:
            continue
        i = from_generators(gens)
        if brauer_window(scaled) >= 4 * (i.c // d - 1 + scaled[0]):
            loose += 1
            lim = i.c + 2 * gens[-1]
            assert_matches(i, n0_members(gens, lim), lim + 1)


def test_a_window_past_the_budget_closes_once_at_the_budget(monkeypatch):
    m = from_generators([1000, 1001])
    gens = sorted({a * b for a in minimal_generators(m) for b in minimal_generators(m)})
    limits = []
    real = natideal.additive_closure

    def closure(gens, limit):
        limits.append(limit)
        return real(gens, limit)

    monkeypatch.setattr(natideal, "additive_closure", closure)
    budget = natideal.MAX_WINDOW_BITS
    # X = 999 * (1001000 + 1002001), about 2e9 bits, and Davison's lower bound
    # on the largest gap, sqrt(3 s1 s2 s3) - s1 - s2 - s3, about 1.7e9: three
    # generators whose run of s1 members cannot end in the budget are refused
    # before any closure
    x = brauer_window(gens)
    with pytest.raises(TooLarge, match=f"over {budget} bits .Brauer's X is {x}."):
        from_generators(gens)
    with pytest.raises(TooLarge):
        nat_product(m, m)
    assert limits == []
    # four generators have no such bound: the first 2^24 bits are closed once,
    # and end in a gap
    four = [*gens, 1003003]
    with pytest.raises(TooLarge, match=f"over {budget} bits .Brauer's X is {brauer_window(four)}."):
        from_generators(four)
    assert limits == [budget]
    # X = 2b for a coprime pair (3, b), the exact window: the budget itself is
    # closed, and 4 more bits are refused before any closure
    half = budget // 2
    with pytest.raises(TooLarge, match="members below its conductor"):
        from_generators([3, half])
    assert limits[1:] == [budget]
    with pytest.raises(TooLarge):
        from_generators([3, half + 2])
    # a least generator s1 with 2 s1 - 1 over the budget leaves no room for the run
    with pytest.raises(TooLarge):
        from_generators([half + 1, half + 2, half + 3])
    assert limits[1:] == [budget]


def test_davisons_bound_refuses_only_what_the_cut_window_refuses(monkeypatch):
    # Davison (1994): F >= sqrt(3 s1 s2 s3) - s1 - s2 - s3 for the largest gap
    # F of gcd-1 generators s1 < s2 < s3. The closure of the whole window X
    # gives F; a cut window answers iff the run of s1 members after F fits,
    # F + s1 <= window, so the least window that answers and the one below it
    # pin the bound, and no early refusal may land on an answerable window
    rng = random.Random(31)
    triples = [(2, 3, 5), (3, 5, 7), (1000, 1001, 1002)]
    while len(triples) < 1500:
        s = rng.sample(range(2, 600), 3)
        if len(triples) % 3 == 0:  # one redundant generator: s3 = i s1 + j s2
            s[2] = rng.randint(0, 4) * s[0] + rng.randint(1, 4) * s[1]
        if math.gcd(*s) == 1 and len(set(s)) == 3:
            triples.append(tuple(sorted(s)))
    full = {s: from_generators(s) for s in triples}
    calls = []
    real = natideal.additive_closure
    monkeypatch.setattr(natideal, "additive_closure", lambda gens, limit: calls.append(limit) or real(gens, limit))
    early = late = 0
    for s, i in full.items():
        f, x = i.c - 1, brauer_window(s)
        for window in {f + s[0], f + s[0] - 1, rng.randrange(1, x)}:
            if not 2 * s[0] - 1 <= window < x:
                continue
            monkeypatch.setattr(natideal, "MAX_WINDOW_BITS", window)
            calls.clear()
            if f + s[0] <= window:
                cut = from_generators(s)
                assert (cut.d, cut.c, cut.mask, cut._gens) == (i.d, i.c, i.mask, i._gens), (s, window)
                continue
            with pytest.raises(TooLarge):
                from_generators(s)
            assert calls in ([], [window]), (s, window)
            early += not calls
            late += bool(calls)
    # both refusals happen: before any closure, and after the cut window's one
    assert early > 100 and late > 100, (early, late)


def test_a_capped_window_answers_as_the_full_window_does(monkeypatch):
    # X = 27,317,000 for (4631, 5900, 8739), past the budget, but the run of
    # 4631 members starts at the conductor 934,042; X = 36,475,814 for the second
    sets = [(4631, 5900, 8739), (5459, 6683, 8490)]
    assert all(brauer_window(gens) > natideal.MAX_WINDOW_BITS for gens in sets)
    capped = [from_generators(gens) for gens in sets]
    assert [i.c for i in capped] == [934042, 1094083]
    monkeypatch.setattr(natideal, "MAX_WINDOW_BITS", max(brauer_window(gens) for gens in sets))
    for gens, i in zip(sets, capped):
        full = from_generators(gens)
        assert (i.d, i.c, i.mask, i._gens) == (full.d, full.c, full.mask, full._gens)
        assert i._gens == gens


def test_recorded_generators_match_the_bitmap_walk():
    # from_generators keeps the minimal generators it finds among its input;
    # minimal_generators on a fresh record of the same triple walks the bitmap
    rng = random.Random(30)
    sets = [[2, 3, 10**9], [4, 6, 9, 10**12], [0, 4, 0, 6, 9], [6, 6, 10, 15, 10], [0, 0], [5, 0, 5]]
    for _ in range(40000):
        t = rng.choice((1, 1, 2, 3, 6))
        sets.append([t * rng.randint(0, 600) for _ in range(rng.randint(1, 7))])
    for gens in sets:
        i = from_generators(gens)
        fresh = minimal_generators(NatIdeal(i.d, i.c, i.mask))
        if i.c:
            assert i._gens == fresh, gens
        else:
            assert fresh == ((i.d,) if i.d else ()), gens
    assert from_generators([2, 3, 10**9])._gens == (2, 3)
    assert from_generators([4, 6, 9, 10**12])._gens == (4, 6, 9)


@pytest.mark.parametrize("below_top", [0, 3], ids=["top", "run-start"])
def test_a_gap_past_brauers_bound_is_an_internal_error(monkeypatch, below_top):
    # X = 15 for (4, 6, 9): bits 12 to 15 must be members; clear one of them
    real = natideal.additive_closure

    def closure(gens, limit):
        return real(gens, limit) & ~(1 << (limit - below_top))

    monkeypatch.setattr(natideal, "additive_closure", closure)
    with pytest.raises(InternalError):
        from_generators([4, 6, 9])


def test_generators_past_a_gcd_of_1_do_not_widen_the_window(monkeypatch):
    # once gcd(s_1..s_i) is 1 the later generators add nothing to X
    limits = []
    real = natideal.additive_closure

    def closure(gens, limit):
        limits.append(limit)
        return real(gens, limit)

    monkeypatch.setattr(natideal, "additive_closure", closure)
    assert from_generators([2, 3, 10**9]) == NAT_MAX
    assert from_generators([4, 6, 9, 10**12]) == from_generators([4, 6, 9])
    # X = 3 * (2/1 - 1) for (2, 3), and 6 * (4/2 - 1) + 9 * (2/1 - 1) for (4, 6, 9)
    assert limits == [3, 15, 15]


def brute_periodic(d, threshold, extras):
    """The triple of {0} u extras u {multiples of d >= threshold}, by scanning
    for the least c past which every multiple of d is a member; bit k of its
    mask is the member kd."""
    if any(e % d for e in extras):
        raise ValueError("extras must be multiples of the period")
    members = {e for e in extras if e > 0}
    top = max([threshold, d, *members]) + d
    for c in range(0, top + d, d):
        if all(x in members or x >= threshold for x in range(max(c, d), top + d, d)):
            break
    return NatIdeal(d, c, sum(1 << (x // d) for x in members if x < c))


PERIODIC_CASES = [
    (3, 20, [9, 0, 6, 9, 18, 15, 12, 0, 3]),  # unsorted, duplicate and zero extras
    (2, 10, [4, 10, 12, 30, 4]),  # extras at and past the threshold
    (1, 8, [7, 8, 9, 3]),
    (4, 0, [8, 16]),  # threshold 0
    (4, -7, [12, 4]),  # negative threshold
    (5, 25, [20, 15, 10, 5]),  # the run of members reaches 1: the ideal (5)
    (1, 6, [5, 4, 3, 2, 1]),
    (6, 31, [24, 30, 12]),  # a threshold that is not a multiple of d
    (7, 7, []),
    (2, 9000, list(range(8998, 4000, -2))),
    (1, 18, [8, 16, 17, 15, 9]),  # members and the last gap either side of the byte seams 8 and 16
    (3, 51, [24, 45, 48, 21, 27]),  # the same scaled by 3
    (1, 9, [8]),  # the last gap is bit 7, the top of the first byte
]


@pytest.mark.parametrize("case", PERIODIC_CASES, ids=str)
def test_from_periodic_matches_brute_force(case):
    d, threshold, extras = case
    got = periodic(d, threshold, iter(extras))
    assert got == brute_periodic(d, threshold, extras)
    assert_canonical(got)


def test_from_periodic_matches_brute_force_on_random_sets():
    rng = random.Random(15)
    for _ in range(300):
        d = rng.randint(1, 6)
        threshold = rng.randint(-2 * d, 30 * d)
        extras = [d * rng.randint(0, 35) for _ in range(rng.randint(0, 20))]
        assert periodic(d, threshold, extras) == brute_periodic(d, threshold, extras), (d, threshold, extras)


def pair_window(i, j):
    """Decisive comparison window for two nonzero ideals (covers both tails)."""
    lcm = i.d * j.d // math.gcd(i.d, j.d)
    return max(i.c, j.c, 1) + lcm + 1


def test_binary_ops_match_oracle():
    rng = random.Random(42)
    pairs = [(a, b) for a in GEN_SETS for b in GEN_SETS]
    rng.shuffle(pairs)
    for ga, gb in pairs[:60]:
        a, b = from_generators(ga), from_generators(gb)
        s = nat_sum(a, b)
        p = nat_product(a, b)
        x = nat_intersect(a, b)
        q = nat_quotient(a, b)
        for r in (s, p, x, q):
            assert_canonical(r)
        lim = max(window(s, 2), window(p, 2), window(x, 2), window(q, 2))
        assert_matches(s, n0_sum(ga, gb, lim), lim)
        assert_matches(p, n0_product(ga, gb, lim), lim)
        assert_matches(x, n0_intersect(ga, gb, lim), lim)
        assert_matches(q, n0_quotient(ga, gb, lim), lim)


def test_meet_quotient_containment_and_sandwich_list_no_members(monkeypatch):
    # They read the bitmaps through strided views. A decode, a canonical form
    # built from a member list or a membership test per member would still
    # answer correctly, so only a count of those calls shows it.
    a, b, c = from_generators([91, 97]), from_generators([157, 185]), from_generators([6, 10, 15])
    j, p = from_generators([2 * 91, 2 * 97]), NatIdeal(7, 0, 0)
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((natideal, "_decode"), (NatIdeal, "contains")):
        counted(owner, name)
    cases = [
        lambda: nat_intersect(a, b),
        lambda: nat_intersect(b, a),
        lambda: nat_intersect(j, c),
        lambda: nat_quotient(a, b),
        lambda: nat_quotient(b, c),
        lambda: nat_quotient(a, p),
        lambda: nat_contains(a, j),
        lambda: nat_contains(j, a),
        lambda: nat_contains(c, nat_intersect(a, b)),
        lambda: N0.sandwich((7, a)),
        lambda: nat_divides(c, a),
    ]
    for k, run in enumerate(cases):
        calls.clear()
        run()
        assert calls == Counter(), k


def test_separating_is_the_least_member_outside_and_lists_none(monkeypatch):
    # periods that divide each other and periods that do not, the zero ideal,
    # principal ideals, and ideals inside one another
    decoded = []
    decode = natideal._decode
    monkeypatch.setattr(natideal, "_decode", lambda d, mask: decoded.append(mask) or decode(d, mask))
    rng = random.Random(29)
    sets = GEN_SETS + [(), (6,), (10, 15), (4, 6), (9, 12, 15), (14, 21)]
    sets += [tuple(rng.randint(1, 30) * rng.choice((1, 2, 3, 6)) for _ in range(rng.randint(1, 3))) for _ in range(20)]
    for ga in sets:
        for gb in sets:
            a, b = from_generators(ga), from_generators(gb)
            lim = max(a.c, b.c) + math.lcm(max(a.d, 1), max(b.d, 1)) + 1
            outside = sorted(n0_members(gb, lim) - n0_members(ga, lim))
            assert nat_separating(a, b) == (outside[0] if outside else None), (ga, gb)
    # 998999 is the largest gap of I(1000,1001), with about 500,000 members below it
    assert nat_separating(from_generators([1000, 1001]), from_generators([1000, 1001, 998999])) == 998999
    assert decoded == []


# Operands with periods 1, 2, 3, 5 and 7 and scaled conductors of 70 to 120
# bits, so that a meet, a quotient or a containment reads a mask every 2nd,
# 3rd, 5th or 7th bit, across many byte boundaries; (4, 6) has period 2 and
# conductor 4, so a containment in it reads the other side past its conductor.
STRIDE_GEN_SETS = [(11, 13), (2 * 9, 2 * 13), (3 * 7, 3 * 12, 3 * 17), (5 * 8, 5 * 11), (7 * 5, 7 * 9), (4, 6)]


def assert_contains_matches(i, j, lim):
    """nat_contains(i, j) against the members below lim, for ideals already
    checked against an oracle up to lim, which covers both conductors."""
    assert nat_contains(i, j) == (set(j.members_below(lim)) <= set(i.members_below(lim)))


def test_strided_ops_match_oracle():
    ideals = [(from_generators(g), g) for g in STRIDE_GEN_SETS]
    strides = set()
    for a, ga in ideals:
        for b, gb in ideals:
            period = math.lcm(a.d, b.d)
            strides.update((period // a.d, period // b.d, b.d // math.gcd(a.d, b.d)))
            x = nat_intersect(a, b)
            lim = covering_window(a, b, x)
            assert_matches(x, n0_intersect(ga, gb, lim), lim)
            assert_matches(a, n0_members(ga, lim), lim)
            assert_matches(b, n0_members(gb, lim), lim)
            for i, j in ((a, b), (a, x), (x, a), (b, x)):
                assert_contains_matches(i, j, lim)
            q = nat_quotient(a, b)
            lim = covering_window(a, b, q)
            assert_matches(q, n0_quotient(ga, gb, lim), lim)
        for g in (2, 3, 5, 7):  # {x : xg in a} reads a's mask every g/gcd(a.d, g)-th bit
            q = nat_quotient(a, NatIdeal(g, 0, 0))
            lim = covering_window(a, q, NatIdeal(g, 0, 0))
            assert_matches(q, n0_quotient(ga, (g,), lim), lim)
            assert N0.sandwich((g, a))[0] == q.min_nonzero()
    assert strides >= {2, 3, 5, 7}


@pytest.mark.parametrize("ga, gb", [((91, 97), (2,)), ((101, 103), (2,)), ((91, 97), (182, 194)), ((75, 113), (225, 339))], ids=str)
def test_strided_views_across_the_4096_bit_mark_match_oracle(ga, gb):
    # each pair reads a mask of more than 8192 bits every 2nd or 3rd bit into a
    # view longer than 4096 bits
    a, b = from_generators(ga), from_generators(gb)
    period = math.lcm(a.d, b.d)
    assert period // a.d in (2, 3) and max(a.c, b.c) // period > 4096
    x = nat_intersect(a, b)
    lim = covering_window(a, b, x)
    assert_matches(x, n0_intersect(ga, gb, lim), lim)
    assert_matches(a, n0_members(ga, lim), lim)
    assert_contains_matches(a, x, lim)
    assert_contains_matches(x, a, lim)
    if b.c == 0:  # the oracle quotient by a larger b would list members past 10^6
        q = nat_quotient(a, b)
        lim = covering_window(a, b, q)
        assert_matches(q, n0_quotient(ga, gb, lim), lim)


def naive_stride(mask, s, n):
    return sum((mask >> k * s & 1) << k for k in range(n))


def test_stride_matches_a_per_bit_loop():
    rng = random.Random(17)
    for s in (1, 2, 3, 5, 7, 8, 9, 16, 17, 64, 1000):
        for n in range(0, 42):  # every residue of n and of the last byte
            mask = rng.getrandbits(n * s + rng.randint(0, 2 * s))
            assert natideal._stride(mask, s, n) == naive_stride(mask, s, n), (s, n)
        assert natideal._stride(0, s, 50) == 0
        assert natideal._stride((1 << 64 * s) - 1, s, 30) == (1 << 30) - 1
        mask = rng.getrandbits(40 * s)  # a view that runs past the top of the mask
        assert natideal._stride(mask, s, 100) == naive_stride(mask, s, 100)
    # views longer than the 4,300 digits that CPython converts between int and str
    mask = rng.getrandbits(3 * 5000 + 11)
    assert natideal._stride(mask, 3, 5000) == naive_stride(mask, 3, 5000)
    assert natideal._stride(mask, 1, 5000) == mask & ((1 << 5000) - 1)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=3),
    st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=3),
)
def test_binary_ops_match_oracle_hyp(ga, gb):
    a, b = from_generators(ga), from_generators(gb)
    for op, oracle in (
        (nat_sum, n0_sum),
        (nat_product, n0_product),
        (nat_intersect, n0_intersect),
        (nat_quotient, n0_quotient),
    ):
        r = op(a, b)
        assert_canonical(r)
        lim = window(r, 2)
        assert_matches(r, oracle(ga, gb, lim), lim)


# Principal ideals (g) beside the zero, full and maximal ideals and the
# generator sets: each closed form for a principal operand meets each kind of
# operand, on either side, and so does the closure path between the others.
POOL = [(NAT_ZERO, ()), (NAT_FULL, (1,)), (NAT_MAX, (2, 3))]
POOL += [(from_generators([g]), (g,)) for g in range(1, 13)]
POOL += [(from_generators(gens), gens) for gens in GEN_SETS]


def covering_window(*ideals):
    """A bound past every conductor by a full common period of the ideals."""
    return max(max(i.c, 1) for i in ideals) + math.lcm(*(max(i.d, 1) for i in ideals)) + 1


@pytest.mark.parametrize("a, ga", POOL, ids=[str(gens) for _, gens in POOL])
def test_pool_ops_match_oracle(a, ga):
    for b, gb in POOL:
        for op, oracle in ((nat_sum, n0_sum), (nat_product, n0_product), (nat_intersect, n0_intersect)):
            r = op(a, b)
            assert_canonical(r)
            lim = covering_window(a, b, r)
            assert_matches(r, oracle(ga, gb, lim), lim)
        lim = covering_window(a, b)
        assert nat_contains(a, b) == (n0_members(gb, lim) <= n0_members(ga, lim))
        if b.d == 0:
            with pytest.raises(ZeroDivisorIdeal):
                nat_quotient(a, b)
            continue
        q = nat_quotient(a, b)
        assert_canonical(q)
        lim = covering_window(a, b, q)
        assert_matches(q, n0_quotient(ga, gb, lim), lim)


@pytest.mark.parametrize("a, ga", POOL[1:], ids=[str(gens) for _, gens in POOL[1:]])  # nonzero divisors
def test_pool_divides_multiplies_back(a, ga):
    for b, gb in POOL:
        ab = nat_product(a, b)
        q = nat_divides(a, ab)
        assert q is not None and nat_product(a, q) == ab
        q = nat_divides(a, b)
        if a.c == 0:  # (g) divides b exactly when g divides every member of b
            assert (q is None) == (b.d % a.d != 0)
        if q is not None:
            lim = covering_window(a, b, q)
            assert_matches(b, n0_product(ga, minimal_generators(q), lim), lim)


def test_principal_operands_need_no_closure(monkeypatch):
    # A lost shortcut still answers correctly, through the closure, so only a
    # count of the kernel, canonical-form and generator-pass calls that an
    # operation makes through the module shows it.
    calls = Counter()

    def counted(name):
        fn = getattr(natideal, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(natideal, name, wrapper)

    for name in ("additive_closure", "from_generators", "minimal_generators"):
        counted(name)
    j, j2 = from_generators([4, 6, 9]), from_generators([4, 6])
    p = {g: from_generators([g]) for g in (2, 3, 4, 6)}
    cases = [
        (lambda: natideal.from_generators([6, 12, 18]), p[6], {"from_generators": 1}),
        (lambda: natideal.from_generators([5]), brute_periodic(5, 0, ()), {"from_generators": 1}),
        (lambda: nat_product(p[6], j), nat_scale(j, 6), {}),
        (lambda: nat_product(j, p[6]), nat_scale(j, 6), {}),
        (lambda: nat_sum(p[2], j2), p[2], {}),  # 2 divides every member of j2
        (lambda: nat_sum(j, p[4]), j, {}),  # 4 is a member of j
        (lambda: nat_intersect(j2, p[2]), j2, {}),
        (lambda: nat_intersect(p[4], j), p[4], {}),
        (lambda: nat_quotient(p[6], j2), p[3], {}),
        (lambda: nat_quotient(j, p[3]), NAT_MAX, {}),  # {x : 3x in j}, a strided view of j
    ]
    for k, (run, expected, work) in enumerate(cases):
        calls.clear()
        assert run() == expected, k
        assert calls == Counter(work), k


def test_storage_operations_decode_no_members(monkeypatch):
    # An operation that only needs the stored bitmap must not list members:
    # a decode would still answer correctly, so only a count shows it.
    decoded = []
    decode = natideal._decode

    def counted(d, mask):
        decoded.append(mask)
        return decode(d, mask)

    monkeypatch.setattr(natideal, "_decode", counted)
    a, b = from_generators([91, 97]), from_generators([5, 7, 9])
    cases = [
        lambda: from_generators([91, 97, 150]),
        lambda: nat_sum(a, b),
        lambda: nat_product(a, b),
        lambda: ideal_power(Ideal(N0, (1, b)), 3),  # the n0 payload is (denominator, NatIdeal)
        lambda: nat_scale(a, 3),
        lambda: nat_unscale(nat_scale(a, 3), 3),
        lambda: minimal_generators(a),
        lambda: (a.contains(182), a.contains(183), a.contains(8549), a.contains(10**6)),
        lambda: a.min_nonzero(),
        lambda: nat_quotient(a, b),  # three generators, three strided views
    ]
    for k, run in enumerate(cases):
        decoded.clear()
        run()
        assert decoded == [], k


def test_zero_ideal_op_edges():
    a = from_generators([2, 3])
    assert nat_sum(a, NAT_ZERO) == a
    assert nat_product(a, NAT_ZERO) == NAT_ZERO
    assert nat_intersect(a, NAT_ZERO) == NAT_ZERO
    assert nat_quotient(NAT_ZERO, a) == NAT_ZERO
    assert nat_quotient(a, NAT_FULL) == a
    with pytest.raises(ZeroDivisorIdeal):
        nat_quotient(a, NAT_ZERO)
    with pytest.raises(ZeroDivisorIdeal):
        nat_divides(NAT_ZERO, a)
    assert nat_divides(a, NAT_ZERO) == NAT_ZERO


def test_power():
    m = NAT_MAX

    def power(i, k):
        den, out = ideal_power(Ideal(N0, (1, i)), k).payload
        assert den == 1
        return out

    assert power(m, 0) == NAT_FULL
    assert power(m, 1) == m
    assert power(m, 2) == nat_product(m, m)
    assert power(m, 2) == brute_periodic(1, 12, (4, 6, 8, 9, 10))
    assert power(m, 3) == nat_product(nat_product(m, m), m)
    with pytest.raises(Unsupported):  # a negative power needs an inverse, and m has none
        power(m, -1)


def test_contains_matches_window_subsets():
    ideals = [from_generators(g) for g in GEN_SETS]
    for i in ideals:
        for j in ideals:
            lim = pair_window(i, j)
            expected = set(j.members_below(lim)) <= set(i.members_below(lim))
            assert nat_contains(i, j) == expected
    assert nat_contains(from_generators([2]), NAT_ZERO)
    assert not nat_contains(NAT_ZERO, from_generators([2]))
    assert nat_contains(NAT_ZERO, NAT_ZERO)


def test_divides_soundness_and_completeness():
    rng = random.Random(9)
    ideals = [from_generators(g) for g in GEN_SETS]
    for _ in range(120):
        a = rng.choice(ideals)
        b = rng.choice(ideals)
        prod = nat_product(a, b)
        q = nat_divides(a, prod)
        assert q is not None and nat_product(a, q) == prod
    # completeness falsification: when None, no random cofactor works
    a = from_generators([2])
    b = from_generators([2, 3])  # odd members exist, (2) cannot divide it
    assert nat_divides(a, b) is None
    for _ in range(300):
        gens = [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
        assert nat_product(a, from_generators(gens)) != b
    m = NAT_MAX
    assert nat_divides(m, from_generators([3, 4, 5])) is None


def test_subtractive_flag():
    assert nat_is_subtractive(NAT_ZERO)
    assert nat_is_subtractive(NAT_FULL)
    assert nat_is_subtractive(from_generators([4]))
    assert not nat_is_subtractive(NAT_MAX)
    assert not nat_is_subtractive(from_generators([3, 4, 5]))


def test_prime_maximal_classification():
    assert nat_is_prime(NAT_ZERO)
    assert nat_is_prime(NAT_MAX)
    assert nat_is_prime(from_generators([7]))
    assert not nat_is_prime(NAT_FULL)
    assert not nat_is_prime(from_generators([4]))
    assert not nat_is_prime(from_generators([3, 4, 5]))
    assert not nat_is_prime(from_generators([4, 6, 9]))
    assert nat_is_maximal(NAT_MAX)
    assert not nat_is_maximal(from_generators([2]))


def brute_prime(i, bound):
    if i == NAT_FULL:
        return False
    for x in range(bound):
        if i.contains(x):
            continue
        for y in range(x, bound):
            if not i.contains(y) and i.contains(x * y):
                return False
    return True


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=3))
def test_prime_agrees_with_brute(gens):
    # bound covers the witnesses (c-d, c-d) resp. (F, F), so brute is exact here
    i = from_generators(gens)
    bound = max(40, i.c + i.d + 1)
    assert nat_is_prime(i) == brute_prime(i, bound)


def test_between_known():
    got = nat_between(NAT_MAX)
    assert got == from_generators([2, 9])
    m2 = nat_product(NAT_MAX, NAT_MAX)
    assert nat_contains(got, m2) and got != m2
    assert nat_contains(NAT_MAX, got) and got != NAT_MAX
    # even a principal prime has something strictly between (p^2) and (p) here
    assert nat_between(from_generators([3])) == from_generators([6, 9])


def test_scale_unscale():
    i = from_generators([4, 6, 9])
    s = nat_scale(i, 3)
    assert s == brute_periodic(3, 36, (12, 18, 24, 27, 30))
    assert nat_unscale(s, 3) == i
    assert nat_scale(NAT_ZERO, 5) == NAT_ZERO
    assert nat_scale(i, 1) == i
    with pytest.raises(ValueError):
        nat_scale(i, 0)
    with pytest.raises(ValueError):
        nat_unscale(i, 2)
    with pytest.raises(ValueError):
        nat_unscale(i, 0)
    # scaling matches the oracle on members
    lim = 120
    scaled = {3 * m for m in n0_members((4, 6, 9), lim)}
    assert_matches(s, scaled, lim)
    assert_matches(nat_unscale(s, 3), n0_members((4, 6, 9), lim), lim)


def test_closure_oracle_self_check():
    # the oracle itself: numeric-semigroup classics
    assert sorted(closure_members((3, 5), 20)) == [0, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]
    assert 7 not in closure_members((3, 5), 20)


# Linux carries a process's peak RSS over an exec, so a child of the test run
# would start from the test run's own peak. A fresh interpreter, small when it
# forks, spawns the measured CLI process and prints what os.wait4 reads of it.
RSS_DRIVER = """
import os, sys
argv = [sys.executable, "-m", "semideal.cli", "eval", "--instance", "n0", sys.argv[1]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="spawns the measured process with os.posix_spawn")
@pytest.mark.parametrize(
    "expr, size, digest",
    [
        ("[I(2,3)^12 : I(5,7)]", 3946, "c8fa2f9de11ba0265c2c3185b5dbab2da0be7f95127d53a1b7fc4600f16854bb"),
        ("[I(1000,1001):I(6,10,15)]", 67, "c41348f50c05f1994b674ad26e38ac8c0f8b30aaeaf5dffd285277f1041caeeb"),
    ],
)
def test_large_quotients_answer_in_bounded_memory(expr, size, digest):
    # The meet and quotient read the numerator's bitmap through strided views, so
    # the peak stays near the interpreter's own. Listing the 788,969 members of
    # I(2,3)^12 below its conductor, and the 499,499 of I(1000,1001), peaked at
    # about 88 and 62 MB.
    def cap():  # a regression fails the test instead of stalling it
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    proc = subprocess.run([sys.executable, "-c", RSS_DRIVER, expr], capture_output=True, timeout=120, preexec_fn=cap)
    code, maxrss = map(int, proc.stderr.split()[-2:])
    assert proc.returncode == 0 and code == 0, proc.stderr
    assert len(proc.stdout) == size and hashlib.sha256(proc.stdout).hexdigest() == digest, proc.stdout[:200]
    assert maxrss < 48 * 1024  # KiB on Linux
