"""Exact ideal arithmetic in Z[w], w*w = -5, against brute-force module math."""

import random

import pytest

from semideal import instance, instances, quadratic
from semideal.errors import EmptyIdeal, InternalError, NotPrime
from semideal.quadratic import (
    QI_ONE,
    QI_ZERO,
    QuadIdeal,
    _compose,
    prime_for_root,
    qi_add,
    qi_conj,
    qi_divide,
    qi_factor,
    qi_meet,
    qi_member,
    qi_mul,
    qi_normalize,
    qi_prime_split,
    qi_principal_int,
)
from oracles import quad_ideals, quad_member_brute

Q5 = instance("quad5")
P2 = QuadIdeal(1, 2, 1)
P3 = QuadIdeal(1, 3, 1)
P3C = QuadIdeal(1, 3, 2)
P5 = QuadIdeal(1, 5, 0)


def ideals_to(max_norm):
    """The ideals of norm <= max_norm, in the root-scan oracle's order."""
    return [QuadIdeal(*t) for t in quad_ideals(max_norm)]


def members_box(q, box=8):
    return {
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if qi_member(q, x, y)
    }


def test_normalize_known_forms():
    assert qi_normalize([(2, 0), (1, 1)]) == P2
    assert qi_normalize([(6, 0)]) == QuadIdeal(6, 1, 0)
    assert qi_normalize([(0, 1)]) == qi_normalize([(5, 0), (0, 1)])  # (w) = (w, 5)
    assert qi_normalize([(0, 0)]) == QI_ZERO
    assert qi_normalize([]) == QI_ZERO
    assert qi_normalize([(1, 0)]) == QI_ONE


def test_membership_matches_brute():
    for q in ideals_to(30):
        for x in range(-7, 8):
            for y in range(-7, 8):
                assert qi_member(q, x, y) == quad_member_brute(q.g, q.a, q.b, x, y)


def test_normalize_is_smallest_containing_ideal():
    rng = random.Random(11)
    for _ in range(60):
        gens = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))]
        q = qi_normalize(gens)
        if q.is_zero():
            assert all(g == (0, 0) for g in gens)
            continue
        for x, y in gens:
            assert qi_member(q, x, y)
            # closure under multiplication by w
            assert qi_member(q, -5 * y, x)


# every ideal of norm <= 60, the zero ideal, and scaled ideals with g > 1
POOL = [QI_ZERO, *ideals_to(60), *(QuadIdeal(g, q.a, q.b) for g in (2, 3) for q in ideals_to(15))]


def hnf_generators(q):
    """g*a and g*(b + w) as (x, y) pairs; none for the zero ideal."""
    return [] if q.is_zero() else [(q.g * q.a, 0), (q.g * q.b, q.g)]


def test_mul_known_and_brute():
    assert qi_mul(P2, P2) == QuadIdeal(2, 1, 0)
    assert qi_mul(P3, P3C) == QuadIdeal(3, 1, 0)
    assert qi_mul(P5, P5) == QuadIdeal(5, 1, 0)
    for i in POOL:
        for j in POOL:
            # the product is generated by the pairwise products of the HNF generators:
            # (x1 + y1 w)(x2 + y2 w) = x1 x2 - 5 y1 y2 + (x1 y2 + x2 y1) w
            pieces = [
                (x1 * x2 - 5 * y1 * y2, x1 * y2 + x2 * y1)
                for x1, y1 in hnf_generators(i)
                for x2, y2 in hnf_generators(j)
            ]
            assert qi_mul(i, j) == qi_normalize(pieces), (i, j)


def test_add_known_and_brute():
    assert qi_add(P2, QuadIdeal(2, 1, 0)) == P2
    assert qi_add(P3, P3C) == QI_ONE
    for i in POOL:
        for j in POOL:
            s = qi_add(i, j)
            assert qi_normalize(hnf_generators(i) + hnf_generators(j)) == s, (i, j)
            assert Q5.contains(s, i) and Q5.contains(s, j)


def test_meet_matches_membership_box():
    assert qi_meet(P3, P3C) == QuadIdeal(3, 1, 0)
    assert qi_meet(P2, QuadIdeal(2, 1, 0)) == QuadIdeal(2, 1, 0)
    boxes = {}

    def box(q):
        if q not in boxes:
            boxes[q] = members_box(q, box=6)
        return boxes[q]

    for i in POOL:
        for j in POOL:
            m = qi_meet(i, j)
            assert box(m) == box(i) & box(j), (i, j)
            # exact past the box: the meet lies in both, and (i & j)(i + j) = ij
            assert Q5.contains(i, m) and Q5.contains(j, m)
            assert qi_mul(m, qi_add(i, j)) == qi_mul(i, j), (i, j)


def test_norm_multiplicative():
    pool = ideals_to(25)
    for i in pool:
        for j in pool:
            assert qi_mul(i, j).norm() == i.norm() * j.norm()


def test_conj_involution_and_norm_identity():
    for q in ideals_to(40):
        assert qi_conj(qi_conj(q)) == q
        assert qi_mul(q, qi_conj(q)) == qi_principal_int(q.norm())


def test_pow_matches_repeated_mul():
    for q in (P2, P3, QuadIdeal(2, 3, 2), QI_ONE):
        acc = QI_ONE
        for k in range(5):
            assert Q5.power(q, k) == acc
            acc = qi_mul(acc, q)
    assert Q5.power(QI_ZERO, 3) == QI_ZERO
    assert Q5.power(QI_ZERO, 0) == QI_ONE
    with pytest.raises(ValueError):
        Q5.power(P2, -1)


def test_contains_via_member_sets():
    # every ideal in the pool contains 12*Z^2 (its index divides its norm),
    # so a 12-box window decides containment exactly
    pool = ideals_to(12)
    sets = {q: members_box(q, box=12) for q in pool}
    for i in pool:
        for j in pool:
            assert Q5.contains(i, j) == (sets[j] <= sets[i])


def test_divide_exactness():
    pool = ideals_to(12)
    for i in pool:
        for j in pool:
            assert qi_divide(qi_mul(i, j), i) == j
    assert qi_divide(P3, P2) is None
    assert qi_divide(P2, QuadIdeal(2, 1, 0)) is None  # (2) does not divide p2
    assert qi_divide(QI_ZERO, P2) == QI_ZERO
    with pytest.raises(EmptyIdeal):
        qi_divide(P2, QI_ZERO)


def _inside(i, j):
    """j inside i, read off the basis g*a and g*(b + w) of j by qi_member alone."""
    return qi_member(i, j.g * j.a, 0) and qi_member(i, j.g * j.b, j.g)


def test_quotient_is_the_residual():
    # [a : b] is the largest c with c*b inside a. Its norm is at most N(a), so
    # the pool holds it, and maximality over the pool decides it.
    pool = ideals_to(30)
    prod = {(d, b): qi_mul(d, b) for d in pool for b in pool}
    cases = {"b inside a": 0, "a + b = O": 0, "divides": 0}
    for a in pool:
        for b in pool:
            c = Q5.quotient(a, b)
            assert c in pool and c.norm() <= a.norm()
            case = "b inside a" if _inside(a, b) else "a + b = O" if qi_add(a, b) == QI_ONE else "divides"
            cases[case] += 1
            assert _inside(a, qi_mul(c, b)), (a, b, c)
            for d in pool:
                if _inside(a, prod[d, b]):
                    assert _inside(c, d), (a, b, c, d)
        assert Q5.quotient(QI_ZERO, a) == QI_ZERO
    assert min(cases.values()) > 0, cases


def test_divide_is_none_exactly_without_a_cofactor():
    # an exact cofactor c of i by j has N(c) = N(i)/N(j) <= 30, so it is in the pool
    pool = ideals_to(30)
    products = {(qi_mul(j, c), j) for j in pool for c in pool}
    for i in pool:
        for j in pool:
            q = qi_divide(i, j)
            assert (q is not None) == ((i, j) in products), (i, j)
            assert q is None or qi_mul(j, q) == i


def test_a_result_equal_to_an_operand_is_that_operand():
    pool = ideals_to(30)
    for i in pool:
        assert qi_mul(i, QI_ONE) is i
        assert qi_mul(QI_ONE, i) is (QI_ONE if i == QI_ONE else i)  # O times O is the first factor
        for j in pool:
            for op in (qi_add, qi_meet):
                r = op(i, j)
                assert r is i or r is j or r not in (i, j), (op, i, j)


def test_divide_certifies_its_candidate_by_multiplying_back(monkeypatch):
    # a composition fault that drops the candidate's primitive part leaves the
    # norm test passing; the multiply-back, composed correctly, refuses it
    num = qi_mul(P2, P3)
    real, calls = quadratic._compose, []

    def faulty(*args):
        calls.append(args)
        g, a, b = real(*args)
        return (g, 1, 0) if len(calls) == 1 else (g, a, b)

    monkeypatch.setattr(quadratic, "_compose", faulty)
    assert qi_divide(num, P3) is None and len(calls) == 2


def test_composition_refuses_a_module_that_is_not_an_ideal():
    # (2, 0+w) is no ideal: 2 does not divide 0*0 + 5. Its product with p2
    # fails the check a | b*b + 5, and with (4, 2+w) the check that e divides B.
    with pytest.raises(InternalError, match="not an ideal"):
        _compose(1, 2, 0, 1, 2, 1)
    with pytest.raises(InternalError, match="not an ideal"):
        _compose(1, 2, 0, 1, 4, 2)
    fake = QuadIdeal(1, 2, 0)
    for op in (lambda: qi_mul(fake, P2), lambda: qi_divide(P2, fake), lambda: Q5.join(P2, fake)):
        with pytest.raises(InternalError, match="not an ideal"):
            op()


def test_prime_split_shapes():
    assert qi_prime_split(2) == (P2,)
    assert qi_prime_split(5) == (P5,)
    assert qi_prime_split(3) == (P3, P3C)
    p7 = qi_prime_split(7)
    assert len(p7) == 2 and {q.b for q in p7} == {3, 4}
    (p11,) = qi_prime_split(11)
    assert p11 == qi_principal_int(11) and p11.norm() == 121
    with pytest.raises(NotPrime):
        qi_prime_split(6)
    with pytest.raises(NotPrime):
        qi_prime_split(1)


def test_prime_for_root():
    assert prime_for_root(3, 1) == P3
    assert prime_for_root(11, None) == QuadIdeal(11, 1, 0)


def test_factor_known():
    assert qi_factor(qi_principal_int(6)) == {(2, 1): 2, (3, 1): 1, (3, 2): 1}
    assert qi_factor(QI_ONE) == {}
    assert qi_factor(P2) == {(2, 1): 1}
    assert qi_factor(QuadIdeal(1, 6, 1)) == {(2, 1): 1, (3, 1): 1}
    with pytest.raises(EmptyIdeal):
        qi_factor(QI_ZERO)


def test_factor_composes_back():
    for q in ideals_to(60):
        fac = qi_factor(q)  # the labels alone: the kind's factor certifies them
        composed = QI_ONE
        for (p, b), e in fac.items():
            composed = qi_mul(composed, Q5.power(prime_for_root(p, b), e))
        assert composed == q
        assert Q5.factor(q) == fac  # the kind's labels are qi_factor's


def test_factor_certificate_rejects_wrong_labels(monkeypatch):
    monkeypatch.setattr(instances, "qi_factor", lambda q: {(3, 1): 1})
    with pytest.raises(InternalError, match="compose back"):
        Q5.factor(P2)
    with pytest.raises(InternalError, match="compose back"):
        Q5.is_prime(P2)


def test_quad_ideals_oracle_valid_and_counts():
    pool = ideals_to(30)
    assert len(pool) == len(set(pool))
    for q in pool:
        assert q.g >= 1 and q.a >= 1 and 0 <= q.b < q.a
        assert (q.b * q.b + 5) % q.a == 0
        assert q.norm() <= 30
    by_norm = {}
    for q in pool:
        by_norm[q.norm()] = by_norm.get(q.norm(), 0) + 1
    assert by_norm[1] == 1
    assert by_norm[2] == 1  # one prime over 2
    assert by_norm[3] == 2  # split
    assert by_norm[4] == 1  # only (2)
    assert by_norm[5] == 1  # ramified
    assert by_norm[6] == 2
    assert by_norm[7] == 2  # split
    assert by_norm[9] == 3  # p3^2, p3'^2, (3)
    assert 11 not in by_norm  # inert: no ideal of norm 11
    assert 13 not in by_norm  # inert as well
