"""The closure kernel agrees with the set oracle."""

import random

from semideal import natideal
from semideal._kernels import additive_closure, backend_name
from oracles import closure_members


def mask_from_set(members, limit):
    r = 0
    for m in members:
        if m <= limit:
            r |= 1 << m
    return r


STRUCTURED = [
    ((1,), 10),
    ((2,), 11),
    ((2, 3), 25),
    ((3, 4, 5), 30),
    ((4, 6, 9), 40),
    ((6, 10, 15), 60),
    ((7,), 0),
    ((5, 8), 100),
]


def test_pure_matches_oracle():
    for gens, limit in STRUCTURED:
        assert additive_closure(gens, limit) == mask_from_set(
            closure_members(gens, limit), limit
        )


def test_pure_matches_oracle_random():
    rng = random.Random(20260815)
    for _ in range(200):
        k = rng.randint(1, 4)
        gens = tuple(rng.randint(1, 30) for _ in range(k))
        limit = rng.randint(0, 120)
        assert additive_closure(gens, limit) == mask_from_set(
            closure_members(gens, limit), limit
        )


def test_rejects_bad_input():
    fn = additive_closure
    try:
        fn((0,), 5)
        raise AssertionError("zero generator accepted")
    except ValueError:
        pass
    try:
        fn((3,), -1)
        raise AssertionError("negative limit accepted")
    except ValueError:
        pass


def test_redundant_generators_add_nothing():
    # 10 = 4 + 6 is skipped, as is every generator that is a sum of smaller ones
    for gens, without, limit in (((4, 6, 10), (4, 6), 60), ((3, 5, 8, 9, 11), (3, 5), 40), ((2, 7, 4), (2, 7), 5)):
        assert additive_closure(gens, limit) == additive_closure(without, limit)
        assert additive_closure(gens, limit) == mask_from_set(closure_members(gens, limit), limit)


def test_duplicate_generators_collapse():
    assert additive_closure((3, 3, 3), 10) == additive_closure(
        (3,), 10
    )


def test_backend_name_valid():
    assert backend_name() == "pure"
    # the benchmark harness traces the kernel as the layer of this module
    assert natideal.additive_closure.__module__ == "semideal._kernels"
