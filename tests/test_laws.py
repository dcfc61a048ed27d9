"""Law harness: status matrix, exact first witnesses, the tuple order, reproducibility."""

import ast
import itertools
import json
import math
import pathlib
import re

import pytest

from semideal import (
    TooLarge,
    UnknownLaw,
    Unsupported,
    check_law,
    ideal_from_generators,
    ideal_intersect,
    ideal_invert,
    ideal_membership,
    ideal_product,
    ideal_quotient,
    ideal_str,
    ideal_sum,
    instance,
    unit_ideal,
)
from semideal import instances, laws, natideal
from semideal.errors import InvalidInput
from semideal.laws import _CHECKERS, LAW_IDS, MAX_TRIALS
from semideal.quadratic import QuadIdeal

from oracles import n0_intersect, n0_product

N0 = instance("n0")
GCD = instance("gcd")
GS = instance("gcd-supported(2,3)")
DVS = instance("dvs")
LAG = instance("lagrassa")
Q5 = instance("quad5")
ALL = (N0, GCD, GS, DVS, LAG, Q5)

# Expected outcome of check_law at the default budget (trials=200, seed=0);
# the one enumeration order pins where each counterexample surfaces.
# "pass" means no violation found within the budget, not a proof: law-6 and
# the distributive law fail on n0, but the order reaches their first
# counterexamples only at trials 370 and 305
# (test_law4_and_law6_and_distributive_n0_witnesses), and quotient-absorb and
# reyes on n0 hold for every tuple, while laws 1 to 5 and contains-iff-divides
# all fail on n0 within it.
EXPECTED = {}
for _law in LAW_IDS:
    for _inst in ALL:
        EXPECTED[(_law, _inst.id)] = "pass"
for _law, _iid in [
    ("dedekind2-law-1", "n0"),
    ("dedekind2-law-2", "n0"),
    ("dedekind2-law-3", "n0"),
    ("dedekind2-law-4", "n0"),
    ("dedekind2-law-5", "n0"),
    ("contains-iff-divides", "n0"),
    ("multiplicative-cancellation", "lagrassa"),
]:
    EXPECTED[(_law, _iid)] = "fail"
for _law, _iid in [
    ("dedekind2-law-1", "lagrassa"),
    ("reyes", "lagrassa"),
    ("contains-iff-divides", "lagrassa"),
    ("coprime-identities", "n0"),
    ("coprime-identities", "lagrassa"),
]:
    EXPECTED[(_law, _iid)] = "unsupported"


def _nat(*gens):
    return ideal_from_generators(N0, list(gens))


def _residual(a, b):
    """The integral residual quotient [a : b] n S that the law checks compute."""
    return ideal_intersect(ideal_quotient(a, b), unit_ideal(N0))


def test_status_matrix_at_default_budget():
    for law in LAW_IDS:
        for inst in ALL:
            want = EXPECTED[(law, inst.id)]
            try:
                rep = check_law(inst, law)
            except Unsupported:
                assert want == "unsupported", (law, inst.id)
                continue
            assert rep.status == want, (law, inst.id, rep.witness)
            assert rep.law == law
            assert rep.instance == inst.id
            assert rep.trials >= 1
            if rep.status == "pass":
                assert rep.witness is None
            else:
                assert isinstance(rep.witness, dict)
                json.dumps(rep.witness, sort_keys=True)  # serializable


def test_dedekind_flagged_instances_pass_all_six():
    for inst in (GCD, GS, DVS, Q5):
        for law in (
            "dedekind2-law-1",
            "dedekind2-law-2",
            "dedekind2-law-3",
            "dedekind2-law-4",
            "dedekind2-law-5",
            "dedekind2-law-6",
        ):
            assert check_law(inst, law, trials=150, seed=3).status == "pass", (inst.id, law)


def test_law3_n0_witness_is_exact_and_reproducible():
    rep = check_law(N0, "dedekind2-law-3")
    assert rep.status == "fail"
    assert rep.witness == {
        "a": "I(2)",
        "b": "I(3)",
        "left": "I(12,18)",
        "missing_from_left": "6",
        "right": "I(6)",
    }
    # re-evaluate the witness from scratch: (a+b)(a & b) vs ab
    a, b = _nat(2), _nat(3)
    left = ideal_product(ideal_sum(a, b), ideal_intersect(a, b))
    right = ideal_product(a, b)
    assert ideal_str(left) == "I(12,18)"
    assert ideal_str(right) == "I(6)"
    assert ideal_membership(right, 6) and not ideal_membership(left, 6)


def test_law1_n0_witness_names_a_noninvertible_ideal():
    rep = check_law(N0, "dedekind2-law-1")
    assert rep.status == "fail"
    assert rep.witness == {
        "a": "I(2,3)",
        "candidate_inverse": "I(1)",
        "product": "I(2,3)",
    }
    assert ideal_invert(_nat(2, 3)) is None


def test_law5_n0_witness():
    rep = check_law(N0, "dedekind2-law-5")
    assert rep.status == "fail"
    assert rep.witness == {
        "a": "I(2)",
        "b": "I(3)",
        "left": "I(2,3)",
        "missing_from_left": "1",
        "right": "I(1)",
    }
    # [2:3] + [3:2] = (2) + (3), which misses 1
    a, b = _nat(2), _nat(3)
    left = ideal_sum(_residual(a, b), _residual(b, a))
    assert ideal_str(left) == "I(2,3)"
    assert not ideal_membership(left, 1)


def test_law4_and_law6_and_distributive_n0_witnesses():
    rep4 = check_law(N0, "dedekind2-law-4")
    assert (rep4.status, rep4.trials) == ("fail", 40)
    assert rep4.witness["a"] == "I(2)" and rep4.witness["b"] == "I(3)"
    assert rep4.witness["c"] == "I(2,3)"
    assert rep4.witness["left"] == "I(1)" and rep4.witness["right"] == "I(2,3)"
    # [(2)+(3) : (2,3)] = [(2,3) : (2,3)] = S, while
    # [2:(2,3)] + [3:(2,3)] = (2)+(3) misses 1
    a, b, c = _nat(2), _nat(3), _nat(2, 3)
    assert ideal_str(_residual(ideal_sum(a, b), c)) == "I(1)"
    assert ideal_str(ideal_sum(_residual(a, c), _residual(b, c))) == "I(2,3)"

    # law 6 and the distributive law hold on every tuple of the first six
    # ideals, so they pass the default budget and fail past it
    assert check_law(N0, "dedekind2-law-6", trials=369).status == "pass"
    rep6 = check_law(N0, "dedekind2-law-6", trials=500)
    assert (rep6.status, rep6.trials) == ("fail", 370)
    assert rep6.witness == {
        "a": "I(2)",
        "b": "I(3,4,5)",
        "c": "I(3,4)",
        "left": "I(1)",
        "missing_from_right": "1",
        "right": "I(2,3)",
    }
    # [c : a & b] = [(3,4) : (4,6)] = S, while [c:a] + [c:b] = (2,3) + (2,3) misses 1
    a, b, c = _nat(2), _nat(3, 4, 5), _nat(3, 4)
    assert ideal_str(_residual(c, ideal_intersect(a, b))) == "I(1)"
    assert ideal_str(ideal_sum(_residual(c, a), _residual(c, b))) == "I(2,3)"

    assert check_law(N0, "distributive-lattice", trials=304).status == "pass"
    repd = check_law(N0, "distributive-lattice", trials=500)
    assert (repd.status, repd.trials) == ("fail", 305)
    assert repd.witness == {
        "a": "I(2,5)",
        "b": "I(2)",
        "c": "I(3)",
        "left": "I(2,5)",
        "missing_from_right": "5",
        "right": "I(2,9)",
    }
    a, b, c = _nat(2, 5), _nat(2), _nat(3)
    left = ideal_intersect(a, ideal_sum(b, c))
    right = ideal_sum(ideal_intersect(a, b), ideal_intersect(a, c))
    assert ideal_str(left) == "I(2,5)"
    assert ideal_str(right) == "I(2,9)"
    assert ideal_membership(left, 5) and not ideal_membership(right, 5)


def test_contains_iff_divides_n0_witness():
    rep = check_law(N0, "contains-iff-divides")
    assert rep.status == "fail"
    assert rep.witness["a"] == "I(2,3)" and rep.witness["b"] == "I(2)"
    assert rep.witness["contains"] is True
    assert rep.witness["largest_cofactor"] == "I(2)"
    assert rep.witness["product"] == "I(4,6)"
    assert rep.witness["missing_from_product"] == "2"
    # the largest candidate cofactor really is the residual quotient, and it
    # undershoots: (2,3)*(2) = (4,6) does not reach 2
    a, b = _nat(2, 3), _nat(2)
    q = _residual(b, a)
    prod = ideal_product(a, q)
    assert ideal_str(q) == "I(2)"
    assert not ideal_membership(prod, 2)


CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "laws-default.cfg"

# the largest generator of each n0 "expect fail" row's witness as the grid,
# random fill and shrinker reported it before ideals were enumerated by size
# (law 2: the counterexample the grid reached at trial 735)
SHRUNK_LARGEST = {
    "dedekind2-law-1": 3,
    "dedekind2-law-2": 3,
    "dedekind2-law-3": 3,
    "dedekind2-law-4": 5,
    "dedekind2-law-5": 3,
    "dedekind2-law-6": 6,
    "distributive-lattice": 5,
    "contains-iff-divides": 3,
}


def test_expected_failures_are_the_first_failing_tuples():
    # the tuples are checked in one order, so a row's witness is the first
    # failing tuple: one trial fewer passes, and the witness is no larger
    # than the one the shrinker used to reach
    rows = [line.split() for line in CONFIG.read_text().splitlines() if line.endswith("expect fail")]
    assert len(rows) == 9
    for _, law, _, iid, _, trials, _, seed, *_ in rows:
        rep = check_law(instance(iid), law, int(trials), int(seed))
        assert rep.status == "fail", (law, iid)
        assert check_law(instance(iid), law, rep.trials - 1, int(seed)).status == "pass", (law, iid)
        if iid == "n0":
            gens = [int(g) for key in "abc" if key in rep.witness for g in re.findall(r"\d+", rep.witness[key])]
            assert max(gens) <= SHRUNK_LARGEST[law], (law, rep.witness)
        else:
            assert (law, iid, rep.trials) == ("multiplicative-cancellation", "lagrassa", 3)
            assert rep.witness == {"a": "u", "b": "u", "c": "1", "product": "u"}


def test_tuples_go_by_largest_index_then_lexicographically():
    class Counting:
        def __init__(self, size):
            self.size = size

        def enumerated(self, n):
            return list(range(min(n, self.size)))

    def order(size, arity):
        return sorted(itertools.product(range(size), repeat=arity), key=lambda t: (max(t), t))

    for arity in (1, 2, 3):
        assert list(laws._tuples(Counting(6), arity, 10**4)) == order(6, arity)
        assert list(laws._tuples(Counting(10**9), arity, 40)) == order(40, arity)[:40]


def test_tuples_read_the_prefix_once():
    # one read of the least K ideals with K**arity >= trials
    class Counting:
        def __init__(self):
            self.reads = []

        def enumerated(self, n):
            self.reads.append(n)
            return list(range(n))

    for arity, trials, side in ((1, 40, 40), (2, 40, 7), (2, 49, 7), (2, 50, 8), (3, 512, 8), (3, 513, 9), (3, 10**4, 22)):
        ar = Counting()
        assert len(list(laws._tuples(ar, arity, trials))) == trials
        assert ar.reads == [side], (arity, trials)


def test_determinism_same_args_same_report():
    for law, inst in [
        ("dedekind2-law-3", N0),
        ("distributive-lattice", N0),
        ("dedekind-identity", Q5),
        ("coprime-identities", GCD),
    ]:
        r1 = check_law(inst, law, trials=120, seed=11)
        r2 = check_law(inst, law, trials=120, seed=11)
        assert r1.to_dict() == r2.to_dict()


def test_dedekind_identity_passes_everywhere():
    for inst in ALL:
        rep = check_law(inst, "dedekind-identity", trials=100, seed=5)
        assert rep.status == "pass", inst.id


def test_coprime_identities_support():
    # every kind whose ideals factor into primes, sampled like any other law
    for inst in (GCD, GS, DVS, Q5):
        for trials in (200, 5000):
            rep = check_law(inst, "coprime-identities", trials=trials)
            assert (rep.status, rep.trials) == ("pass", trials), (inst.id, rep.witness)
    for inst in (N0, LAG):
        with pytest.raises(Unsupported, match="do not factor into primes"):
            check_law(inst, "coprime-identities")
    # the sum of coprime prime powers drops exponents to the componentwise min
    assert ideal_str(ideal_sum(ideal_from_generators(GCD, [24]), ideal_from_generators(GCD, [18]))) == "I(6)"


def test_coprime_identities_catches_a_wrong_meet(monkeypatch):
    # the product in place of the meet agrees with it only on coprime pairs
    for inst in (GCD, GS, DVS, Q5):
        monkeypatch.setattr(inst, "meet", inst.mul)
        rep = check_law(inst, "coprime-identities")
        monkeypatch.undo()
        assert rep.status == "fail", inst.id
        w = rep.witness
        assert set(w) == {"a", "b", "operation", "got", "expected"}
        assert w["operation"] == "intersect", (inst.id, w)
        assert w["got"] != w["expected"]


def test_sampled_trials_count_the_tuples_checked():
    for law, (arity, _, _, _) in _CHECKERS.items():
        for inst in (GCD, GS, DVS, LAG, Q5):
            try:
                rep = check_law(inst, law, trials=5, seed=1)
            except Unsupported:
                continue
            assert rep.trials == 5, (law, inst.id)
    # a finite kind's tuples run out: a larger budget checks each one once
    assert check_law(LAG, "dedekind-identity", trials=200).trials == 27
    assert check_law(LAG, "dedekind2-law-3", trials=5).trials == 5
    # the element route multiplies the elements up to isqrt(trials), and
    # counts the products it takes, at most the budget
    for inst in (N0, GCD, GS, DVS, Q5):
        for trials in (1, 5, 8, 40, 10**4):
            n = len(inst.elements(math.isqrt(trials)))
            rep = check_law(inst, "multiplicative-cancellation", trials=trials)
            assert (rep.status, rep.trials) == ("pass", min(trials, (n - 1) * n)), (inst.id, trials)
    assert check_law(LAG, "multiplicative-cancellation", trials=10**4).trials == 3


def test_a_one_term_edit_refutes_a_law(monkeypatch):
    # the row of _EQUATIONS is the one source of its check: law 2 with the
    # right side's meet made a sum, ab + ac, fails on dvs at its first tuple
    # with b != c, (S, S, t): a(b & c) = t^max(0, 1) but ab + ac = t^min(0, 1)
    left, right, nonzero = laws._EQUATIONS["dedekind2-law-2"]
    holds = check_law(DVS, "dedekind2-law-2", 10**4)
    assert (holds.status, holds.trials) == ("pass", 10**4)
    monkeypatch.setitem(laws._EQUATIONS, "dedekind2-law-2", (left, right.replace("meet", "add"), nonzero))
    rep = check_law(DVS, "dedekind2-law-2", 10**4)
    assert (rep.status, rep.trials) == ("fail", 2)
    assert rep.witness == {"a": "S", "b": "S", "c": "t^1", "left": "t^1", "right": "S", "missing_from_left": "1"}
    monkeypatch.undo()
    assert check_law(DVS, "dedekind2-law-2", 10**4) == holds


def test_each_equation_row_is_consistent():
    # each term is calls of the four operations on exactly the variables of
    # its law's arity, and the unit S; its memo plan names only operations
    # the terms call, since a stale plan would change speed but no answer
    assert len(laws._EQUATIONS) == 8 and set(laws._EQUATIONS) <= set(_CHECKERS)
    for law, (left, right, nonzero) in laws._EQUATIONS.items():
        arity, needs, _, recurring = _CHECKERS[law]
        names, called = set(), set()
        for text in (left, right, *nonzero):
            tree = ast.parse(text, mode="eval")
            assert {type(node) for node in ast.walk(tree)} <= {ast.Expression, ast.Call, ast.Name, ast.Load}, text
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    assert isinstance(node.func, ast.Name) and len(node.args) == 2 and not node.keywords, text
                    called.add(node.func.id)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
        assert needs is None and called <= {"add", "mul", "meet", "quotient"}, law
        assert names - called - {"S"} == set("abc"[:arity]), law
        assert set(recurring) <= called, law


def test_law2_n0_witness_matches_the_oracle():
    # the order reaches a=(2,3), b=(2), c=(3) at trial 43, whatever the seed
    for seed in (0, 3):
        assert check_law(N0, "dedekind2-law-2", trials=42, seed=seed).status == "pass"
        rep = check_law(N0, "dedekind2-law-2", trials=500, seed=seed)
        assert (rep.status, rep.trials) == ("fail", 43)
        assert rep.witness == {
            "a": "I(2,3)",
            "b": "I(2)",
            "c": "I(3)",
            "left": "I(12,18)",
            "missing_from_left": "6",
            "right": "I(6)",
        }
    # a(b & c) = (2,3)(6) misses 6, which lies in ab & ac = (4,6) & (6,9) = (6)
    limit = 60
    left = n0_product([2, 3], sorted(n0_intersect([2], [3], limit) - {0}), limit)
    right = n0_intersect(n0_product([2, 3], [2], limit), n0_product([2, 3], [3], limit), limit)
    assert left == {0, *range(12, limit + 1, 6)}
    assert right == set(range(0, limit + 1, 6))


def test_unknown_law_and_unsupported_combinations():
    with pytest.raises(UnknownLaw):
        check_law(GCD, "dedekind2-law-7")
    with pytest.raises(UnknownLaw):
        check_law(GCD, "")
    for law in ("dedekind2-law-1", "reyes", "contains-iff-divides"):
        with pytest.raises(Unsupported):
            check_law(LAG, law)


def test_trials_past_the_budget_are_refused():
    # the sampled laws and both special routes; 10^9 n0 trials would run for days
    for inst, law in ((N0, "dedekind-identity"), (GCD, "coprime-identities"), (GCD, "multiplicative-cancellation")):
        with pytest.raises(TooLarge):
            check_law(inst, law, trials=MAX_TRIALS + 1)
        with pytest.raises(TooLarge):
            check_law(inst, law, trials=10**9)
    assert check_law(GCD, "reyes", trials=MAX_TRIALS, seed=1).trials == MAX_TRIALS


def test_multiplicative_cancellation_routing():
    rep = check_law(LAG, "multiplicative-cancellation", trials=50, seed=9)
    assert rep.status == "fail"
    assert rep.law == "multiplicative-cancellation"
    assert rep.seed == 9
    assert rep.witness == {"a": "u", "b": "u", "c": "1", "product": "u"}
    for inst in (N0, GCD, GS, DVS, Q5):
        assert check_law(inst, "multiplicative-cancellation", trials=50).status == "pass"


def test_report_to_dict_shape():
    rep = check_law(N0, "dedekind2-law-3")
    d = rep.to_dict()
    assert set(d) == {"law", "instance", "trials", "seed", "status", "witness"}
    assert d["status"] == "fail"
    json.dumps(d, sort_keys=True)


def test_quotient_absorb_and_reyes_pass_on_fractional_instances():
    for inst in (N0, GCD, GS, DVS, Q5):
        assert check_law(inst, "quotient-absorb", trials=150, seed=2).status == "pass"
        assert check_law(inst, "reyes", trials=150, seed=2).status == "pass"
    assert check_law(LAG, "quotient-absorb", trials=50).status == "pass"


def test_seed_changes_only_the_reported_seed():
    for law in LAW_IDS:
        for inst in ALL:
            try:
                reports = [check_law(inst, law, trials=100, seed=seed).to_dict() for seed in (0, 1, 7)]
            except Unsupported:
                continue
            assert [r.pop("seed") for r in reports] == [0, 1, 7]
            assert reports[0] == reports[1] == reports[2], (law, inst.id)


def _memo_lives_for_one_check(monkeypatch, inst, module, name, law="dedekind-identity", trials=500):
    # module.name is the costly call under the memoized operations
    calls = []
    real = getattr(module, name)
    check_law(inst, law, trials, 1)  # the enumerated prefix is kept on the kind object; the memo is not
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    counts = []
    for _ in range(2):
        calls.clear()
        first = check_law(inst, law, trials, 1)
        counts.append(len(calls))
    # a memo kept past the call would make the second check cheaper
    assert counts[0] == counts[1] > 0
    monkeypatch.setattr(laws, "_memoized", lambda ar, recurring: ar)
    calls.clear()
    assert check_law(inst, law, trials, 1) == first
    assert len(calls) > counts[0]
    return counts[0]


def test_n0_memo_lives_for_one_check(monkeypatch):
    _memo_lives_for_one_check(monkeypatch, N0, natideal, "additive_closure")


def test_quad5_memo_lives_for_one_check(monkeypatch):
    _memo_lives_for_one_check(monkeypatch, Q5, instances, "qi_mul")


def test_factor_memo_lives_for_one_check(monkeypatch):
    # coprime-identities factors each ideal of its pairs once per check
    distinct = {x for pair in laws._tuples(GCD, 2, 200) for x in pair}
    assert len(distinct) == 15
    assert _memo_lives_for_one_check(monkeypatch, GCD, instances, "factorint", "coprime-identities", 200) == len(distinct)


def test_memo_follows_each_laws_plan():
    # a check memoizes the operations that recur in its law's tuples and that
    # cost more than a lookup on its kind; the rest are called as they are
    for law, (_, _, _, recurring) in _CHECKERS.items():
        for inst in (DVS, LAG):
            assert laws._memoized(inst, recurring) is inst, (law, inst.id)
        for inst in (GCD, GS):
            ar = laws._memoized(inst, recurring)
            assert (ar is inst) == ("factor" not in recurring), (law, inst.id)
        for inst in (N0, Q5):
            ar = laws._memoized(inst, recurring)
            for name in ("add", "mul", "meet", "quotient", "contains", "cofactor", "factor"):
                if not hasattr(inst, name):
                    continue
                remembered = getattr(ar, name).__qualname__ == "_once.<locals>.once"
                assert remembered == (name in recurring and name in inst.memoized), (law, inst.id, name)
    # law 1 checks single ideals, and law 3's and contains-iff-divides' pairs
    # never recur, so they run on the kind object itself
    for law in ("dedekind2-law-1", "dedekind2-law-3", "contains-iff-divides"):
        for inst in ALL:
            assert laws._memoized(inst, _CHECKERS[law][3]) is inst, (law, inst.id)


def test_quad5_law3_calls_qi_mul_as_often_as_with_no_memo(monkeypatch):
    real, calls = instances.qi_mul, []
    check_law(Q5, "dedekind2-law-3", 500, 4)  # the enumerated prefix is read once
    monkeypatch.setattr(instances, "qi_mul", lambda x, y: calls.append((x, y)) or real(x, y))
    counts = []
    for memoized in (laws._memoized, lambda ar, recurring: ar):
        monkeypatch.setattr(laws, "_memoized", memoized)
        calls.clear()
        assert check_law(Q5, "dedekind2-law-3", 500, 4).status == "pass"
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_memo_keeps_no_raise(monkeypatch):
    pairs = {
        N0: (natideal, "nat_product", natideal.from_generators([3, 5]), natideal.from_generators([4, 7])),
        Q5: (instances, "qi_mul", QuadIdeal(1, 2, 1), QuadIdeal(1, 3, 1)),
    }
    for inst, (module, name, a, b) in pairs.items():
        ar = laws._memoized(inst, ("mul",))
        assert ar is not inst and laws._memoized(inst, ("mul",)) is not ar
        assert inst.add.__func__ is type(inst).add  # the shared kind object is untouched
        assert inst.mul.__func__ is type(inst).mul
        product = getattr(module, name)
        raised = []

        def too_large(i, j):
            raised.append((i, j))
            raise TooLarge("past the budget")

        monkeypatch.setattr(module, name, too_large)
        for _ in range(2):
            with pytest.raises(TooLarge):
                ar.mul(a, b)
        assert len(raised) == 2, inst.id
        monkeypatch.setattr(module, name, product)
        assert ar.mul(a, b) == product(a, b)
    # the unary factor memo keeps no raise either
    ar = laws._memoized(GCD, ("factor",))
    assert GCD.factor.__func__ is type(GCD).factor
    raised = []

    def refuse(n):
        raised.append(n)
        raise TooLarge("past the budget")

    monkeypatch.setattr(instances, "factorint", refuse)
    for _ in range(2):
        with pytest.raises(TooLarge):
            ar.factor(12)
    assert raised == [12, 12]
    monkeypatch.undo()
    assert ar.factor(12) == GCD.factor(12) == {(2, None): 2, (3, None): 1}


def test_equal_payloads_share_one_memo_entry(monkeypatch):
    # the memo keys a pair by its payloads' canonical ints, so an equal but
    # distinct payload is a hit, and no payload's own __hash__ runs
    pairs = {
        N0: (natideal, "nat_product", natideal.NatIdeal, lambda: natideal.from_generators([3, 5])),
        Q5: (instances, "qi_mul", QuadIdeal, lambda: QuadIdeal(1, 2, 1)),
    }
    for inst, (module, name, cls, make) in pairs.items():
        ar = laws._memoized(inst, ("mul",))
        a, b = make(), make()
        assert a is not b and a == b
        real, calls = getattr(module, name), []
        monkeypatch.setattr(module, name, lambda x, y: calls.append((x, y)) or real(x, y))
        monkeypatch.setattr(cls, "__hash__", lambda self: pytest.fail("a payload was hashed"))
        assert ar.mul(a, a) is ar.mul(b, b) is ar.mul(a, b)
        assert len(calls) == 1, inst.id
        monkeypatch.undo()


def test_memo_changes_no_report(monkeypatch):
    # every report is the same with each law's memo plan, with no memo, and
    # with every costly operation of the kind memoized on every law
    planned = {}
    for inst in ALL:
        for law in LAW_IDS:
            try:
                planned[inst.id, law] = check_law(inst, law, 300, 1)
            except Unsupported:
                continue
    assert len(planned) == len(ALL) * len(LAW_IDS) - 5  # as EXPECTED's five "unsupported"
    memoized = laws._memoized
    for plan in (lambda ar, recurring: ar, lambda ar, recurring: memoized(ar, ar.memoized)):
        monkeypatch.setattr(laws, "_memoized", plan)
        for (iid, law), report in planned.items():
            assert check_law(instance(iid), law, 300, 1) == report, (iid, law)


def test_memo_starts_over_past_its_size(monkeypatch):
    # a check of many trials meets more operand pairs than it is worth
    # keeping, so it must not keep every result
    monkeypatch.setattr(laws, "MEMO_SIZE", 2)
    seen = []
    once = laws._once(lambda x, y: seen.append((x, y)) or x + y, lambda x, y: (x, y))
    for pair in ((1, 2), (1, 2), (3, 4), (1, 2), (5, 6), (1, 2)):
        assert once(*pair) == sum(pair)
    assert seen == [(1, 2), (3, 4), (5, 6), (1, 2)]
    # the unary memo (key None) the same way
    seen.clear()
    once = laws._once(lambda x: seen.append(x) or -x, None)
    for x in (1, 1, 3, 1, 5, 1):
        assert once(x) == -x
    assert seen == [1, 3, 5, 1]


def test_law1_certificate_is_checked(monkeypatch):
    # a wrong product from the kind's frac_mul must fail law 1, whose witness
    # names the first a and the product it got
    for inst in (GCD, Q5):
        real = inst.frac_mul
        monkeypatch.setattr(inst, "frac_mul", lambda x, y: real(x, real(y, y)))  # x*y*y in place of x*y
        rep = check_law(inst, "dedekind2-law-1", 500, 2)
        monkeypatch.undo()
        a = inst.enumerated(2)[1]  # the first ideal is S, whose inverse S squares to itself
        fa = inst.join(a, inst.eone)
        inverse = ideal_invert(ideal_from_generators(inst, inst.generators(a))).payload
        assert (rep.status, rep.trials) == ("fail", 2), inst.id
        assert rep.witness == {
            "a": inst.str(a),
            "candidate_inverse": inst.frac_str(inverse),
            "product": inst.frac_str(real(fa, real(inverse, inverse))),
        }, inst.id
        assert rep.witness["product"] != inst.frac_str(inst.join(inst.one, inst.eone))
        assert check_law(inst, "dedekind2-law-1", 500, 2).status == "pass"


def test_reyes_witness_names_both_sides_and_the_cover(monkeypatch):
    # a quotient [a : b] multiplied by b once more recovers a*b in place of a,
    # so reyes fails at the first pair a = b other than S: trial 4, (x, x)
    # for the second ideal x, whose cover is x itself
    for inst in (GCD, Q5):
        real = inst.quotient
        monkeypatch.setattr(inst, "quotient", lambda a, b: inst.mul(real(a, b), b))
        rep = check_law(inst, "reyes", 200, 0)
        monkeypatch.undo()
        x = inst.enumerated(2)[1]
        xx = inst.mul(x, x)
        assert (rep.status, rep.trials) == ("fail", 4), inst.id
        assert rep.witness == {
            "a": inst.str(x),
            "b_sampled": inst.str(x),
            "b": inst.str(x),
            "left": inst.str(xx),
            "right": inst.str(x),
            "missing_from_left": inst.estr(x),  # the generator of x is not in x*x
        }, inst.id
        assert check_law(inst, "reyes", 200, 0).status == "pass"
    assert rep.witness["left"] == "2*O" and rep.witness["missing_from_left"] == "(2, 1+w)"


def test_contains_iff_divides_witness_names_the_cofactor(monkeypatch):
    # a containment that misses a >= a for every a but S: at the first such
    # pair, trial 4, (x, x) for the second ideal x, the cofactor S divides
    # x into x although x is said not to contain itself
    for inst in (GCD, Q5):
        real = inst.contains
        monkeypatch.setattr(inst, "contains", lambda a, b: real(a, b) and (a != b or a == inst.one))
        rep = check_law(inst, "contains-iff-divides", 200, 0)
        monkeypatch.undo()
        x = inst.enumerated(2)[1]
        assert (rep.status, rep.trials) == ("fail", 4), inst.id
        assert rep.witness == {"a": inst.str(x), "b": inst.str(x), "contains": False, "cofactor": inst.str(inst.one)}
        assert check_law(inst, "contains-iff-divides", 200, 0).status == "pass"
    assert (rep.witness["a"], rep.witness["cofactor"]) == ("(2, 1+w)", "O")


def test_trials_must_be_a_nonnegative_integer(monkeypatch):
    # refused by name before any work, on every law and every kind, even one
    # where the law is not defined
    monkeypatch.setattr(laws, "_memoized", lambda ar, recurring: pytest.fail("a check started"))
    monkeypatch.setattr(laws, "_cancellation", lambda *args: pytest.fail("a check started"))
    for law in LAW_IDS:
        for inst in (GCD, LAG):
            for trials in (-1, -3, -(10**5000), 2.5, 7.0, "7", None, True):
                with pytest.raises(InvalidInput, match=f"trials for {law} must be a nonnegative integer"):
                    check_law(inst, law, trials)
    assert issubclass(InvalidInput, ValueError)
