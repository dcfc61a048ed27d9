"""Polynomials, content ideals, product content formulas, module cancellation."""

import importlib
import random

import pytest

from semideal import (
    DMCapExceeded,
    InstanceMismatch,
    Unsupported,
    content,
    dm_exponent,
    element,
    gaussian_check,
    ideal_equals,
    ideal_from_generators,
    ideal_membership,
    ideal_product,
    ideal_str,
    instance,
    m_cancellation_check,
    poly,
    poly_mul,
    poly_str,
    unit_ideal,
    zero_ideal,
)
from semideal.ideals import min_nonzero
from semideal.polynomials import Polynomial

content_module = importlib.import_module("semideal.content")  # the package's name content is the function

N0 = instance("n0")
GCD = instance("gcd")
GS = instance("gcd-supported(2,3)")
DVS = instance("dvs")
LAG = instance("lagrassa")
Q5 = instance("quad5")


def test_poly_normalization_and_str():
    f = poly(GCD, [4, 6, 0, 0])
    assert f.coeffs == (4, 6)
    assert f.degree() == 1
    assert poly(GCD, [0, 0]).coeffs == ()
    assert poly(GCD, [0, 0]).degree() == -1
    assert poly_str(poly(GCD, [4, 6])) == "4 + 6*X"
    assert poly_str(poly(GCD, [0, 1, 0, 3])) == "X + 3*X^3"
    assert poly_str(poly(GCD, [])) == "0"
    assert poly_str(poly(DVS, [None, 2, 0])) == "t^2*X + X^2"
    assert poly_str(poly(N0, [2, 3])) == "2 + 3*X"


def test_poly_mul_int_oracle():
    # over n0 the convolution is ordinary polynomial multiplication
    rng = random.Random(8)
    for _ in range(80):
        fc = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
        gc = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
        f, g = poly(N0, fc), poly(N0, gc)
        prod = poly_mul(f, g)
        expect = [0] * (len(fc) + len(gc) - 1)
        for i, a in enumerate(fc):
            for j, b in enumerate(gc):
                expect[i + j] += a * b
        while expect and expect[-1] == 0:
            expect.pop()
        assert prod.coeffs == tuple(expect)


def test_poly_mul_gcd_semantics():
    # over gcd the coefficient accumulator is the gcd
    f = poly(GCD, [4, 6])
    g = poly(GCD, [10, 21])
    # coefficients: 4*10, gcd(4*21, 6*10), 6*21
    assert poly_mul(f, g).coeffs == (40, 12, 126)
    with pytest.raises(InstanceMismatch):
        poly_mul(f, poly(N0, [1]))
    assert poly_mul(f, poly(GCD, [])).coeffs == ()


def test_content():
    assert content(poly(N0, [2, 3])).payload == ideal_from_generators(N0, [2, 3]).payload
    assert content(poly(GCD, [4, 6])).payload == 2
    assert ideal_equals(content(poly(GCD, [])), zero_ideal(GCD))
    assert ideal_equals(content(poly(DVS, [3, 5])), ideal_from_generators(DVS, [3]))


def test_gaussian_gcd_pair_holds():
    f = poly(GCD, [2])
    g = poly(GCD, [5])
    rep = gaussian_check(f, g)
    assert rep.gaussian is True
    assert rep.dm_exponent == 0
    assert rep.witness is None
    assert rep.product == "I(10)"


def test_gaussian_always_holds_on_gcd_random():
    rng = random.Random(12)
    for _ in range(120):
        f = poly(GCD, [rng.randint(0, 999) for _ in range(rng.randint(1, 7))])
        g = poly(GCD, [rng.randint(0, 999) for _ in range(rng.randint(1, 7))])
        rep = gaussian_check(f, g)
        assert rep.gaussian is True, (f, g)
        assert dm_exponent(f, g) == 0


def test_gaussian_fails_on_n0_witness():
    f = poly(N0, [2, 3])
    rep = gaussian_check(f, f)
    assert rep.gaussian is False
    assert rep.dm_exponent is None
    assert rep.content_f == "I(2,3)" and rep.content_g == "I(2,3)"
    assert rep.content_fg == "I(4,9)"  # (2+3X)^2 = 4 + 12X + 9X^2, and 12 in (4,9)... checked below
    assert rep.product == "I(4,6,9)"
    assert rep.witness == {"member": "6", "in": "c(f)c(g)", "not_in": "c(fg)"}
    # the separating member really separates
    cfg = content(poly_mul(f, f))
    prod = ideal_product(content(f), content(f))
    assert ideal_membership(prod, 6) and not ideal_membership(cfg, 6)
    assert dm_exponent(f, f) == 1


def test_gaussian_report_fields():
    rep = gaussian_check(poly(N0, [2, 3]), poly(N0, [2, 3]))
    assert rep.instance == "n0"
    assert rep.f == "2 + 3*X" and rep.g == "2 + 3*X"
    d = rep.to_dict()
    assert d["gaussian"] is False and d["witness"]["member"] == "6"


# Base pairs whose minimal balancing exponent was found by exhaustively checking
# every pair of degree-<=2 polynomials with coefficients <= 4: the value survives
# scaling f -> a*X^i*f, g -> b*X^j*g because both sides of the exponent ladder
# pick up the same factor a^(k+1)*b and scaling by a nonzero natural is injective
# on ideals of naturals.
DM_BASE_PAIRS = [
    ([2, 3], [2, 3], 1),
    ([2, 3], [2, 2, 3], 1),
    ([0, 2, 3], [2, 3, 3], 1),
    ([3, 2], [3, 2], 1),
    ([2, 3], [4, 6], 1),
    ([5], [2, 3, 4], 0),
    ([0, 2, 3], [2, 4, 3], 1),
    ([1, 1], [2, 3], 0),
    ([1, 2, 1], [3], 0),
    ([0, 0, 7], [0, 3, 2], 0),
]


def test_dm_exponent_balances_on_scaled_base_pairs():
    # minimal exponent within deg(g) + 1 on every sampled pair, no cap overflow
    rng = random.Random(13)
    for trial in range(120):
        fc, gc, expected = DM_BASE_PAIRS[trial % len(DM_BASE_PAIRS)]
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        f = poly(N0, [0] * i + [a * c for c in fc])
        g = poly(N0, [0] * j + [b * c for c in gc])
        n = dm_exponent(f, g)
        assert n == expected
        assert 0 <= n <= g.degree() + 1
        # balance holds at n and at no smaller exponent
        cf, cg = content(f), content(g)
        cfg = content(poly_mul(f, g))
        power = unit_ideal(N0)
        for k in range(n):
            assert not ideal_equals(
                ideal_product(ideal_product(power, cf), cg), ideal_product(power, cfg)
            ), (f, g, k)
            power = ideal_product(power, cf)
        assert ideal_equals(ideal_product(ideal_product(power, cf), cg), ideal_product(power, cfg))


def test_dm_exponent_cap_exceeded_when_no_exponent_balances():
    # c(f)^(k+1)*c(g) always contains 4*2^k while the least nonzero member of
    # c(f)^k*c(fg) is 6*2^k, so no exponent at all balances this pair: the
    # least nonzero member of a product ideal is the product of the least
    # nonzero members, and 4 = 2*2 < 6 = 2*3.
    f = poly(N0, [4, 2, 3])
    g = poly(N0, [3, 2])
    cf, cg = content(f), content(g)
    cfg = content(poly_mul(f, g))
    assert min_nonzero(ideal_product(cf, cg)) == 4
    assert min_nonzero(cfg) == 6
    with pytest.raises(DMCapExceeded):
        dm_exponent(f, g)
    # direct check well beyond the cap deg(g) + 1 = 2
    power = unit_ideal(N0)
    for k in range(6):
        assert not ideal_equals(
            ideal_product(ideal_product(power, cf), cg), ideal_product(power, cfg)
        ), k
        power = ideal_product(power, cf)


def test_dm_exponent_zero_cases():
    assert dm_exponent(poly(GCD, [6, 10]), poly(GCD, [15])) == 0
    assert dm_exponent(poly(N0, []), poly(N0, [2, 3])) == 0  # zero polynomial
    assert dm_exponent(poly(N0, [2, 3]), poly(N0, [])) == 0
    with pytest.raises(InstanceMismatch):
        dm_exponent(poly(N0, [1]), poly(GCD, [1]))


def test_dm_symmetric_failure_has_distinct_exponents():
    # deg-capped search never overflows on these, and order matters
    f = poly(N0, [2, 3])
    g = poly(N0, [2, 0, 3])
    nf = dm_exponent(f, g)
    ng = dm_exponent(g, f)
    assert nf <= g.degree() + 1 and ng <= f.degree() + 1
    cf, cg = content(f), content(g)
    assert ideal_equals(cf, cg)  # same contents, different polynomials


def test_quad5_and_dvs_gaussian():
    f = poly(Q5, [element(Q5, 2).payload, element(Q5, 3).payload])
    g = poly(Q5, [element(Q5, 1).payload, element(Q5, 4).payload])
    assert gaussian_check(f, g).gaussian is True
    f = poly(DVS, [2, 5])  # t^2 + t^5 X
    g = poly(DVS, [1, 0])  # t + X
    assert gaussian_check(f, g).gaussian is True


def test_m_cancellation_lagrassa_power_sweep():
    u_ideal = ideal_from_generators(LAG, ["u"])
    rep = m_cancellation_check(u_ideal, ("power", 1))
    assert rep.status == "fail"
    assert rep.witness["a"] == "(u)"
    assert rep.witness["P"] == ["0", "u"]
    assert rep.witness["Q"] == ["0", "1", "u"]
    assert rep.witness["aP"] == ["0", "u"]
    # width 2 fails as well
    rep2 = m_cancellation_check(u_ideal, ("power", 2))
    assert rep2.status == "fail"
    # the unit ideal scales every module to itself: no collision
    rep3 = m_cancellation_check(unit_ideal(LAG), ("power", 1))
    assert rep3.status == "pass"


def test_m_cancellation_power_sweep_builds_the_modules_once(monkeypatch):
    # every span after the first sweep is the image of one module: the
    # submodules of L^2 are built once per instance and width
    spans = []
    real = content_module._span
    monkeypatch.setattr(content_module, "_span", lambda *args: spans.append(1) or real(*args))
    content_module._all_submodules.cache_clear()
    a = unit_ideal(LAG)
    first = m_cancellation_check(a, ("power", 2))
    built = len(spans) - first.trials
    spans.clear()
    second = m_cancellation_check(a, ("power", 2))
    assert second == first and first.trials == 49
    assert len(spans) == second.trials and built >= 1 << 8


def test_m_cancellation_ideal_pairs():
    a = ideal_from_generators(GCD, [6])
    pairs = [
        (ideal_from_generators(GCD, [2]), ideal_from_generators(GCD, [3])),
        (ideal_from_generators(GCD, [4]), ideal_from_generators(GCD, [4])),
    ]
    assert m_cancellation_check(a, ("ideal-pairs", pairs)).status == "pass"
    lag_pairs = [(ideal_from_generators(LAG, ["u"]), unit_ideal(LAG))]
    rep = m_cancellation_check(ideal_from_generators(LAG, ["u"]), ("ideal-pairs", lag_pairs))
    assert rep.status == "fail"
    assert rep.witness == {"a": "(u)", "P": "(u)", "Q": "L", "aP": "(u)"}


def test_m_cancellation_bad_specs():
    with pytest.raises(Unsupported):
        m_cancellation_check(ideal_from_generators(GCD, [2]), ("power", 1))
    with pytest.raises(Unsupported):
        m_cancellation_check(ideal_from_generators(LAG, ["u"]), ("power", 3))
    with pytest.raises(Unsupported):
        m_cancellation_check(ideal_from_generators(LAG, ["u"]), ("nonsense", None))
