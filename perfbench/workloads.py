"""Seeded input generators for the three workloads.

Every generator returns one pass: a list of JSON-serialisable ops. A run
repeats the pass. An op carries what the program is given (a law row or a
CLI argv) and a ``check`` spec that only the output checks read.

Sizes come from fixed strata, and the seed only jitters values inside a
stratum, so every seed gives the same mix of classes and sizes. Queries are
never chosen or dropped by how long they take.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("laws", "n0-eval", "query-mix")


def inputs_hash(ops):
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def op_class(op):
    """Class of an op: the instance of a law row, the n0 class, or the
    subcommand and instance of a query."""
    if "law" in op:
        return op["instance"]
    if "class" in op["check"]:
        return op["check"]["class"]
    argv = op["argv"]
    return f"{argv[0]} {argv[argv.index('--instance') + 1]}"


def generate(workload, seed, config_text=None):
    if workload == "laws":
        return laws_ops(config_text, seed)
    if workload == "n0-eval":
        return n0_eval_ops(seed)
    if workload == "query-mix":
        return query_mix_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# laws: every row of the default matrix, seeds offset by the workload seed


def parse_law_rows(text):
    """Rows of a law config: (law, instance, trials, seed, expect)."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        ok = len(toks) in (8, 10) and toks[0::2][:4] == ["law", "instance", "trials", "seed"]
        if not ok or (len(toks) == 10 and toks[8:] != ["expect", "fail"]):
            raise ValueError(f"law config line {lineno}: {raw!r}")
        rows.append((toks[1], toks[3], int(toks[5]), int(toks[7]), "fail" if len(toks) == 10 else "pass"))
    return rows


# Copies of the matrix per pass. The seed draws each row's random trials, so
# a row's cost moves with it, by up to 8x for the costliest rows. p95 falls
# just past the three costliest rows of the matrix, where few ops lie, and
# it moved by 0.13 (quartile spread over median) from seed to seed with 4
# copies; 16 copies with distinct seed offsets bring that to about 0.07.
LAW_COPIES = 16


def laws_ops(config_text, seed):
    """LAW_COPIES copies of the matrix; copy k offsets every row's seed by
    LAW_COPIES * seed + k."""
    rows = parse_law_rows(config_text)
    return [
        {"law": law, "instance": inst, "trials": trials, "seed": row_seed + LAW_COPIES * seed + k, "check": {"expect": expect}}
        for k in range(LAW_COPIES)
        for law, inst, trials, row_seed, expect in rows
    ]


# ---------------------------------------------------------------------------
# n0-eval: one-off eval queries on n0, a few large ideals each


def _pair_near(rng, target):
    """Coprime a < b whose conductor (a-1)(b-1) is within 3% of target."""
    while True:
        a = round(math.sqrt(target) * rng.uniform(0.7, 0.95))
        lo = math.ceil(0.97 * target / (a - 1)) + 1
        hi = math.floor(1.03 * target / (a - 1)) + 1
        if lo <= hi:
            b = rng.randint(lo, hi)
            if b > a and math.gcd(a, b) == 1:
                return [a, b]


def _small_pair(rng, m):
    """Coprime (m, b) with m < b <= m + 3."""
    while True:
        b = m + rng.randint(1, 3)
        if math.gcd(m, b) == 1:
            return [m, b]


def _lit(gens):
    return "I(" + ",".join(str(g) for g in gens) + ")"


# Strata per class fix the size profile of every pass; the seed only picks
# values inside a stratum. Numbers are conductors of the literals, except
# for canon3 (smallest generator), quotient (conductor of the numerator,
# smallest generator of the denominator) and the powers (the base). The
# strata were set so that result conductors span about 1e2-1e5, one query
# per stratum takes about 1 s on 2 cores, and no class takes more than about
# a third of it (the ^ classes together about 40%). The seed scales the
# power bases, which leaves their cost unchanged: with the extra final
# squaring, a base such as I(7,8) would otherwise make one op's cost swing
# several-fold between seeds.
N0_STRATA = {
    "canon2": (1000, 3000, 8000, 15000, 25000),
    "canon3": (60, 100, 150, 200),
    "sum": (2000, 6000, 12000),
    "meet": (800, 2000, 4000),
    "product": (5, 7, 9, 12),
    "quotient": ((1000, 2), (2500, 3), (4000, 2), (2500, 5)),
    "power2": ((3, 4), (4, 5), (5, 6), (5, 7), (6, 7), (7, 8)),
    "power3": ((3, 4), (3, 5), (4, 5), (5, 6), (6, 7)),
}


# Queries per stratum and pass: more distinct queries steady the percentiles
# from seed to seed.
N0_PER_STRATUM = 4


def _near(s, pos):
    """The size at position pos in [0, 1) of the window s / 1.23 .. s * 1.23,
    log-scaled."""
    return s * 2 ** (0.6 * pos - 0.3)


def _n0_query(rng, cls, s, pos):
    if cls == "canon2":
        a = _pair_near(rng, _near(s, pos))
        return _lit(a), {"op": "canon", "a": a}
    if cls == "canon3":
        scale = rng.choice((1, 1, 2, 3))
        while True:
            a = round(_near(s, pos))
            b, c = rng.sample(range(a + 1, a + a // 2 + 2), 2)
            if math.gcd(a, b, c) == 1:
                break
        gens = [scale * g for g in sorted((a, b, c))]
        return _lit(gens), {"op": "canon", "a": gens}
    if cls in ("sum", "meet"):
        a, b = _pair_near(rng, _near(s, pos)), _pair_near(rng, _near(s, pos))
        return f"{_lit(a)}{'+' if cls == 'sum' else '&'}{_lit(b)}", {"op": cls, "a": a, "b": b}
    if cls == "product":
        a = _small_pair(rng, round(_near(s, pos)))
        b = _small_pair(rng, round(_near(s, pos)))
        return f"{_lit(a)}*{_lit(b)}", {"op": "product", "a": a, "b": b}
    if cls == "quotient":
        target, m = s
        a, b = _pair_near(rng, _near(target, pos)), _small_pair(rng, m)
        return f"[{_lit(a)}:{_lit(b)}]", {"op": "quotient", "a": a, "b": b}
    k = 2 if cls == "power2" else 3
    scale = rng.randint(1, 4)
    a = [scale * g for g in s]
    return f"{_lit(a)}^{k}", {"op": "power", "a": a, "k": k}


def n0_eval_ops(seed):
    rng = random.Random(f"n0-eval/{seed}")
    ops = []
    for cls, strata in N0_STRATA.items():
        for s in strata:
            # Systematic sampling: the queries of a stratum sit evenly across
            # its window, from one random offset, so that every seed gives
            # nearly the same spread of sizes.
            offset = rng.random()
            for k in range(N0_PER_STRATUM):
                pos = (k + offset) / N0_PER_STRATUM
                expr, spec = _n0_query(rng, cls, s, pos)
                spec["class"] = cls
                ops.append({"argv": ["eval", "--instance", "n0", expr, "--json"], "check": spec})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# query-mix: all nine subcommands on the five instances other than n0

GCD = "gcd"
SMOOTH = "gcd-supported(2,3,5,7)"
SMOOTH_PRIMES = (2, 3, 5, 7)
DVS = "dvs"
LAG = "lagrassa"
QUAD = "quad5"


def _smooth(rng, top=6):
    n = 1
    for p in SMOOTH_PRIMES:
        n *= p ** rng.randint(0, top)
    return n


def _prime_near(rng, lo, hi):
    n = rng.randint(lo, hi) | 1
    while not is_prime(n):
        n += 2
    return n


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _quad_label(p, rng):
    """Text label of a prime of quad5 over the rational prime p."""
    if p in (2, 5):
        return f"P{p}"
    roots = [b for b in range(p) if (b * b + 5) % p == 0]
    return f"P{p}[{rng.choice(roots)}]" if roots else f"P{p}"


def _eval_query(rng, inst):
    """An eval expression on a numeric instance, and its spec."""
    form = rng.choice(("sum", "meet", "product", "quotient", "power", "inverse", "literal"))
    if inst == DVS:
        a, b = rng.randint(0, 40), rng.randint(0, 40)
    elif inst == SMOOTH:
        a, b = _smooth(rng), _smooth(rng)
    elif inst == QUAD:
        a, b = rng.randint(1, 10**5), rng.randint(1, 10**5)
    else:
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
    k = rng.randint(2, 4)
    if form == "literal" and inst != DVS:
        text = f"I({a}/{b})"
    elif form in ("literal", "inverse"):
        form = "inverse"
        text = f"inv I({a})"
    else:
        text = {
            "sum": f"I({a})+I({b})",
            "meet": f"I({a})&I({b})",
            "product": f"I({a})*I({b})",
            "quotient": f"[I({a}):I({b})]",
            "power": f"I({a})^{k}",
        }[form]
    return text, {"kind": "eval", "instance": inst, "form": form, "a": a, "b": b, "k": k}


def _query(rng, cmd, inst, i):
    """The i-th query of a (subcommand, instance) class, and its check spec."""
    if cmd == "eval":
        if inst == LAG:
            return ["eval", "--instance", inst, f"I({rng.randint(0, 1)})"], {"kind": "error", "name": "Unsupported"}
        text, spec = _eval_query(rng, inst)
        return ["eval", "--instance", inst, text], spec
    if cmd in ("factor", "classify"):
        if inst == DVS:
            n = rng.randint(0, 60)
            text = f"I({n})" if cmd == "classify" or i % 2 else f"inv I({n})"
            return [cmd, "--instance", inst, text], {"kind": cmd, "instance": inst, "text": text, "n": n}
        if inst == SMOOTH:
            num, den = _smooth(rng, 9), 1
        elif inst == GCD and cmd == "factor":
            # Trial division runs to the square root of the largest prime
            # factor, so its size is stratified: 10^2 .. 10^10.
            e = FACTOR_PRIME_DIGITS[i % len(FACTOR_PRIME_DIGITS)]
            p = _prime_near(rng, 7 * 10 ** (e - 1), 10**e)
            m = _smooth(rng, 3)
            while m * p > 10**10 and m > 1:
                m = _smooth(rng, 3)
            num, den = m * p, 1
        else:
            top = 10**10 if inst == GCD else 10**5
            num, den = (_prime_near(rng, 2, top) if i % 3 == 0 else rng.randint(2, top)), 1
        if cmd == "factor" and inst != SMOOTH and i % 4 == 3:
            den = rng.randint(2, 999)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        text = f"I({num})" if den == 1 else f"I({num}/{den})"
        return [cmd, "--instance", inst, text], {"kind": cmd, "instance": inst, "num": num, "den": den}
    if cmd == "laws":
        choices = LAWS_BY_INSTANCE[inst]
        law, expect = choices[(i + rng.randrange(len(choices))) % len(choices)]
        trials = 3 if inst == LAG else 40
        argv = ["laws", law, "--instance", inst, "--trials", str(trials), "--seed", str(rng.randint(0, 10**6))]
        return argv, {"kind": "law", "expect": expect}
    if cmd == "twogen":
        g = _smooth(rng, 4) if inst == SMOOTH else rng.randint(1, 10**6)
        k = _smooth(rng, 2) if inst == SMOOTH else rng.randint(1, 10**4)
        return ["twogen", "--instance", inst, f"I({g})", str(g * k)], {"kind": "twogen", "g": g, "member": g * k}
    if cmd == "localize":
        p = rng.choice(SMOOTH_PRIMES) if inst == SMOOTH else rng.choice((2, 3, 5, 7, 11, 13, 97, 101))
        n = _smooth(rng, 8) if inst == SMOOTH else p ** rng.randint(0, 9) * rng.randint(1, 10**6)
        return ["localize", "--instance", inst, str(p), f"I({n})"], {"kind": "localize", "p": p, "n": n}
    if cmd == "sandwich":
        if inst == DVS:
            n = rng.randint(1, 40)
            text = f"I({n})" if rng.random() < 0.5 else f"inv I({n})"
            return ["sandwich", "--instance", inst, text], {"kind": "sandwich", "instance": inst, "text": text, "n": n}
        num, den = (_smooth(rng), _smooth(rng)) if inst == SMOOTH else (rng.randint(1, 10**6), rng.randint(1, 10**4))
        g = math.gcd(num, den)
        num, den = num // g, den // g
        argv = ["sandwich", "--instance", inst, f"I({num}/{den})"]
        return argv, {"kind": "sandwich", "instance": inst, "num": num, "den": den}
    if cmd == "dm":
        width_f, width_g = rng.randint(2, 4), rng.randint(2, 4)
        if inst == DVS:
            draw = lambda: rng.randint(0, 9)  # noqa: E731
        elif inst == SMOOTH:
            draw = lambda: _smooth(rng, 3)  # noqa: E731
        else:
            draw = lambda: rng.randint(1, 10**4)  # noqa: E731
        f = [draw() for _ in range(width_f)]
        g = [draw() for _ in range(width_g)]
        argv = ["dm", "--instance", inst, ",".join(map(str, f)), ",".join(map(str, g))]
        return argv, {"kind": "dm", "instance": inst, "f": f, "g": g}
    if cmd == "between":
        if inst == GCD:
            target = str(_prime_near(rng, 2, 100))
        elif inst == SMOOTH:
            target = str(rng.choice(SMOOTH_PRIMES))
        elif inst == DVS:
            target = "t"
        elif inst == LAG:
            target = "u"
        else:
            target = _quad_label(_prime_near(rng, 2, 100), rng)
        return ["between", "--instance", inst, target], {"kind": "between"}
    raise ValueError(cmd)


FACTOR_PRIME_DIGITS = (2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 10, 10)

# Every (subcommand, instance) pair on which the subcommand answers, and
# eval on lagrassa, which answers Unsupported and keeps an error path in the
# mix. The repo records no usage of the CLI, so every class gets the same
# number of queries per pass: a class's share of a pass is then its own
# cost, which the report gives as class_share_pct.
QUERY_CLASSES = (
    *((cmd, GCD) for cmd in ("eval", "factor", "classify", "laws", "twogen", "localize", "sandwich", "dm", "between")),
    *((cmd, SMOOTH) for cmd in ("eval", "factor", "classify", "laws", "twogen", "localize", "sandwich", "dm", "between")),
    *((cmd, DVS) for cmd in ("eval", "factor", "classify", "laws", "sandwich", "dm", "between")),
    *((cmd, QUAD) for cmd in ("eval", "factor", "classify", "laws", "sandwich", "between")),
    *((cmd, LAG) for cmd in ("eval", "laws", "between")),
)
QUERIES_PER_CLASS = 12

# Laws per instance and the status the default matrix expects of them;
# gcd-supported rows of the matrix use (2,3) and hold for any support.
_DEDEKIND_LAWS = (
    "dedekind-identity",
    "dedekind2-law-1",
    "dedekind2-law-2",
    "dedekind2-law-3",
    "dedekind2-law-4",
    "dedekind2-law-5",
    "dedekind2-law-6",
    "reyes",
    "quotient-absorb",
    "contains-iff-divides",
)
LAWS_BY_INSTANCE = {
    GCD: [(law, "pass") for law in _DEDEKIND_LAWS + ("distributive-lattice", "coprime-identities")],
    SMOOTH: [(law, "pass") for law in _DEDEKIND_LAWS + ("coprime-identities",)],
    DVS: [(law, "pass") for law in _DEDEKIND_LAWS + ("distributive-lattice",)],
    QUAD: [(law, "pass") for law in _DEDEKIND_LAWS + ("distributive-lattice",)],
    LAG: [
        ("dedekind-identity", "pass"),
        ("distributive-lattice", "pass"),
        ("quotient-absorb", "pass"),
        ("multiplicative-cancellation", "fail"),
    ],
}


def query_mix_ops(seed):
    rng = random.Random(f"query-mix/{seed}")
    ops = []
    for cmd, inst in QUERY_CLASSES:
        for i in range(QUERIES_PER_CLASS):
            argv, spec = _query(rng, cmd, inst, i)
            ops.append({"argv": argv + ["--json"], "check": spec})
    rng.shuffle(ops)
    return ops
