"""The README's instances table, library quickstart and law table say what the code does.

Each row of the table under "## Instances" is derived: semidomain from the
instance's flag and the multiplicative-cancellation verdict, Dedekind from
its flag and the law-1 verdict, and subtractive from ``is_subtractive`` on
the instance's first 200 ideals. Each ``print`` line of the quickstart ends
in a comment: the printed text, then optionally a colon and a note. The
block is run as it stands, and its output is compared line by line with
those comments. Each cell of the table under "## Law harness" is an outcome,
then optionally a note in parentheses, and the outcome is compared with
``check_law`` at its default budget.
"""

import contextlib
import io
import pathlib
import re

from semideal import Unsupported, check_law, ideal_str, instance, is_subtractive
from semideal.ideals import _tag
from semideal.laws import LAW_IDS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def table_rows(heading):
    """The cells of each body row of the first table under heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading) :]
    section = section[: section.index("\n## ")]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in section.splitlines() if line.startswith("|")]
    assert all(set(c) == {"-"} for c in rows[1])
    return rows[0], rows[2:]


def _verdict(inst, law):
    try:
        return check_law(inst, law, trials=200, seed=0).status
    except Unsupported:
        return "unsupported"


def test_readme_instances_table_is_derived():
    header, body = table_rows("## Instances")
    assert header == ["id", "carrier", "semidomain", "subtractive", "Dedekind"]
    yes = {True: "yes", False: "no"}
    ids, first_not_subtractive = [], {}
    for row in body:
        inst = instance(row[0].strip("`").removesuffix("(P)"))  # gcd-supported(P): gcd-supported(2,3)
        ids.append(inst.id)
        semidomain, subtractive, dedekind = row[2:]
        # an Unsupported law-1 verdict (lagrassa) reads "no", as a fail does
        assert semidomain == yes[inst.semidomain] == yes[_verdict(inst, "multiplicative-cancellation") == "pass"]
        assert dedekind == yes[inst.dedekind] == yes[_verdict(inst, "dedekind2-law-1") == "pass"], inst.id
        bad = [a for a in (_tag(inst, A) for A in inst.enumerated(200)[:200]) if not is_subtractive(a)]
        assert subtractive == yes[not bad], inst.id
        if bad:
            first_not_subtractive[inst.id] = ideal_str(bad[0])
    assert ids == ["n0", "gcd", "gcd-supported(2,3)", "dvs", "lagrassa", "quad5"]
    assert first_not_subtractive == {"n0": "I(2,3)", "lagrassa": "(u)"}


def quickstart():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```\n", start)]


def expected_lines(block):
    """The comment of each print line, up to its first colon."""
    out = []
    for line in block.splitlines():
        if line.startswith("print("):
            code, sep, comment = line.partition("  # ")
            assert sep, f"print line without a result comment: {line!r}"
            out.append(comment.split(":", 1)[0])
    return out


def test_the_expected_lines_are_read_from_the_comments():
    block = 'x = 1  # a note\nprint(x)  # 1\nprint("I(2)")  # I(2): a note\n'
    assert expected_lines(block) == ["1", "I(2)"]


def test_readme_quickstart_prints_its_comments():
    block = quickstart()
    expected = expected_lines(block)
    assert len(expected) >= 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def law_table():
    """{(law, instance id): outcome} from the README's law table."""
    header, body = table_rows("## Law harness")
    table = {}
    for row in body:
        law = re.match(r"`([a-z0-9-]+)`", row[0]).group(1)
        for names, cell in zip(header[1:], row[1:]):
            for name in names.split(" / "):
                table[(law, instance(name).id)] = cell.partition(" (")[0]
    return table


def test_readme_law_table_matches_check_law():
    table = law_table()
    assert {law for law, _ in table} == set(LAW_IDS)
    ids = {iid for _, iid in table}
    assert ids == {"n0", "gcd", "gcd-supported(2,3)", "dvs", "lagrassa", "quad5"}
    assert len(table) == len(LAW_IDS) * len(ids)
    for (law, iid), cell in table.items():
        assert cell == _verdict(instance(iid), law), (law, iid)
