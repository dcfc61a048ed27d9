"""The README's library quickstart and law table say what the code does.

Each ``print`` line of the quickstart ends in a comment: the printed text,
then optionally a colon and a note. The block is run as it stands, and its
output is compared line by line with those comments. Each cell of the table
under "## Law harness" is an outcome, then optionally a note in parentheses,
and the outcome is compared with ``check_law`` at its default budget.
"""

import contextlib
import io
import pathlib
import re

from semideal import Unsupported, check_law, instance
from semideal.laws import LAW_IDS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Law harness") :]
    section = section[: section.index("\n## ")]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in section.splitlines() if line.startswith("|")]
    header, rule, body = rows[0], rows[1], rows[2:]
    assert all(set(c) == {"-"} for c in rule)
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
        try:
            status = check_law(instance(iid), law, trials=200, seed=0).status
        except Unsupported:
            status = "unsupported"
        assert cell == status, (law, iid)
