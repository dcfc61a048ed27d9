"""The README's library quickstart runs and prints what its comments say.

Each ``print`` line of the block ends in a comment: the printed text, then
optionally a colon and a note. The block is run as it stands, and its output
is compared line by line with those comments.
"""

import contextlib
import io
import pathlib

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
