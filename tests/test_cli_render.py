"""Pins what the command line prints.

``render()`` runs ``semideal.cli.main`` in-process over a fixed list of
commands: every subcommand on all six instances, each with and without
``--json``, a law-suite config, and usage, syntax and library errors. It
writes one block per command: the exit code, stdout and stderr. Text that
argparse writes itself (usage lines, help) differs between Python versions,
so for those commands only the exit code and whether stdout is empty are
recorded. The digest of that text was computed on the code before the
subcommands were built from one command table; change it only with a note in
CHANGES.md saying why the output changed.
"""

import contextlib
import hashlib
import io

from semideal.cli import main

DIGEST = "eece524e5166c514a1738d327c906658c543998a1d0ccfa9ee4dd0c157262d57"

INSTANCES = ("n0", "gcd", "gcd-supported(2,3)", "dvs", "lagrassa", "quad5")

# (subcommand, its arguments after --instance)
COMMANDS = [
    *(("eval", [e]) for e in ("I(4)+I(6)", "I(2)*I(3) & I(4)", "[I(12):I(6)]^2", "inv I(2)", "I(1/2,3)")),
    *(("eval", [e]) for e in ("I(2,3)^3", "I(0)")),
    *(("factor", [e]) for e in ("I(84)", "I(6/35)", "I(2,3)", "I(0)")),
    *(("classify", [e]) for e in ("I(7)", "I(12)", "I(2,3)", "I(1)")),
    *(("laws", [law, "--trials", "5", "--seed", "3"]) for law in ("dedekind2-law-3", "reyes")),
    ("laws", ["multiplicative-cancellation", "--trials", "5", "--seed", "3"]),
    ("laws", ["dedekind-identity"]),
    *(("twogen", [e, m]) for e, m in (("I(12)", "24"), ("I(12)", "5"))),
    *(("localize", [p, e]) for p, e in (("2", "I(12)"), ("4", "I(12)"), ("3", "I(1/3)"))),
    *(("sandwich", [e]) for e in ("I(3/2)", "I(2,3)", "I(0)")),
    *(("dm", [f, g]) for f, g in (("2,3", "4,6"), ("1,2", "3,0,5"), ("6,10", "15,4"), ("1,x", "2"))),
    *(("between", [t]) for t in ("MAX", "5", "2", "t", "u", "P3[1]", "I(5)", "I(2,3)")),
]

CONFIG = (
    "# rows of every outcome\n"
    "law dedekind2-law-3 instance gcd trials 20 seed 1\n"
    "law dedekind2-law-3 instance n0 trials 20 seed 1 expect fail\n"
    "law dedekind-identity instance n0 trials 10 seed 0 expect fail\n"
    "law multiplicative-cancellation instance lagrassa trials 5 seed 0\n"
)

ERRORS = [
    ["eval", "I(2)"],
    ["eval", "--instance", "bogus", "I(2)"],
    ["eval", "--instance", "gcd", "I()"],
    ["eval", "--instance", "gcd", "I(2"],
    ["eval", "--instance", "gcd", "I(1/0)"],
    ["eval", "--instance", "gcd", "I(2) $ I(3)"],
    ["eval", "--instance", "n0", "inv I(2,3)", "--json"],
    ["eval", "--instance", "gcd-supported(2,3)", "I(1/5)", "--json"],
    ["factor", "--instance", "n0", "I(3,4,5)"],
    ["classify", "--instance", "gcd", "I(318665857834031151167461)", "--json"],
    ["twogen", "--instance", "gcd", "I(0)", "0"],
    ["laws", "--instance", "gcd"],
    ["laws", "reyes"],
    ["laws", "nolaw", "--instance", "gcd"],
    ["laws", "nolaw", "--instance", "gcd", "--json", "--seed", "9"],
    ["laws", "reyes", "--instance", "gcd", "--trials", "3", "--seed", "7", "--json"],
]

# argparse writes these itself
ARGPARSE = [
    [],
    ["nonsense"],
    ["--help"],
    ["eval", "--instance", "gcd"],
    ["twogen", "--instance", "gcd", "I(12)", "x"],
    ["laws", "reyes", "--instance", "gcd", "--trials", "x"],
    ["laws", "--help"],
]


def _run(argv, own_text=True):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if own_text:
        return "\n".join((f"$ {' '.join(argv)}", f"exit {code}", out.getvalue(), err.getvalue()))
    return "\n".join((f"$ {' '.join(argv)}", f"exit {code}", f"stdout {bool(out.getvalue())}"))


def render(tmp_path):
    blocks = []
    for cmd, rest in COMMANDS:
        for inst in INSTANCES:
            for flag in ([], ["--json"]):
                blocks.append(_run([cmd, "--instance", inst, *rest, *flag]))
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(CONFIG)
    bad = tmp_path / "bad.cfg"
    bad.write_text("law reyes gcd trials 5 seed 1\n")
    empty = tmp_path / "empty.cfg"
    empty.write_text("# no rows\n")
    for argv in (
        ["laws", "--config", str(cfg)],
        ["laws", "--config", str(cfg), "--json", "--seed", "4"],
        ["laws", "--config", str(empty)],
        ["laws", "--config", str(empty), "--json"],
        ["laws", "--config", str(bad)],
        ["laws", "--config", str(tmp_path / "missing.cfg")],
        ["laws", "reyes", "--config", str(cfg)],
    ):
        blocks.append(_run(argv).replace(str(tmp_path), "<tmp>"))
    blocks.extend(_run(argv) for argv in ERRORS)
    blocks.extend(_run(argv, own_text=False) for argv in ARGPARSE)
    return "\n".join(blocks)


def test_cli_renders_as_pinned(tmp_path):
    assert hashlib.sha256(render(tmp_path).encode()).hexdigest() == DIGEST
