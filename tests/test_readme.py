"""README's examples hold as printed: the library quick start and every
`qpoly` command under "Command line"; and every name README gives as a
key layer exists."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import qpoly
from qpoly import classical_number
from qpoly.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _code_block(heading, lang):
    """Lines of the first ```lang block under the ## heading."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % lang, 1)[1].split("```", 1)[0].splitlines()


def _shown_after(lines, i):
    """The '# '-comment lines right after line i, comment marks removed."""
    shown = []
    for line in lines[i + 1:]:
        if not line.startswith("# "):
            break
        shown.append(line[2:])
    return shown


def test_readme_examples_hold(capsys):
    quick = _code_block("Library quick start", "python")
    exec("\n".join(quick), {})
    printed = quick.index("print(format_param_poly(b2))")
    assert capsys.readouterr().out.splitlines() == _shown_after(quick, printed)
    assert "Fraction(-1, 6)" in next(line for line in quick
                                     if line.startswith("classical_number("))
    assert classical_number("polyCauchy1", 2, 1) == Fraction(-1, 6)

    lines = _code_block("Command line", "sh")
    commands = [(i, line.split("#", 1)[0]) for i, line in enumerate(lines)
                if line.startswith("qpoly ")]
    assert len(commands) == 6
    for i, command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
        out = capsys.readouterr().out
        if command.startswith("qpoly table"):
            assert out.splitlines() == _shown_after(lines, i)
            assert len(out.splitlines()) == 4


def test_key_layer_names_resolve():
    # the backticked names before each "Key layers" bullet's colon, with
    # "x_*" a prefix and "x1/2" both x1 and x2
    section = README.split("Key layers, all importable from `qpoly`:\n\n",
                           1)[1].split("\n\n", 1)[0]
    names = [name for bullet in section.split("\n- ")
             for name in re.findall(r"`([^`]+)`", bullet.split(":", 1)[0])]
    assert len(names) > 20
    exported = dir(qpoly)
    for name in names:
        if name.endswith("1/2"):
            assert {name[:-2], name[:-3] + "2"} <= set(exported), name
        elif name.endswith("*"):
            assert any(e.startswith(name[:-1]) for e in exported), name
        else:
            assert name in exported, name
