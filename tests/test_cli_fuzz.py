"""The command line under fuzzed flags, in process: sizes and depths drawn
within the limits, points and q drawn to be hostile. Whatever the input,
main returns 0, 1 or 2 within a fixed time, writes to stderr only its own
lines, and prints the same stdout when run again."""

import contextlib
import io
import re
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from qpoly.cli import main

# seconds one call may take; the slowest drawn call takes about 0.15 s
BUDGET = 2.0
OWN_LINE = re.compile(r"(error|verify): ")

HOSTILE = ["1e99999999", "-1e99999999", "1e-99999999", "-1e-99999999",
           "0e99999999", "1e9_999_999", "1e400", "-1e-330", "1e5000", "1/0",
           "nan", "-inf", "-0", "0", "abc", "1/2e3", "", " 2 ",
           # either side of the 100-character bound
           "1e" + "0" * 90 + "99999999", "1e" + "0" * 91 + "99999999"]
POINTS = st.one_of(
    st.sampled_from(HOSTILE),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
QS = st.one_of(
    st.sampled_from(["nan", "inf", "-0", "0", "1", "1.5", "1e-99999999",
                     "1e99999999", "5e-324", "1e-300", "0.9999999999999999",
                     "0.999", "0.5"]),
    st.floats(min_value=0, max_value=1).map(repr))
NS = st.integers(0, 6)
KS = st.integers(-10, 10)


@st.composite
def point_flags(draw, numeric_only=False):
    """The evaluation flags: none, --at-q1 or --q, each maybe with a point;
    also the mixes that are usage errors."""
    mode = draw(st.sampled_from(["q"] if numeric_only else
                                ["", "at-q1", "q", "both"]))
    flags = []
    if mode in ("at-q1", "both"):
        flags.append("--at-q1")
    if mode in ("q", "both"):
        flags.append("--q=" + draw(QS))
    for flag in ("--rho", "--z"):
        if draw(st.booleans()):
            flags.append("%s=%s" % (flag, draw(POINTS)))
    return flags


FAMILY = st.sampled_from(["polyBernoulli", "polyCauchy1", "polyCauchy2"])
FORMAT = st.sampled_from(["csv", "json", "latex"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["table", "value", "oracle", "verify"]))
    if command == "table":
        return ["table", draw(FAMILY), "--nmax=%d" % draw(NS),
                "--k=%d" % draw(KS), "--format=" + draw(FORMAT),
                *draw(point_flags())]
    if command == "value":
        return ["value", "--family=" + draw(FAMILY), "--n=%d" % draw(NS),
                "--k=%d" % draw(KS), "--format=" + draw(FORMAT),
                *draw(point_flags())]
    if command == "oracle":
        return ["oracle", "--family=" + draw(FAMILY.filter(
                    lambda f: f != "polyBernoulli")),
                "--n=%d" % draw(NS), "--k=%d" % draw(st.integers(-1, 4)),
                *draw(point_flags(numeric_only=True))]
    lo = draw(st.integers(-3, 3))
    argv = ["verify", "--scope=" + draw(st.sampled_from(
                ["gf", "identities", "oracle", "all"])),
            "--nmax=%d" % draw(NS),
            "--k=%d,%d" % (lo, lo + draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        argv.append("--q=" + draw(QS))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < BUDGET, argv
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argvs())
def test_the_cli_answers_every_drawn_input_cleanly(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    assert all(OWN_LINE.match(line) for line in err.splitlines()), (argv, err)
    assert (code != 2) or (out == "" and err.startswith("error: ")), argv
    assert _run(argv) == (code, out, err)
