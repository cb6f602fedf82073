"""Property test of the CLI over argv drawn from a fixed vocabulary.

Whatever the flags, ``main`` returns one of the documented exit codes,
lets no exception escape and prints no traceback.  Every run is kept
small: ``--trials`` is always given and at most 1000 when valid, and a
scan either has at most ``SMALL_SCAN`` rows or asks for more than
``chsh.MAX_SCAN_ROWS`` and is rejected before anything is allocated;
draws of a scan between the two are filtered out.
"""

import contextlib
import io
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttbell import chsh, montecarlo
from ttbell.cli import EXIT_USAGE, main

VOCABULARY = (
    "nan", "inf", "-inf", "1e308", "-1e308", "-1", "0", "0.5", "1e-3", "1e-12", "x", "",
    "0,0.5", "0.5,1e-3,-1", "nan,0", ",", "0,0,0,0", "0.5,-1,1e-3,0",
    # edges of the exact column rendering of floats
    "-0.0", "4e6", "-4e6", "1e-5", "5e-10", "1.0000000005",
)
TRIALS = (*VOCABULARY, "1", "1000", str(montecarlo.MAX_TRIALS + 1))
EFFICIENCIES = ("--eta-d", "--f1", "--f21", "--fd2")
FLAGS = {
    "table": ("--a", "--b"),
    "chsh-scan": ("--alpha-min", "--alpha-max", "--alpha-step", *EFFICIENCIES),
    "polytope": ("--alpha", "--targets", *EFFICIENCIES),
    "mc": ("--a", "--b", "--seed", *EFFICIENCIES),
}
SMALL_SCAN = 20_000


def _admitted_scan_rows(argv) -> float:
    """Rows of a chsh-scan argv that the row cap admits, else 0 (as
    ``--degrees`` scales the range and the step alike, it is ignored)."""
    given = dict(arg.split("=", 1) for arg in argv[1:] if arg.startswith("--alpha-"))
    try:
        lo, hi, step = (float(given.get(f"--alpha-{key}", default)) for key, default in
                        (("min", 0.0), ("max", math.pi), ("step", 1e-3)))
        rows = (hi - lo) / step + 1
    except (ValueError, ZeroDivisionError):
        return 0
    return rows if rows <= chsh.MAX_SCAN_ROWS else 0


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), unique=True))
    argv = [command] + [f"{flag}={draw(st.sampled_from(VOCABULARY))}" for flag in flags]
    if command == "chsh-scan":
        assume(_admitted_scan_rows(argv) <= SMALL_SCAN)
    if command == "mc":
        argv.append(f"--trials={draw(st.sampled_from(TRIALS))}")
    if draw(st.booleans()):
        argv.append("--degrees")
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(('csv', 'json', 'x', '')))}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_any_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out.getvalue() == "", argv
