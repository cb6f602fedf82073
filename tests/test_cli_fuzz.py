"""Property test of the CLI over argv drawn from a fixed vocabulary.

Whatever the flags, ``main`` returns one of the documented exit codes,
lets no exception escape and prints no traceback.  Every run is kept
small: ``--trials`` is always given and at most 1000, and the one scan
step below 1e-3, 1e-12, spans at most two rows or asks for more rows
than ``chsh.MAX_SCAN_ROWS`` and is rejected before anything is allocated.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from ttbell.cli import EXIT_USAGE, main

VOCABULARY = (
    "nan", "inf", "-inf", "1e308", "-1e308", "-1", "0", "0.5", "1e-3", "1e-12", "x", "",
    "0,0.5", "0.5,1e-3,-1", "nan,0", ",", "0,0,0,0", "0.5,-1,1e-3,0",
)
EFFICIENCIES = ("--eta-d", "--f1", "--f21", "--fd2")
FLAGS = {
    "table": ("--a", "--b"),
    "chsh-scan": ("--alpha-min", "--alpha-max", "--alpha-step", *EFFICIENCIES),
    "polytope": ("--alpha", "--targets", *EFFICIENCIES),
    "mc": ("--a", "--b", "--seed", *EFFICIENCIES),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), unique=True))
    argv = [command] + [f"{flag}={draw(st.sampled_from(VOCABULARY))}" for flag in flags]
    if command == "mc":
        argv.append(f"--trials={draw(st.sampled_from((*VOCABULARY, '1', '1000')))}")
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
