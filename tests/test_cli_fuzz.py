"""Property test of the CLI over argv drawn from a fixed vocabulary.

Whatever the flags and config-file lines, ``main`` returns one of the
documented exit codes, lets no exception escape and prints no traceback.
Every run is kept small: ``mc`` and ``sweep`` are always given a
``--trials``, at most 1000 when valid, a ``--grid-size`` is at most 1000
or over the cap, and a scan either has at most ``SMALL_SCAN`` rows or
asks for more than ``chsh.MAX_SCAN_ROWS`` and is rejected before
anything is allocated; draws of a scan between the two are filtered out.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttbell import chsh, cli, lhv, montecarlo
from ttbell.cli import EXIT_OK, EXIT_USAGE, main

VOCABULARY = (
    "nan", "inf", "-inf", "1e308", "-1e308", "1e20", "-1", "0", "0.5", "1e-3", "1e-12", "x",
    "", "0,0.5", "0.5,1e-3,-1", "nan,0", ",", "0,0,0,0", "0.5,-1,1e-3,0",
    # edges of the exact column rendering of floats
    "-0.0", "4e6", "-4e6", "1e-5", "5e-10", "1.0000000005",
)
# keys whose values come from their own pools, all small when valid
VALUES = {
    "trials": (*VOCABULARY, "1", "1000", str(montecarlo.MAX_TRIALS + 1)),
    "grid_size": (*VOCABULARY, "2", "50", str(lhv.MAX_GRID_SIZE + 1)),
    "model": (*cli.BUILTIN_MODELS, "x"),
    "format": ("csv", "json", "x", ""),
}
EFFICIENCIES = ("eta_d", "f1", "f21", "fd2")
KEYS = {
    "table": ("a", "b"),
    "chsh-scan": ("alpha_min", "alpha_max", "alpha_step", *EFFICIENCIES),
    "polytope": ("alpha", "targets", *EFFICIENCIES),
    "mc": ("a", "b", "seed", *EFFICIENCIES),
    "lhv-verify": ("model", "grid_size", "a", "b", "a_prime", "b_prime"),
    "sweep": ("seed",),
}
CONFIG_KEYS = tuple(opt.key for opt in cli.OPTIONS if opt.key != "out")  # writes no files
SMALL_SCAN = 20_000


def _admitted_scan_rows(values: dict, degrees: bool) -> float:
    """Rows of a chsh-scan with these option values that the row cap
    admits, else 0; with ``degrees`` the given values are degrees and the
    defaults radians (no value of the vocabulary turns on a config file's
    ``degrees`` key, so only the flag does)."""
    scale = math.pi / 180.0 if degrees else 1.0
    try:
        lo, hi, step = (float(values[key]) * scale if key in values else default for key, default in
                        (("alpha_min", 0.0), ("alpha_max", math.pi), ("alpha_step", 1e-3)))
        rows = (hi - lo) / step + 1
    except (ValueError, ZeroDivisionError):
        return 0
    return rows if rows <= chsh.MAX_SCAN_ROWS else 0


@st.composite
def invocations(draw):
    """An argv and the ``key = value`` lines of its config file (or None)."""
    command = draw(st.sampled_from(sorted(KEYS)))

    def value(key):
        return draw(st.sampled_from(VALUES.get(key, VOCABULARY)))

    flags = {key: value(key) for key in draw(st.lists(st.sampled_from(KEYS[command]), unique=True))}
    config = None
    if draw(st.booleans()):
        config = {key: value(key) for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), unique=True))}
    degrees = draw(st.booleans())
    if command == "chsh-scan":
        assume(_admitted_scan_rows({**(config or {}), **flags}, degrees) <= SMALL_SCAN)
    argv = [command] + [f"{cli._flag(key)}={text}" for key, text in flags.items()]
    if command in ("mc", "sweep"):
        argv.append(f"--trials={value('trials')}")
    if degrees:
        argv.append("--degrees")
    if draw(st.booleans()):
        argv.append(f"--format={value('format')}")
    return argv, config


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_any_argv_ends_in_a_documented_exit_code(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "run.conf")
            with open(path, "w") as fh:
                fh.writelines(f"{key} = {text}\n" for key, text in config.items())
            argv = [*argv, "--config", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5), (argv, config, code)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out.getvalue() == "", (argv, config)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_every_option_key_is_accepted_in_a_config_file(tmp_path):
    # each key is read from a config file, or ignored by a command that
    # does not take it: the output equals the run without the file
    values = {"model": "position-style", "model_file": "m.model", "alpha": "0.7",
              "targets": "0,0,0,0", "out": "-", "a": repr(math.pi / 4), "b": "0.0"}
    plain = _run(["table"])
    assert plain[0] == EXIT_OK
    for opt in cli.OPTIONS:
        text = values.get(opt.key, str(opt.default))
        for spelling in (opt.key, opt.key.replace("_", "-")):
            path = tmp_path / "one.conf"
            path.write_text(f"{spelling} = {text}\n")
            assert cli._load_config_file(str(path)) == {opt.key: text}
            assert _run(["table", "--config", str(path)]) == plain, opt.key


def _radians(text: str) -> str:
    return ",".join(repr(float(v) * (math.pi / 180.0)) for v in text.split(","))


def test_degrees_scale_exactly_the_angle_options():
    # a --degrees run equals the run given every angle option in radians,
    # scaled as --degrees scales it, and every other option as it is; an
    # angle left to its default is radians in both runs, never scaled
    angles = {"a", "b", "a_prime", "b_prime", "alpha", "alpha_min", "alpha_max", "alpha_step"}
    assert angles == {opt.key for opt in cli.OPTIONS if opt.angle}
    cases = [
        ("table", {"a": "30,60", "b": "15"}),
        ("mc", {"a": "45", "b": "10", "eta_d": "0.9", "f1": "0.5", "trials": "1000", "seed": "7"}),
        ("chsh-scan", {"alpha_min": "10", "alpha_max": "90", "alpha_step": "5", "fd2": "0.9"}),
        ("lhv-verify", {"model": "fixed-setting-reproducer", "a": "60", "b": "30",
                        "a_prime": "10", "b_prime": "20"}),
        ("lhv-verify", {"model": "position-style", "grid_size": "8", "a": "60", "b": "30",
                        "a_prime": "10", "b_prime": "20"}),
        ("polytope", {"alpha": "45", "eta_d": "0.8", "f21": "0.9"}),
        ("polytope", {"alpha": "45", "eta_d": "0.6"}),
        # defaulted angles: alpha_min and alpha_max; a; a_prime and b_prime
        ("chsh-scan", {"alpha_step": "1"}),
        ("mc", {"b": "10", "trials": "1000", "seed": "7"}),
        ("lhv-verify", {"model": "position-style", "grid_size": "8", "a": "30", "b": "60"}),
    ]
    for command, values in cases:
        radian = [command] + [
            f"{cli._flag(key)}={_radians(text) if key in angles else text}" for key, text in values.items()
        ]
        degree = [command] + [f"{cli._flag(key)}={text}" for key, text in values.items()] + ["--degrees"]
        code, out = _run(radian)
        assert code != EXIT_USAGE and out, radian
        assert _run(degree) == (code, out), command
