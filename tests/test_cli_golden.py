"""Byte-for-byte pins of the CLI's default output.

Each case runs ``ttbell.cli.main`` with ``--out`` and compares the sha256
of the file it wrote with a digest recorded from the reference output.
A change to formatting, rounding, row order or the exit code fails here.
"""

import hashlib

import pytest

from ttbell.cli import EXIT_INFEASIBLE, EXIT_OK, main

# a = -pi/2 makes P(A=+1) zero, so its conditional is undefined (nan / null)
TABLE_GRID = ("--a=-1.5707963267948966,-0.0,0.3,1.2", "--b=0,-0.0,0.7")
TABLE_DEGREES = ("--a=-90,0,45", "--b", "30", "--degrees")
SCAN_PI = ("--alpha-min", "0", "--alpha-max", "3.141592653589793", "--alpha-step", "0.001")
SCAN_ONE_ROW = ("--alpha-min", "0.3", "--alpha-max", "0.3", "--alpha-step", "0.1")
MC = ("--a", "0.5", "--b", "0.1", "--trials", "5000", "--seed", "7", "--eta-d", "0.8")
MC_NONE_DETECTED = ("--a", "0.5", "--b", "0.1", "--trials", "300", "--seed", "1", "--f1", "0")
SWEEP = ("sweep", "--trials", "2000", "--seed", "11")
JSON = ("--format", "json")

CASES = [
    ("table-csv", ("table", *TABLE_GRID), EXIT_OK,
     "d40e427685c1b98ed650bf629d4bae79716a696baebf8910f38aa24c7cf7d067"),
    ("table-json", ("table", *TABLE_GRID, *JSON), EXIT_OK,
     "8b2d404b87a02f07004686701f922d25dc4a8d577fd1c639d73fad51311bf1dc"),
    ("table-degrees-csv", ("table", *TABLE_DEGREES), EXIT_OK,
     "d3c7ac48071eaf895efa02428ffb0ae8c12a76cda43c3094caf03e671610a5ce"),
    ("table-degrees-json", ("table", *TABLE_DEGREES, *JSON), EXIT_OK,
     "523f45d2707dda66592e11cec46c595d38302732e7d8ae9f6b24f7bc7805c192"),
    ("chsh-scan-csv", ("chsh-scan", *SCAN_PI), EXIT_OK,
     "75a34e6994e0735771f51e247f47eee43ede07943e08693667647f11a8012f47"),
    ("chsh-scan-json", ("chsh-scan", *SCAN_PI, *JSON), EXIT_OK,
     "d97971823f8c8fe0039489b53c498b1bf303c122822bbb00b263b401f4d7a24e"),
    ("chsh-scan-eta-0.7-csv", ("chsh-scan", *SCAN_PI, "--eta-d", "0.7"), EXIT_OK,
     "2d1bafb0eea8ac8eaeb201df9d1e6ef45480fb85bf6f8284c6ae2170578b933c"),
    ("chsh-scan-eta-0.7-json", ("chsh-scan", *SCAN_PI, "--eta-d", "0.7", *JSON), EXIT_OK,
     "3b054fab1c3e9b2c935de78a6cc275a3824f84fe96fbc6a33605cf9efdf88068"),
    ("chsh-scan-single-row-csv", ("chsh-scan", *SCAN_ONE_ROW), EXIT_OK,
     "98c0dc0770b4c52d737b1276efddae24e1b59172c007a779bc61acbfa798bbf3"),
    ("chsh-scan-single-row-json", ("chsh-scan", *SCAN_ONE_ROW, *JSON), EXIT_OK,
     "d4b75157fc681e2ae52e3f728d145731922e8c3c2a63377378931a6591eb7282"),
    ("mc-csv", ("mc", *MC), EXIT_OK,
     "9666c1805ae885a83c907ea2708cb2446bfdf0352a9df50899a3f683f9a30cbf"),
    ("mc-json", ("mc", *MC, *JSON), EXIT_OK,
     "a24568641e88d6a5c11eb99ee6a302b9f82aca7119ce1740d5d24e9503fb3460"),
    ("mc-none-detected-csv", ("mc", *MC_NONE_DETECTED), EXIT_OK,
     "d3cb9518a99b64da0d2018c9a26e664c22f1a84889a05e5d322bf0ce08da3980"),
    ("mc-none-detected-json", ("mc", *MC_NONE_DETECTED, *JSON), EXIT_OK,
     "4dcf65f3830b89a9e7eb300418802d1b6d864b274db833f6b503db539d012a7d"),
    ("polytope-feasible", ("polytope", "--alpha", "0.7853981633974483", "--eta-d", "0.7"),
     EXIT_OK, "f80d2d7f4be8d538e2f979f8022550abe83d817d578242b8996a91dd9cbd6344"),
    ("polytope-infeasible", ("polytope", "--alpha", "0.7853981633974483"),
     EXIT_INFEASIBLE, "ba05b922410f842358be42114c946663d6bf79d72c8e96eb5a1d5d4e1a401e23"),
    ("lhv-verify-text", ("lhv-verify", "--model", "position-style", "--grid-size", "50",
                         "--a", "0.4", "--b", "1.1"),
     EXIT_OK, "642947e7eecfe8506e3c3a6f7ac763914459cd1996dc3328cc21eacb457a65d1"),
    ("lhv-verify-json", ("lhv-verify", "--model", "fixed-setting-reproducer",
                         "--a", "0.9", "--b", "0.2", *JSON),
     EXIT_OK, "82e66230a3689e2f52951279f3275a960487b80e2f09c3aec18f93d9be62378b"),
    # the bytes the former scripts/run_efficiency_sweep.py wrote for these flags
    ("sweep-csv", SWEEP, EXIT_OK,
     "ea476dd0e55b31fcdabd653b11eece8b1a188a7fa062cc3e4f65d10b7629dd51"),
    ("sweep-json", (*SWEEP, *JSON), EXIT_OK,
     "756bc6486a32172519dd33aa14b9591a71ce7795764b4fa628fadad880c9ed05"),
]


@pytest.mark.parametrize("argv, exit_code, digest", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_output_bytes_match_pin(tmp_path, argv, exit_code, digest):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ``--help`` text, recorded at an 80-column terminal width (argparse wraps
# to the width it finds in COLUMNS)
HELP_CASES = [
    ((), "fed58760fa5f0b6f6777019548cd14e9f96014cba8d534e6168828f9de6614d7"),
    (("table",), "1f7383ce113b7f4770b3f655d3715833dcdfa6e5e0423f1e9955ff5e8310e80a"),
    (("mc",), "508d6640a9b88776f18ce0badab06b7454a8a215d44e80ad5bf09891aa7e8550"),
    (("chsh-scan",), "62512d9a1fd4f1e0df1076f1b0b96d0347736fb3eac71609b8a101975e30989c"),
    (("lhv-verify",), "19e185a29b94dff22ca190843552f661a4a498221cd7e2e4d25ba79b462af7bd"),
    (("polytope",), "e33e3ff091251beb48fc243b6f5f4b0da950bf50cf8d2f8e84157d7ed6d90627"),
    (("sweep",), "2c2957f70089f0a708bba535ad27e45f4d488b64be9dd3f43ed44ff76923c41e"),
]


@pytest.mark.parametrize("command, digest", HELP_CASES,
                         ids=[" ".join(c) or "ttbell" for c, _ in HELP_CASES])
def test_help_bytes_match_pin(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command, "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
