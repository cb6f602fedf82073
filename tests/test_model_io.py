"""Tests for the model file format: loading, canonical writes, round-trips."""

import io
import math
import time
import tracemalloc

import numpy as np
import pytest

import lhv_oracle
from ttbell import lhv, model_io

FACTORIZED_TEXT = """\
# two hidden states, stochastic responses
kind factorized
lambda 0 0.25
lambda 1 0.75
p1 0 0.0 1.0
p1 1 0.0 0.25
p2 0 0.5 0.5
p2 1 0.5 0.875
"""

GENERAL_TEXT = """\
kind general
lambda 0 1.0
p1 0 0.3 0.6
p2 0 0.3 0.9 +1 0.8
p2 0 0.3 0.9 -1 0.1
"""


def load_text(text):
    return model_io.load_model(io.StringIO(text))


def written(model, path, **settings):
    """The text ``write_model_file`` writes for a model at the given settings."""
    model_io.write_model_file(path, model, **settings)
    return path.read_text()


class TestParsing:
    def test_parse_factorized(self):
        model = load_text(FACTORIZED_TEXT)
        assert model.kind == lhv.FACTORIZED
        assert model.weights.tolist() == [0.25, 0.75]
        joint, moments = lhv.average_over_lambda(model, 0.0, 0.5)
        # hand enumeration: P1(+) = 0.25*1.0 + 0.75*0.25
        assert joint.prob(1, 1) + joint.prob(1, -1) == pytest.approx(0.4375, abs=1e-12)
        assert moments.mean_t2 == pytest.approx(
            2 * (0.25 * 0.5 + 0.75 * 0.875) - 1, abs=1e-12
        )

    def test_parse_general(self):
        model = load_text(GENERAL_TEXT)
        joint = lhv_oracle.state_joint(model, 0.3, 0.9, 0)
        assert joint.pp == pytest.approx(0.6 * 0.8, abs=1e-12)
        assert joint.mp == pytest.approx(0.4 * 0.1, abs=1e-12)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "\n# header\n\n" + FACTORIZED_TEXT + "\n# trailing\n"
        settings = dict(t1_angles=[0.0], t2_angles=[0.5])
        assert written(load_text(text), tmp_path / "a", **settings) == written(
            load_text(FACTORIZED_TEXT), tmp_path / "b", **settings
        )

    def test_sparse_ids_renumbered_densely(self, tmp_path):
        text = "kind factorized\nlambda 7 0.5\nlambda 3 0.5\np1 7 0.0 1.0\np1 3 0.0 0.0\n"
        model = load_text(text)
        assert model.weights.tolist() == [0.5, 0.5]
        # id 3 sorts first
        assert model.t1_column(0.0)[0].tolist() == [0.0, 1.0]
        assert written(model, tmp_path / "m", t1_angles=[0.0]) == (
            "kind factorized\nlambda 0 0.5\nlambda 1 0.5\np1 0 0.0 0.0\np1 1 0.0 1.0\n"
        )

    def test_ids_in_order_then_out_of_order(self, tmp_path):
        # ids 0, 1 are positions as written; 5 and 2 then switch to a lookup
        text = "kind factorized\n" + "".join(f"lambda {i} 0.25\n" for i in (0, 1, 5, 2))
        text += "".join(f"p1 {i} 0.0 {p!r}\n" for i, p in ((5, 0.5), (2, 0.75), (0, 0.0), (1, 0.25)))
        model = load_text(text)
        assert model.t1_column(0.0)[0].tolist() == [0.0, 0.25, 0.75, 0.5]
        expected = "kind factorized\n" + "".join(f"lambda {i} 0.25\n" for i in range(4))
        expected += "".join(f"p1 {i} 0.0 {p!r}\n" for i, p in enumerate((0.0, 0.25, 0.75, 0.5)))
        assert written(model, tmp_path / "m", t1_angles=[0.0]) == expected


MALFORMED = [
    ("lambda 0 1.0", "kind must be declared"),
    ("kind factorized\nkind general\nlambda 0 1.0", "line 2"),
    ("kind sideways\nlambda 0 1.0", "line 1"),
    ("kind factorized\nlambda 0 0.5\nlambda 0 0.5", "duplicate hidden-state id"),
    ("kind factorized\nlambda 0 abc", "not a number"),
    ("kind factorized\nlambda 0 1.0\np1 1 0.0 0.5", "undeclared hidden state"),
    ("kind factorized\nlambda 0 1.0\np1 -1 0.0 0.5", "undeclared hidden state -1"),
    ("kind factorized\nlambda 0 0.5\nlambda 3 0.5\np1 1 0.0 0.5", "undeclared hidden state 1"),
    ("kind factorized\nlambda 0 0.5\nlambda 3 0.25\nlambda 3 0.25", "line 4: duplicate hidden-state id"),
    ("kind factorized\nlambda 0 0.5\nlambda 9223372036854775808 0.5", "line 3: hidden-state id 9223372036854775808"),
    ("kind factorized\nlambda 0 1.0\np1 0 0.0 1.5", "must lie in [0, 1]"),
    ("kind factorized\nlambda 0 1.0\np1 0 0.0 0.5\np1 0 0.0 0.6", "duplicate p1"),
    ("kind factorized\nlambda 0 1.0\nbanana 1 2", "unknown directive"),
    ("kind factorized\nlambda 0 1.0\np2 0 0.0 0.1 +1 0.5", "expected 4 fields"),
    ("kind general\nlambda 0 1.0\np2 0 0.0 0.1 0.5", "expected 6 fields"),
    ("kind general\nlambda 0 1.0\np2 0 0.0 0.1 2 0.5", "must be +1 or -1"),
    ("kind factorized\nlambda 0 0.5\nlambda 1 0.4", "weights sum to"),
    ("kind factorized", "no hidden states"),
    ("", "no kind"),
    ("kind factorized\nlambda 0 -0.5", "line 2: weight must be nonnegative, got -0.5"),
    ("kind factorized\nlambda 0", "line 2: expected 'lambda <id> <weight>'"),
    ("kind factorized\nlambda 0 0.5 0.5", "line 2: expected 'lambda <id> <weight>'"),
    ("kind factorized\nlambda 0 1.0\np1 x 0.0 0.5", "line 3: hidden-state id is not an integer: 'x'"),
    ("kind factorized\nlambda 0 1.0\np2 0.5 0.0 0.5", "line 3: hidden-state id is not an integer: '0.5'"),
    ("kind general\nlambda 0 1.0\np2 0 0.3 0.9 +1 0.8\np2 0 0.3 0.9 1 0.7",
     "line 4: duplicate p2 entry for these settings and outcome"),
    ("kind factorized\nlambda 0 inf", "line 2: weight must be finite, got 'inf'"),
    ("kind factorized\nlambda 0 1.0\np1 0 0.0 nan", "line 3: p_plus must be finite, got 'nan'"),
]


class TestErrors:
    @pytest.mark.parametrize("text, fragment", MALFORMED)
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(model_io.ModelFileError) as err:
            load_text(text)
        assert fragment in str(err.value)

    def test_line_numbers_reported(self):
        text = "kind factorized\nlambda 0 1.0\n\n# fine\np1 0 0.0 7.0\n"
        with pytest.raises(model_io.ModelFileError) as err:
            load_text(text)
        assert str(err.value).startswith("line 5:")

    def test_state_above_the_limit_fails_at_its_lambda_line(self, monkeypatch):
        text = "kind factorized\nlambda 0 0.25\n# three of four\nlambda 1 0.25\nlambda 2 0.25\n"
        text += "lambda 3 0.25\n" + "".join(f"p1 {k} 0.0 0.5\np2 {k} 0.1 0.5\n" for k in range(4))
        monkeypatch.setattr(lhv, "MAX_GRID_SIZE", 4)  # read when the file is loaded
        assert len(load_text(text).weights) == 4
        monkeypatch.setattr(lhv, "MAX_GRID_SIZE", 3)
        with pytest.raises(model_io.ModelFileError) as err:
            load_text(text)
        assert str(err.value) == "line 6: 4 hidden states, above the limit of 3"

    def test_response_above_the_cell_limit_fails_at_its_line(self, monkeypatch):
        text = "kind factorized\nlambda 0 0.5\nlambda 1 0.5\np2 0 0.1 0.5\n"
        text += "p1 0 0.0 0.5\np1 1 0.0 0.5\n# a third p1 line\np1 0 0.3 0.5\np2 1 0.1 0.5\n"
        monkeypatch.setattr(lhv, "MAX_TABLE_CELLS", 4)  # read when the file is loaded
        assert load_text(text).t1_column(0.0)[0].tolist() == [0.5, 0.5]
        monkeypatch.setattr(lhv, "MAX_TABLE_CELLS", 2)
        with pytest.raises(model_io.ModelFileError) as err:
            load_text(text)
        assert str(err.value) == "line 8: 3 p1 responses, above the limit of 2 cells"

    def test_repeat_is_reported_before_the_cell_limit(self, monkeypatch):
        text = "kind factorized\nlambda 0 1.0\np1 0 0.0 0.5\np1 0 0.0 0.25\np1 0 0.3 0.5\n"
        monkeypatch.setattr(lhv, "MAX_TABLE_CELLS", 2)
        with pytest.raises(model_io.ModelFileError) as err:
            load_text(text)
        assert str(err.value) == "line 4: duplicate p1 entry at angle 0.0"

    def test_slot_of_more_keys_x_states_than_the_limit_is_refused(self, monkeypatch):
        # three lines, but three keys x two states is six cells
        text = "kind factorized\nlambda 0 0.5\nlambda 1 0.5\np1 0 0.0 0.5\np1 1 0.1 0.5\np1 1 0.2 0.5\n"
        monkeypatch.setattr(lhv, "MAX_TABLE_CELLS", 5)
        with pytest.raises(lhv.InvalidModelError, match="t1 table of 3 keys x 2 states, above the limit of 5 cells"):
            load_text(text)

    def test_undecodable_byte_is_reported_before_the_state_limit(self, tmp_path, monkeypatch):
        path = tmp_path / "m.model"
        path.write_bytes(b"kind factorized\nlambda 0 0.5\nlambda 1 0.5\n# \xff\n")
        monkeypatch.setattr(lhv, "MAX_GRID_SIZE", 1)
        with pytest.raises(UnicodeDecodeError):
            model_io.load_model(path)

    def test_undecodable_byte_past_the_first_read_is_reported_before_a_parse_error(self, tmp_path):
        # line 2 fails to parse in the first read; the byte that cannot be
        # decoded lies some reads further on, and is still what is reported
        path = tmp_path / "m.model"
        text = b"kind factorized\nbanana 1\n" + b"# padding\n" * 4500 + b"# \xff\n"
        assert text.index(b"\xff") > 5 * model_io.READ_BLOCK
        path.write_bytes(text)
        with pytest.raises(UnicodeDecodeError):
            model_io.load_model(path)

    def test_path_and_stream_give_the_same_error(self, tmp_path):
        path = tmp_path / "bad.model"
        for text, _ in MALFORMED:
            path.write_text(text)
            with pytest.raises(model_io.ModelFileError) as from_path:
                model_io.load_model(path)
            with pytest.raises(model_io.ModelFileError) as from_stream:
                load_text(text)
            assert str(from_path.value) == str(from_stream.value)


class TestRoundTrip:
    def test_write_load_write_is_stable(self, tmp_path):
        settings = dict(t1_angles=[0.0], t2_angles=[0.5])
        text = written(load_text(FACTORIZED_TEXT), tmp_path / "a", **settings)
        assert text == FACTORIZED_TEXT.split("\n", 1)[1]  # the canonical form, without the comment
        assert written(model_io.load_model(tmp_path / "a"), tmp_path / "b", **settings) == text

    def test_general_round_trip(self, tmp_path):
        settings = dict(t1_angles=[0.3], t2_pairs=[(0.3, 0.9)])
        text = written(load_text(GENERAL_TEXT), tmp_path / "a", **settings)
        assert sorted(text.splitlines()) == sorted(GENERAL_TEXT.splitlines())
        assert written(load_text(text), tmp_path / "b", **settings) == text

    def test_multi_block_general_model_round_trip_is_byte_stable(self, tmp_path):
        n = 3 * model_io.WRITE_BLOCK + 17  # several blocks in every slot, the last one partial
        rng = np.random.default_rng(11)
        weights = rng.random(n)
        weights /= weights.sum()
        pairs = [(0.1, 0.3), (-0.7, 0.3)]
        p1 = {k: {a: float(rng.random()) for a, _ in pairs} for k in range(n)}
        p2 = {k: {(a, b, A): float(rng.random()) for a, b in pairs for A in (1, -1)} for k in range(n)}
        model = lhv_oracle.tabulated_general_model(weights, p1, p2)
        settings = dict(t1_angles=[a for a, _ in pairs], t2_pairs=pairs)
        text = written(model, tmp_path / "a", **settings)
        assert text.count("\n") == 1 + 7 * n
        loaded = model_io.load_model(tmp_path / "a")
        assert loaded.weights.tobytes() == model.weights.tobytes()
        for a, b in pairs:
            assert loaded.t1_column(a)[0].tobytes() == model.t1_column(a)[0].tobytes()
            for A in (1, -1):
                assert loaded.t2_column(a, b, A)[0].tobytes() == model.t2_column(a, b, A)[0].tobytes()
        assert written(loaded, tmp_path / "b", **settings) == text

    def test_builtin_model_written_and_reloaded(self, tmp_path):
        a, b = math.pi / 3, math.pi / 6
        model = lhv.fixed_setting_reproducer(a, b)
        path = tmp_path / "reproducer.model"
        model_io.write_model_file(path, model, t1_angles=[a], t2_angles=[b])
        loaded = model_io.load_model(path)
        j1, m1 = lhv.average_over_lambda(model, a, b)
        j2, m2 = lhv.average_over_lambda(loaded, a, b)
        assert j1 == j2 and m1 == m2

    def test_full_precision_floats_survive(self, tmp_path):
        weights = (1.0 / 3.0, 2.0 / 3.0)
        p1 = {0: {0.1: 1.0 / 7.0}, 1: {0.1: 2.0 / 7.0}}
        p2 = {0: {0.2: 0.123456789012345}, 1: {0.2: 1.0 / 9.0}}
        model = lhv_oracle.tabulated_factorized_model(weights, p1, p2)
        path = tmp_path / "frac.model"
        model_io.write_model_file(path, model, t1_angles=[0.1], t2_angles=[0.2])
        loaded = model_io.load_model(path)
        assert tuple(loaded.weights.tolist()) == weights
        assert loaded.t1_column(0.1)[0][0] == 1.0 / 7.0
        assert loaded.t2_column(0.2)[0][0] == 0.123456789012345

    def test_random_factorized_model_round_trip(self, tmp_path):
        # numpy-valued weights must be written as plain floats
        t1, t2 = [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]
        model = lhv.random_factorized_model(np.random.default_rng(5), 4, t1, t2)
        path = tmp_path / "random.model"
        model_io.write_model_file(path, model, t1_angles=t1, t2_angles=t2)
        assert "np." not in path.read_text()
        loaded = model_io.load_model(path)
        for a in t1:
            for b in t2:
                j1, m1 = lhv.average_over_lambda(model, a, b)
                j2, m2 = lhv.average_over_lambda(loaded, a, b)
                assert j1 == j2 and m1 == m2

    def test_angles_that_compare_equal_are_written_once(self, tmp_path):
        # a repeated angle and 0.0 beside -0.0 used to give a state two
        # entries for one key, which load_model rejects
        model = lhv.random_factorized_model(np.random.default_rng(0), 3, [0.1, 0.1, -0.0], [0.0, 0.2])
        path = tmp_path / "repeated.model"
        model_io.write_model_file(path, model, t1_angles=[0.1, 0.1, -0.0, 0.0], t2_angles=[0.0, 0.2])
        assert "p1 0 -0.0 " in path.read_text()  # the first of the equal keys given
        assert path.read_text().count("p1 0 ") == 2
        loaded = model_io.load_model(path)
        for a in (0.1, -0.0, 0.0):
            for b in (0.0, 0.2):
                j1, m1 = lhv.average_over_lambda(model, a, b)
                j2, m2 = lhv.average_over_lambda(loaded, a, b)
                assert j1 == j2 and m1 == m2

    def test_untabulated_setting_leaves_no_file(self, tmp_path):
        # every check runs before the file is opened
        model = lhv_oracle.tabulated_factorized_model([0.5, 0.5], {0: {0.1: 0.5}, 1: {0.1: 0.5}}, {0: {0.2: 0.5}})
        path = tmp_path / "missing.model"
        with pytest.raises(lhv.InvalidModelError, match="no t2 response tabulated at"):
            model_io.write_model_file(path, model, t1_angles=[0.1], t2_angles=[0.2])
        assert not path.exists()

    def test_general_model_tabulation(self, tmp_path):
        model = load_text(GENERAL_TEXT)
        path = tmp_path / "general.model"
        model_io.write_model_file(path, model, t1_angles=[0.3], t2_pairs=[(0.3, 0.9)])
        rebuilt = model_io.load_model(path)
        j1 = lhv_oracle.state_joint(model, 0.3, 0.9, 0)
        j2 = lhv_oracle.state_joint(rebuilt, 0.3, 0.9, 0)
        assert j1 == j2


def test_load_memory_is_bounded_by_lines_not_file(tmp_path):
    # the 10 000-state position file (about 500 KB): reading it whole, with
    # a splitlines() list and per-state dicts, peaked at about 10.1 MB of
    # traced allocations; read a block of lines at a time into flat arrays,
    # about 1.4 MB
    path = tmp_path / "position.model"
    model_io.write_model_file(path, lhv.position_style_model(10_000), t1_angles=[0.4], t2_angles=[1.1])
    tracemalloc.start()
    try:
        model = model_io.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.weights) == 10_000
    assert peak <= 5_000_000, peak


def test_write_memory_is_bounded_by_blocks_not_states(tmp_path):
    # the 2**16-state position file (about 4.2 MB): built as one list of
    # lines from whole-table lists of floats, writing peaked at about 22 MB
    # of traced allocations; a block of states at a time, about 2.6 MB
    model = lhv.position_style_model(1 << 16)
    path = tmp_path / "position.model"
    tracemalloc.start()
    try:
        model_io.write_model_file(path, model, t1_angles=[0.4], t2_angles=[1.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == 1 + 3 * (1 << 16)
    assert peak <= 4_000_000, peak


# every separator at which str.splitlines ends a line
SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("read_block", [1, 2, 3, 5, 8])
def test_blocks_split_lines_as_splitlines_at_any_read_size(monkeypatch, read_block):
    # every separator, \r\n among them, on both sides of every read boundary,
    # from a stream whose readline ends lines at \n only and from one that
    # also ends them at \r (newline="")
    monkeypatch.setattr(model_io, "READ_BLOCK", read_block)
    rng = np.random.default_rng(read_block)
    pieces = ["", "a", "bc", "defg", "\r", "\n", *SEPARATORS]
    for _ in range(500):
        text = "".join(rng.choice(pieces, rng.integers(0, 25)).tolist())
        for newline in ("\n", ""):
            lines = [line for block in model_io._blocks(io.StringIO(text, newline=newline)) for line in block]
            assert lines == text.splitlines(), (repr(text), newline)


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("separator", SEPARATORS, ids=repr)
def test_error_line_past_a_read_boundary_is_the_splitlines_line(tmp_path, separator, shift):
    # the separator after the first comment starts one place before, at or
    # after the last character of the first read; a text stream, a file and
    # a file opened with newline="" (\r and \r\n returned untranslated) all
    # report the error at its line of text.splitlines()
    head = "kind factorized" + separator + "lambda 0 1" + separator + "#"
    comment = "x" * (model_io.READ_BLOCK - 1 + shift - len(head))
    text = head + comment + separator + ("# c" + separator) * 3000 + "bogus 1" + separator
    expected = f"line {text.splitlines().index('bogus 1') + 1}: unknown directive 'bogus'"
    path = tmp_path / "model"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(model_io.ModelFileError) as from_stream:
        model_io.load_model(io.StringIO(text))
    with open(path, encoding="utf-8") as f, pytest.raises(model_io.ModelFileError) as from_file:
        model_io.load_model(f)
    with open(path, encoding="utf-8", newline="") as f, pytest.raises(model_io.ModelFileError) as untranslated:
        model_io.load_model(f)
    assert str(from_stream.value) == str(from_file.value) == str(untranslated.value) == expected


def test_long_comment_line_loads_in_linear_time():
    # a 16 MB comment line took 27.5 s when each read joined and re-split
    # the whole pending line; the stream's readline reads it in linear time
    text = "kind factorized\n#" + "x" * (16 << 20) + "\nlambda 0 1\np1 0 0.1 0.5\np2 0 0.2 0.5\n"
    start = time.perf_counter()
    model = load_text(text)
    assert time.perf_counter() - start < 2.0
    assert list(model.weights) == [1.0]
