"""Tests for the model file format: parsing, canonical dumps, round-trips."""

import math

import numpy as np
import pytest

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


class TestParsing:
    def test_parse_factorized(self):
        spec = model_io.parse_model_text(FACTORIZED_TEXT)
        assert spec.kind == lhv.FACTORIZED
        assert spec.weights == (0.25, 0.75)
        model = spec.build()
        joint, moments = lhv.average_over_lambda(model, 0.0, 0.5)
        # hand enumeration: P1(+) = 0.25*1.0 + 0.75*0.25
        assert joint.prob(1, 1) + joint.prob(1, -1) == pytest.approx(0.4375, abs=1e-12)
        assert moments.mean_t2 == pytest.approx(
            2 * (0.25 * 0.5 + 0.75 * 0.875) - 1, abs=1e-12
        )

    def test_parse_general(self):
        spec = model_io.parse_model_text(GENERAL_TEXT)
        model = spec.build()
        joint = lhv.per_lambda_joint(model, 0.3, 0.9, model.support[0])
        assert joint.pp == pytest.approx(0.6 * 0.8, abs=1e-12)
        assert joint.mp == pytest.approx(0.4 * 0.1, abs=1e-12)

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# header\n\n" + FACTORIZED_TEXT + "\n# trailing\n"
        assert model_io.parse_model_text(text) == model_io.parse_model_text(FACTORIZED_TEXT)

    def test_sparse_ids_renumbered_densely(self):
        text = "kind factorized\nlambda 7 0.5\nlambda 3 0.5\np1 7 0.0 1.0\np1 3 0.0 0.0\n"
        spec = model_io.parse_model_text(text)
        assert spec.weights == (0.5, 0.5)
        # id 3 sorts first
        assert spec.p1_tables[0] == ((0.0, 0.0),)
        assert spec.p1_tables[1] == ((0.0, 1.0),)


class TestErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("lambda 0 1.0", "kind must be declared"),
            ("kind factorized\nkind general\nlambda 0 1.0", "line 2"),
            ("kind sideways\nlambda 0 1.0", "line 1"),
            ("kind factorized\nlambda 0 0.5\nlambda 0 0.5", "duplicate hidden-state id"),
            ("kind factorized\nlambda 0 abc", "not a number"),
            ("kind factorized\nlambda 0 1.0\np1 1 0.0 0.5", "undeclared hidden state"),
            ("kind factorized\nlambda 0 1.0\np1 0 0.0 1.5", "must lie in [0, 1]"),
            ("kind factorized\nlambda 0 1.0\np1 0 0.0 0.5\np1 0 0.0 0.6", "duplicate p1"),
            ("kind factorized\nlambda 0 1.0\nbanana 1 2", "unknown directive"),
            ("kind factorized\nlambda 0 1.0\np2 0 0.0 0.1 +1 0.5", "expected 4 fields"),
            ("kind general\nlambda 0 1.0\np2 0 0.0 0.1 0.5", "expected 6 fields"),
            ("kind general\nlambda 0 1.0\np2 0 0.0 0.1 2 0.5", "must be +1 or -1"),
            ("kind factorized\nlambda 0 0.5\nlambda 1 0.4", "weights sum to"),
            ("kind factorized", "no hidden states"),
            ("", "no kind"),
        ],
    )
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(model_io.ModelFileError) as err:
            model_io.parse_model_text(text)
        assert fragment in str(err.value)

    def test_line_numbers_reported(self):
        text = "kind factorized\nlambda 0 1.0\n\n# fine\np1 0 0.0 7.0\n"
        with pytest.raises(model_io.ModelFileError) as err:
            model_io.parse_model_text(text)
        assert str(err.value).startswith("line 5:")


class TestRoundTrip:
    def test_dump_parse_dump_is_stable(self):
        spec = model_io.parse_model_text(FACTORIZED_TEXT)
        text = model_io.dump_model_spec(spec)
        spec2 = model_io.parse_model_text(text)
        assert spec2 == spec
        assert model_io.dump_model_spec(spec2) == text

    def test_general_round_trip(self):
        spec = model_io.parse_model_text(GENERAL_TEXT)
        text = model_io.dump_model_spec(spec)
        assert model_io.parse_model_text(text) == spec

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
        model = lhv.tabulated_factorized_model(weights, p1, p2)
        path = tmp_path / "frac.model"
        model_io.write_model_file(path, model, t1_angles=[0.1], t2_angles=[0.2])
        spec = model_io.parse_model_text(path.read_text())
        assert spec.weights == weights
        assert dict(spec.p1_tables[0])[0.1] == 1.0 / 7.0
        assert dict(spec.p2_tables[0])[0.2] == 0.123456789012345

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

    def test_general_model_tabulation(self):
        model = model_io.parse_model_text(GENERAL_TEXT).build()
        spec = model_io.spec_from_model(model, t1_angles=[0.3], t2_pairs=[(0.3, 0.9)])
        rebuilt = spec.build()
        j1 = lhv.per_lambda_joint(model, 0.3, 0.9, model.support[0])
        j2 = lhv.per_lambda_joint(rebuilt, 0.3, 0.9, rebuilt.support[0])
        assert j1 == j2
