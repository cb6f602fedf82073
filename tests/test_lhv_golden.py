"""Bit-for-bit pins of the hidden-variable model results.

Every value below is ``float.hex`` of a result recorded from the reference
implementation (per-state closures and Python left-to-right sums).  The
CHSH values, the ensemble joint and moments, and every field of the
consistency report must keep each bit, for built-in, random, hand-written
and parsed models alike; the model file written for the 10 000-state
position model must keep each byte.
"""

import hashlib
import io
import math

import numpy as np
import pytest

import lhv_oracle
from ttbell import lhv, model_io
from ttbell.chsh import ChshSettings, ladder_settings

LADDER = ladder_settings(math.pi / 4)
ODD = ChshSettings(a=0.4, a_prime=-0.9, b=1.1, b_prime=0.3)

FIELDS = (
    "averaged_chsh", "per_state_chsh_max",
    "pp", "pm", "mp", "mm", "mean_t1", "mean_t2", "correlator",
    "marginal_from_mean_error", "conditional_moment_route_error", "outcome_swap_error",
    "outcome_swap_symmetric", "mean_product_error",
)

FACTORIZED_FILE = """\
kind factorized
lambda 9 0.125
lambda 2 0.5
lambda 4 0.375
p1 9 0.4 0.3
p1 9 -0.9 0.875
p1 2 0.4 0.0
p1 2 -0.9 0.6180339887498949
p1 4 0.4 1.0
p1 4 -0.9 0.1
p2 9 1.1 0.7
p2 9 0.3 0.2
p2 2 1.1 0.33
p2 2 0.3 1.0
p2 4 1.1 0.05
p2 4 0.3 0.5
"""

GENERAL_FILE = """\
kind general
lambda 0 0.3
lambda 1 0.7
p1 0 0.4 0.8
p1 0 -0.9 0.25
p1 1 0.4 0.45
p1 1 -0.9 0.9
p2 0 0.4 1.1 +1 0.6
p2 0 0.4 1.1 -1 0.15
p2 0 0.4 0.3 +1 0.35
p2 0 0.4 0.3 -1 0.95
p2 0 -0.9 1.1 +1 0.5
p2 0 -0.9 1.1 -1 0.7
p2 0 -0.9 0.3 +1 0.05
p2 0 -0.9 0.3 -1 0.4
p2 1 0.4 1.1 +1 0.2
p2 1 0.4 1.1 -1 0.85
p2 1 0.4 0.3 +1 0.65
p2 1 0.4 0.3 -1 0.1
p2 1 -0.9 1.1 +1 0.3
p2 1 -0.9 1.1 -1 0.55
p2 1 -0.9 0.3 +1 0.75
p2 1 -0.9 0.3 -1 0.0
"""


def hand_written_general_model():
    """Three states whose second response sees both settings and the first outcome."""
    support = [lhv.LambdaPoint(0, 0.2), lhv.LambdaPoint(1, 0.45), lhv.LambdaPoint(2, 0.35)]

    def p1(A, a, lam):
        p = 0.5 * (1.0 + math.sin(a + lam.id) * 0.9)
        return p if A == 1 else 1.0 - p

    def p2(B, a, b, A, lam):
        p = 0.5 * (1.0 + A * math.cos(b - a * (lam.id + 1)) * 0.7)
        return p if B == 1 else 1.0 - p

    return lhv_oracle.general_model(support, p1, p2)


def random_models():
    rng = np.random.default_rng(2024)
    t1 = [LADDER.a, LADDER.a_prime]
    t2 = [LADDER.b, LADDER.b_prime]
    return [lhv.random_factorized_model(rng, k, t1, t2) for k in (1, 2, 3, 7)]


def cases():
    """(name, model, CHSH settings, (a, b) of the joint and the report)."""
    r1, r2, r3, r7 = random_models()
    ladder_ab = (LADDER.a, LADDER.b)
    return [
        ("random-1", r1, LADDER, ladder_ab),
        ("random-2", r2, LADDER, ladder_ab),
        ("random-3", r3, LADDER, (LADDER.a_prime, LADDER.b_prime)),
        ("random-7", r7, LADDER, ladder_ab),
        ("position-50", lhv.position_style_model(50), ODD, (0.4, 1.1)),
        ("position-10000", lhv.position_style_model(10_000), LADDER, (-2.3, 0.77)),
        ("reproducer", lhv.fixed_setting_reproducer(math.pi / 3, math.pi / 6), LADDER,
         (math.pi / 3, math.pi / 6)),
        ("general-hand-written", hand_written_general_model(), ODD, (0.4, 1.1)),
        ("parsed-factorized", model_io.load_model(io.StringIO(FACTORIZED_FILE)), ODD, (-0.9, 1.1)),
        ("parsed-general", model_io.load_model(io.StringIO(GENERAL_FILE)), ODD, (0.4, 0.3)),
    ]


def _hex(x):
    if x is None or isinstance(x, (bool, np.bool_)):
        return None if x is None else bool(x)
    return float(x).hex()


def fingerprint(model, settings, ab, per_state_chsh_max):
    """The pinned results of one model, in FIELDS order."""
    a, b = ab
    joint, moments = lhv.average_over_lambda(model, a, b)
    report = lhv.verify_consistency(model, a, b)
    per_state = per_state_chsh_max(model, settings) if model.kind == lhv.FACTORIZED else None
    values = (
        lhv.averaged_chsh(model, settings), per_state,
        joint.pp, joint.pm, joint.mp, joint.mm,
        moments.mean_t1, moments.mean_t2, moments.correlator,
        report.marginal_from_mean_error, report.conditional_moment_route_error,
        report.outcome_swap_error, report.outcome_swap_symmetric, report.mean_product_error,
    )
    return tuple(_hex(v) for v in values)


PINS = {
    'random-1': (
        '0x1.0ef397267aea7p+0', '0x1.0ef397267aea6p+0', '0x1.5ee9ac41a8b57p-3',
        '0x1.6015a37c51a43p-5', '0x1.419933b767111p-1', '0x1.42ac1c01a69d3p-3',
        '-0x1.2488756fa170cp-1', '0x1.32a73d8fa27cep-1', '-0x1.5e6a37bcb0ad6p-2', '0x0.0p+0',
        '0x1.0000000000000p-56', '0x1.32a73d8fa27cep-1', False, '0x1.9d1882bf2dd6bp-2',
    ),
    'random-2': (
        '0x1.16c1a3c9e9b38p-1', '0x1.48997703f5508p-1', '0x1.b21ca909e312cp-4',
        '0x1.2230d2e67cddcp-4', '0x1.f872ae0d51b5dp-2', '0x1.5279f2f6964e2p-2',
        '-0x1.4aeca103e803fp-1', '0x1.93e7613f29e9ep-3', '-0x1.03fb8b1bc3b4ep-3',
        '0x1.0000000000000p-54', '0x0.0p+0', '0x1.9518efa3670d8p-3', False, '0x1.d7bc31c321e52p-4',
    ),
    'random-3': (
        '0x1.1a615ea18708ap-4', '0x1.2a2849144c326p-2', '0x1.7a7a4f14e7543p-4',
        '0x1.ebb99163a65b0p-2', '0x1.b515c1e1619bbp-4', '0x1.48626a5ec7691p-2',
        '0x1.296094a380c00p-3', '-0x1.341bfbc26dc40p-1', '-0x1.63fc076ffb07ap-3',
        '0x1.0000000000000p-55', '0x1.0000000000000p-53', '0x1.2d8b6737408a8p-1', False,
        '0x1.272fce33c79bcp-1',
    ),
    'random-7': (
        '0x1.525b6e3b589b3p-3', '0x1.a46a4557b7e0ap-1', '0x1.bfbd8259627d9p-3',
        '0x1.1656b9f210ce3p-2', '0x1.363d708ec4848p-2', '0x1.a71a28a4f2dcep-3',
        '-0x1.39509c27be600p-6', '0x1.61c31bb75c350p-5', '-0x1.3250aa03554aep-3',
        '0x1.0000000000000p-54', '0x1.0000000000000p-53', '0x1.4a73ba34610c0p-5', False,
        '0x1.4a54ca789d94ep-5',
    ),
    'position-50': (
        '0x1.47ae147ae1480p-1', '0x1.0000000000000p+1', '0x1.51eb851eb8521p-1',
        '0x1.47ae147ae147bp-5', '0x1.3333333333333p-2', '0x0.0p+0', '0x1.999999999999fp-2',
        '0x1.d70a3d70a3d72p-1', '0x1.47ae147ae147fp-2', '0x1.0000000000000p-53',
        '0x1.0000000000000p-53', '0x1.e2be2be2be2bep-1', False, '0x1.95810624dd2f1p-1',
    ),
    'position-10000': (
        '0x1.6a161e4f76340p+0', '0x1.0000000000000p+1', '0x1.04816f0068e0cp-3', '0x0.0p+0',
        '0x1.7119ce075f4c5p-1', '0x1.371758e219644p-3', '-0x1.7dbf487fcb6d3p-1',
        '0x1.6474538ef32b7p-1', '-0x1.c467381d7d762p-2', '0x1.1400000000000p-45',
        '0x1.1380000000000p-45', '0x1.a6e48bd9848c8p-1', False, '0x1.7798d34b163c3p-2',
    ),
    'reproducer': (
        '0x1.bb67ae8584caap+0', '0x1.0000000000000p+1', '0x1.bdb3d742c2656p-1',
        '0x1.ffffffffffffcp-5', '0x1.26145e9ecd563p-8', '0x1.0000000000002p-4',
        '0x1.bb67ae8584cabp-1', '0x1.8000000000001p-1', '0x1.bb67ae8584cabp-1',
        '0x1.0000000000000p-53', '0x1.8000000000000p-55', '0x0.0p+0', True, '0x0.0p+0',
    ),
    'general-hand-written': (
        '0x1.6d4791f09a51ep+0', None, '0x1.64a8132d7e93ep-1', '0x1.27b6ebb13a562p-3',
        '0x1.e6dc959c4fa58p-6', '0x1.08cd34e54165ap-3', '0x1.5d2b9c339a52dp-1',
        '0x1.cf7bdf6984444p-2', '0x1.4db6c0cd9ddaap-1', '0x0.0p+0', '0x1.0000000000000p-53',
        '0x1.f17bbc15766a0p-7', False, '0x1.0a1c2805eec20p-7',
    ),
    'parsed-factorized': (
        '0x1.b9e634a877a90p-1', '0x1.9eb851eb851ebp+0', '0x1.717c6d79f9f1bp-3',
        '0x1.1a17231c68029p-2', '0x1.7411627caff3bp-4', '0x1.d0264d876f07bp-2',
        '-0x1.69553134d8250p-4', '-0x1.d47ae147ae148p-2', '0x1.11c90888d8011p-2', '0x0.0p+0',
        '0x1.0000000000000p-54', '0x1.bfd00a8fe3190p-2', False, '0x1.bc53e7b12149ep-2',
    ),
    'parsed-general': (
        '0x1.3d2f1a9fbe76ap-1', None, '0x1.27ae147ae147bp-2', '0x1.10a3d70a3d70ap-2',
        '0x1.872b020c49ba4p-4', '0x1.65e353f7ced92p-2', '0x1.c28f5c28f5c24p-4',
        '-0x1.da1cac0831270p-3', '0x1.1b22d0e56041ap-2', '0x0.0p+0', '0x1.0000000000000p-53',
        '0x1.0f7c668e34064p-2', False, '0x1.0c33721d53cdep-2',
    ),
}

POSITION_FILE_SHA256 = "0f802a795b9e0e5f8003b7759648401bafdaa0ad4ce561ae9d8b3dfb572c4ad6"


def whole_support_max(model, settings):
    return float(np.max(lhv.per_state_chsh(model, settings)))


def state_by_state_max(model, settings):
    return max(lhv.per_lambda_chsh(model, settings, lam) for lam in model.support)


@pytest.mark.parametrize("name, model, settings, ab", [pytest.param(*c, id=c[0]) for c in cases()])
def test_results_keep_every_bit(name, model, settings, ab):
    got = fingerprint(model, settings, ab, whole_support_max)
    assert got == PINS[name], [field for field, g, p in zip(FIELDS, got, PINS[name]) if g != p]


@pytest.mark.parametrize("name, model, settings, ab", [
    pytest.param(*c, id=c[0])
    for c in cases() if c[1].kind == lhv.FACTORIZED and len(c[1].support) <= 50
])
def test_state_by_state_chsh_matches_pin(name, model, settings, ab):
    assert _hex(state_by_state_max(model, settings)) == PINS[name][1]


def test_position_model_file_keeps_every_byte(tmp_path):
    path = tmp_path / "position.model"
    model = lhv.position_style_model(10_000)
    model_io.write_model_file(path, model, t1_angles=[0.4, -0.9], t2_angles=[1.1, 0.3])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == POSITION_FILE_SHA256
