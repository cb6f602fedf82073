"""The block renderer of ``cli.emit_records`` against the cell-by-cell oracle.

The oracle is the route the block renderer replaced: every cell through
``cli.fmt`` / ``cli._json_number`` (by way of ``cli._renderer``), the rows
joined the way the CSV and JSON documents lay them out.  Every column
kind a block holds is checked in both formats on random and adversarial
values.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from ttbell import cli
from ttbell.cli import BOOL, FLOAT, INT, SIGNED


def scalar_document(fmt_name, columns, rows) -> str:
    if fmt_name == "csv":
        return cli._csv_header(columns) + "".join(map(cli._renderer(columns, False), rows))
    render = cli._renderer(columns, True, "    ")
    return '{\n  "rows": [\n    ' + ",\n    ".join(map(render, rows)) + "\n  ]\n}\n"


def row_blocks(rows):
    """Blocks of up to ``cli.ROW_BLOCK`` consecutive row tuples, as columns."""
    rows = iter(rows)
    while block := list(itertools.islice(rows, cli.ROW_BLOCK)):
        yield list(zip(*block))


def mismatches(fmt_name, columns, rows) -> list:
    """(expected, written) pairs of the lines where the two routes differ."""
    written = "".join(cli.emit_records(fmt_name, columns, row_blocks(rows)))
    expected = scalar_document(fmt_name, columns, rows)
    if written == expected:
        return []
    pairs = list(zip(expected.splitlines(), written.splitlines()))
    return [pair for pair in pairs if pair[0] != pair[1]] or [("line count", None)]


def _neighbours(values: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # the neighbour of the largest float is inf
        return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


EDGES = np.array([
    0.0, 5e-324, 2.2250738585072014e-308,   # zero, subnormals, the smallest normal
    5e-10, 1e-9, 1.5e-9,                    # ties and units of the ninth decimal
    1e-5, 1e-4, 9.9999995e-05, 9.99995e-05,  # repr's switch to exponent form
    0.5, 1.0000000005, 999999.9999999995,   # 16 significant digits from 1e6 on
    1e6, 1234567.123456789, 3999999.9999999995, 4e6, 4.5e6,  # the exact range ends at 4e6
    1e15, 1e16, 1e300, np.finfo(float).max, np.inf, np.nan,
])


@functools.cache
def adversarial_floats() -> list:
    rng = np.random.default_rng(20_261_018)
    n = 50_000
    values = np.concatenate([
        # bit patterns: every exponent, subnormals, inf and NaN payloads
        rng.integers(-2**63, 2**63, n, dtype=np.int64).view(np.float64),
        # every decimal magnitude the columns write
        rng.standard_normal(n) * 10.0 ** rng.integers(-13, 8, n),
        # multiples of 5e-10 up to 4e6, the ties of the ninth decimal
        _neighbours(rng.integers(-8 * 10**15, 8 * 10**15, 10_000) * 5e-10),
        # odd multiples of 2**-10: x * 1e9 is exactly half an integer
        (2 * rng.integers(-2**31, 2**31, 10_000) + 1) / 1024.0,
        _neighbours(EDGES), -_neighbours(EDGES),
    ])
    cells = values.tolist()
    cells[::997] = [None] * len(cells[::997])  # missing cells among the others
    return cells


def signs(rng, n: int) -> list:
    return rng.choice((-1, 1), n).tolist()


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("kind", [FLOAT, SIGNED, BOOL])
def test_block_renderer_matches_cell_by_cell_oracle(fmt_name, kind):
    if kind == FLOAT:
        cells = adversarial_floats()
        assert len(cells) >= 10**5
    elif kind == BOOL:
        cells = (np.random.default_rng(3).random(5_000) < 0.5).tolist()
    else:
        cells = signs(np.random.default_rng(7), 5_000)
    bad = mismatches(fmt_name, [("x", kind)], [(cell,) for cell in cells])
    assert not bad, (len(bad), bad[:5])


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_block_columns_refuse_int_kind_and_signed_cells_other_than_one(fmt_name):
    # only record_text writes an INT column, and a SIGNED cell is +1 or -1:
    # anything else is refused rather than written with a wrong sign
    with pytest.raises(ValueError, match="INT column"):
        "".join(cli.emit_records(fmt_name, [("x", FLOAT), ("n", INT)], [[[0.5], [3]]]))
    for wrong in (0, 2, -2, 10**9, -2**63, 2**63 - 1):
        cells = [1, -1] * 3000 + [wrong]
        with pytest.raises(ValueError, match=rf"SIGNED cell is \+1 or -1, got {wrong}"):
            "".join(cli.emit_records(fmt_name, [("A", SIGNED)], [[cells]]))
        # also in a block that scalar_row writes, as it holds a float past 4e6
        with pytest.raises(ValueError, match=rf"SIGNED cell is \+1 or -1, got {wrong}"):
            "".join(cli.emit_records(fmt_name, [("x", FLOAT), ("A", SIGNED)], [[[1e7] * len(cells), cells]]))


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("block", [7, 1024, 2048])
def test_rows_of_mixed_kinds_match_oracle(monkeypatch, fmt_name, block):
    # rows written cell by cell fall inside blocks and on their boundaries
    monkeypatch.setattr(cli, "ROW_BLOCK", block)
    rng = np.random.default_rng(11)
    floats = adversarial_floats()
    picks = rng.integers(0, len(floats), 3_000)
    oks = (rng.random(len(picks)) < 0.5).tolist()
    rows = list(zip([floats[i] for i in picks], signs(rng, len(picks)), signs(rng, len(picks)), oks,
                    [floats[-1 - i] for i in picks]))
    columns = [("b", FLOAT), ("B", SIGNED), ("A", SIGNED), ("ok", BOOL), ("a", FLOAT)]
    bad = mismatches(fmt_name, columns, rows)
    assert not bad, (len(bad), bad[:5])


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("block", [7, 1024, 2048])
def test_rows_of_several_float_columns_match_oracle(monkeypatch, fmt_name, block):
    # the FLOAT columns of a block are rendered stacked: a cell taking the
    # scalar path must mark its own row, whichever column it is in
    monkeypatch.setattr(cli, "ROW_BLOCK", block)
    rng = np.random.default_rng(29)
    n = 3_000
    floats = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-3, 6, (4, n))
    cells = floats.astype(object)
    odd = (None, 4e6, 1e-5, -4.5e6, -1e-5)
    for column, row in zip(rng.integers(0, 4, 150), rng.integers(0, n, 150)):
        cells[column, row] = odd[rng.integers(len(odd))]
    planted = {  # row: {float column: value}, around the boundaries of blocks of 7, 1024 and 2048
        0: {0: None, 1: 4e6, 2: 1e-5}, 6: {1: None, 3: 1e-5}, 7: {2: 4e6},
        13: {1: 1e-5, 3: None}, 1023: {0: 4e6, 2: None, 3: 1e-5}, 1024: {3: 1e-5},
        2047: {1: -4.5e6, 2: 1e-5}, 2048: {0: None},
    }
    for row, values in planted.items():
        for column, value in values.items():
            cells[column, row] = value
    oks = (rng.random(n) < 0.5).tolist()
    x, y, z, w = (cells[c].tolist() for c in range(4))
    rows = list(zip(x, signs(rng, n), y, oks, z, w))
    columns = [("x", FLOAT), ("A", SIGNED), ("y", FLOAT), ("ok", BOOL), ("z", FLOAT), ("w", FLOAT)]
    bad = mismatches(fmt_name, columns, rows)
    assert not bad, (len(bad), bad[:5])


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("block", [7, 2048])
def test_digit_width_changing_between_blocks_matches_oracle(monkeypatch, fmt_name, block):
    # the whole part of the FLOAT cells is written only in the places of
    # its block's widest value: a narrow block after a wide one must mask
    # the places the wide one kept, and a wide block after a narrow one
    # must write them
    monkeypatch.setattr(cli, "ROW_BLOCK", block)
    rng = np.random.default_rng(41)
    widths = [1, 7, 1, 1, 7, 7, 1]  # narrow -> wide, wide -> narrow, and runs of each
    rows = []
    for digits in widths:
        sign = rng.choice((-1, 1), block)
        whole = rng.integers(10 ** (digits - 1) if digits > 1 else 0, min(10**digits, 4 * 10**6), block)
        floats = sign * (whole + rng.random(block))
        small = rng.random(block) < 0.25  # narrower values among the wide ones
        floats[small] = np.round(floats[small] % 10, 3)
        rows += zip(floats.tolist(), sign.tolist(), rng.random(block).tolist())
    columns = [("x", FLOAT), ("A", SIGNED), ("y", FLOAT)]
    bad = mismatches(fmt_name, columns, rows)
    assert not bad, (len(bad), bad[:5])


def test_every_exponent_form_json_cell_matches_oracle():
    # repr(round(x, 9)) is [-]D[.DDDD]e-0E for 1 <= |d| < 1e5 billionths:
    # every such d, both signs, as d * 1e-9 and its two float neighbours
    d = np.arange(1, 100_000) * 1e-9
    values = np.concatenate([_neighbours(d), _neighbours(EDGES)])
    cells = np.concatenate([values, -values]).tolist()
    bad = mismatches("json", [("x", FLOAT)], [(cell,) for cell in cells])
    assert not bad, (len(bad), bad[:5])


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("block", [7, 2048])
def test_only_cells_past_the_exact_range_take_the_scalar_path(monkeypatch, fmt_name, block):
    # None, NaN (a negative payload too) and +-inf are written in the block
    # as nan / null; every row of a block that holds a finite |x| >= 4e6
    # reaches scalar_row, and no row of any other block does
    monkeypatch.setattr(cli, "ROW_BLOCK", block)
    negative_nan = np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
    assert np.isnan(negative_nan) and np.signbit(negative_nan)
    missing = (None, math.nan, -math.nan, float(negative_nan), math.inf, -math.inf)
    rng = np.random.default_rng(53)
    n = 3_000
    x = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)).tolist()
    y = rng.random(n).tolist()
    for row in rng.integers(0, n, 300):
        if rng.random() < 0.5:
            x[row] = missing[rng.integers(len(missing))]
        else:
            y[row] = missing[rng.integers(len(missing))]
    blocks = -(-n // block)
    scalar_blocks = rng.choice(blocks, max(1, blocks // 10), replace=False).tolist()
    for b in scalar_blocks:
        for row in rng.integers(b * block, min((b + 1) * block, n), rng.integers(1, 4)):
            if rng.random() < 0.5:
                x[row] = float(rng.choice((4e6, -4.5e6, 1e300)))
            else:
                y[row] = float(rng.choice((-4e6, 1e16)))
    scalar_rows = [r for r in range(n) if r // block in scalar_blocks]
    rows = list(zip(map(float, range(n)), x, signs(rng, n), y))  # i < 4e6 is written in the block
    columns = [("i", FLOAT), ("x", FLOAT), ("A", SIGNED), ("y", FLOAT)]
    expected = scalar_document(fmt_name, columns, rows)
    reached = []
    renderer = cli._renderer

    def spied(*args):
        render = renderer(*args)
        return lambda row: reached.append(row[0]) or render(row)

    monkeypatch.setattr(cli, "_renderer", spied)
    written = "".join(cli.emit_records(fmt_name, columns, row_blocks(rows)))
    assert written == expected
    assert reached == list(map(float, scalar_rows))
    block_rows = set(range(n)).difference(scalar_rows)
    assert sum(v is None or not math.isfinite(v) for r in block_rows for v in (x[r], y[r])) > 50
