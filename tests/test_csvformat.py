"""The CSV formatter writes exactly the bytes of `%.17g`.

Every case compares `write_csv` with `format(float(v), ".17g")` cell by
cell, or with the `%` template row by row; together they cover more than
10^6 values.
"""
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sun_phase import _csvformat
from sun_phase.algebra import StatePair, build_gellmann_basis
from sun_phase._csvformat import CSV_BLOCK_ROWS
from sun_phase.cli import main, write_csv
from sun_phase.superosc import normalized_generator, phase_trace


def reference(values):
    return [format(v, ".17g") for v in values.tolist()]


def assert_exact(tmp_path, values):
    """write_csv of one column is the reference text, line by line."""
    path = tmp_path / "c.csv"
    write_csv(str(path), ["v"], [values])
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "v" and lines[-1] == ""
    written, expected = lines[1:-1], reference(values)
    mismatch = [(v, w) for v, w, e in zip(values.tolist(), written, expected) if w != e]
    assert len(written) == len(expected)
    assert not mismatch, mismatch[:5]


def with_neighbours(values, ulps=1):
    """The values with their ulps nearest neighbours on either side."""
    out = [values]
    below = above = values
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def signed(values):
    return np.concatenate([values, -values])


def test_powers_of_ten_and_neighbours(tmp_path):
    # doubles near 10^k: the exponent candidates and the round-up to 10^k
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    assert_exact(tmp_path, signed(with_neighbours(powers)))


def test_exact_ties(tmp_path):
    # M / 2^j with M odd and M 5^j of 18 digits: the 17-digit rounding is
    # an exact tie, which `%` breaks to the even digit
    rng = np.random.default_rng(1)
    ties = [1250000000000000.25]
    for j in range(1, 57):
        lo, hi = -(-10**17 // 5**j), (10**18 - 1) // 5**j
        hi = min(hi, 2**53 - 1)
        if lo > hi:
            continue
        for m in rng.integers(lo, hi + 1, 20).tolist():
            m |= 1
            if m <= hi:
                ties.append(math.ldexp(m, -j))
    ties = np.array(ties)
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties.tolist())
    assert_exact(tmp_path, signed(with_neighbours(ties)))


def test_notation_switch_points(tmp_path):
    # fixed notation for 1e-5 < |x| < 1e17, scientific outside
    points = np.array([1e-5, 1e-4, 1e16, 1e17])
    assert_exact(tmp_path, signed(with_neighbours(points, ulps=3)))


def test_special_values(tmp_path):
    special = np.array([
        0.0, 5e-324, 2.0**-1022, 1.7976931348623157e308, np.nan, np.inf, 1e-270, 1e271,
        np.nextafter(1e-270, 0), np.nextafter(1e271, 0), 0.1, 1 / 3, np.pi, 1.0, 0.5,
    ])
    assert_exact(tmp_path, signed(special))


def test_random_bit_patterns(tmp_path):
    # every exponent field, subnormals, nan and inf included
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    assert_exact(tmp_path, bits.view(np.float64))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32, bool])
def test_other_dtypes_rejected(tmp_path, dtype):
    # the commands write float64 columns only
    with pytest.raises(KeyError):
        write_csv(str(tmp_path / "c.csv"), ["f", "v"], [np.zeros(3), np.zeros(3, dtype)])


@st.composite
def float_columns(draw):
    """Two float columns of one length, nan and inf included."""
    a = draw(st.lists(st.floats(width=64), min_size=1, max_size=40))
    b = draw(st.lists(st.floats(width=64), min_size=len(a), max_size=len(a)))
    return np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(float_columns())
def test_any_float_columns(tmp_path_factory, columns):
    # 4-row blocks mix cells of the fast path and of `%`
    path = tmp_path_factory.getbasetemp() / "any.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_csvformat, "CSV_BLOCK_ROWS", 4)
        write_csv(str(path), ["a", "b"], columns)
    template = "%.17g,%.17g\n"
    expected = "a,b\n" + "".join(template % row for row in zip(*(c.tolist() for c in columns)))
    assert path.read_bytes() == expected.encode()


def test_flagged_trace_csv_matches_template(tmp_path):
    # t = 0 is the first row of the second block: its omega is nan, so that
    # omega cell takes the text of `%`
    gen = normalized_generator(build_gellmann_basis(2)[0])
    pair = StatePair(np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex))
    trace = phase_trace(pair, gen, (-1, 1), 2 * CSV_BLOCK_ROWS + 1)
    assert not trace.defined[CSV_BLOCK_ROWS] and trace.defined.sum() == 2 * CSV_BLOCK_ROWS
    columns = [trace.t, trace.amplitude.real, trace.amplitude.imag, trace.omega]
    path = tmp_path / "t.csv"
    write_csv(str(path), ["t", "re_amplitude", "im_amplitude", "omega"], columns)
    template = "%.17g,%.17g,%.17g,%.17g\n"
    expected = "t,re_amplitude,im_amplitude,omega\n" + "".join(
        template % row for row in zip(*(c.tolist() for c in columns)))
    assert path.read_bytes() == expected.encode()
    assert path.read_bytes().split(b"\n")[1 + CSV_BLOCK_ROWS].endswith(b",nan")


def test_unproven_cells_patched_in_place(tmp_path, monkeypatch):
    # one block: an exact tie in the middle column, between two proven
    # cells, and a nan in the last column of the next row
    masks = []
    format_cells = _csvformat._float_cells

    def spy(*args):
        mask = format_cells(*args)
        masks.append(mask.copy())
        return mask

    monkeypatch.setattr(_csvformat, "_float_cells", spy)
    columns = [
        np.array([0.1, -2.5, 1 / 3, 7.0]),
        np.array([1250000000000000.25, np.pi, -1e-5, 0.0]),
        np.array([1e200, np.nan, -0.0, 6.02214076e23]),
    ]
    path = tmp_path / "c.csv"
    write_csv(str(path), ["a", "b", "c"], columns)
    template = "%.17g,%.17g,%.17g\n"
    expected = "a,b,c\n" + "".join(template % row for row in zip(*(c.tolist() for c in columns)))
    assert path.read_bytes() == expected.encode()
    assert len(masks) == 1
    assert np.argwhere(masks[0]).tolist() == [[0, 1], [1, 2]]


def test_superosc_trace_takes_the_fast_path(tmp_path, monkeypatch):
    # no cell of a benchmark-sized trace may reach the `%` fallback, so a
    # broken fast path cannot hide behind it
    unproven, widths = [], []
    format_cells = _csvformat._float_cells

    def spy(x, *args):
        widths.append(x.shape[1])
        mask = format_cells(x, *args)
        unproven.append(int(mask.sum()))
        return mask

    monkeypatch.setattr(_csvformat, "_float_cells", spy)
    argv = ["superosc", "--n", "8", "--samples", "15000", "--seed", "1",
            "--csv", str(tmp_path / "t.csv"), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert len(unproven) == math.ceil(15000 / CSV_BLOCK_ROWS)
    assert sum(unproven) == 0
    assert set(widths) == {4}
