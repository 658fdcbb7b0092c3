"""The CSV formatter writes exactly the bytes of `%.17g` and `%d`.

Every case compares `write_csv` with `format(float(v), ".17g")` and
`str(int(v))` cell by cell, or with the `%` template row by row; together
they cover more than 10^6 values.
"""
import io
import math
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sun_phase import _csvformat
from sun_phase.algebra import StatePair, build_gellmann_basis
from sun_phase.cli import CSV_BLOCK_ROWS, main, write_csv
from sun_phase.superosc import normalized_generator, phase_trace


def reference(values):
    return [format(v, ".17g") if isinstance(v, float) else str(v) for v in values.tolist()]


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


def test_float32_column(tmp_path):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**32, 2**14, dtype=np.uint64).astype(np.uint32)
    assert_exact(tmp_path, bits.view(np.float32))


def test_int64_column(tmp_path):
    rng = np.random.default_rng(4)
    edges = np.array(
        [0, 1, 9, 10, 99, 10**15, 2**53 - 1, 2**53, 10**16, 2**63 - 1], dtype=np.int64
    )
    values = np.concatenate([
        signed(edges),
        [np.iinfo(np.int64).min],
        rng.integers(-2**53, 2**53, 2**14),
        rng.integers(-10**6, 10**6, 2**10),
        rng.integers(-10**17, 10**17, 2**10),
        rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 2**10),
    ]).astype(np.int64)
    assert_exact(tmp_path, values)


@st.composite
def float_and_int_columns(draw):
    """A float column and an int column of 0..9, some of whose cells are
    10, -1 or 2^53, so that 4-row blocks take every route."""
    floats = draw(st.lists(st.floats(width=64), min_size=1, max_size=40))
    rows = len(floats)
    ints = draw(st.lists(st.integers(0, 9), min_size=rows, max_size=rows))
    for row, value in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                              st.sampled_from([10, -1, 2**53])), max_size=4)):
        ints[row] = value
    return np.array(floats, dtype=np.float64), np.array(ints, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(float_and_int_columns())
def test_any_float_and_int_columns(columns):
    # the int column between two float columns: in a digit block the float
    # cells are not adjacent
    floats, ints = columns
    columns = [floats, ints, floats[::-1]]
    template = "%.17g,%d,%.17g\n"
    handle = io.BytesIO()
    _csvformat.write_rows(handle, columns, template, 4)
    expected = "".join(template % row for row in zip(*(c.tolist() for c in columns)))
    assert handle.getvalue().decode() == expected


def test_flagged_trace_csv_matches_template(tmp_path):
    # t = 0 is the first row of the second block: its omega is nan and its
    # flag 0, in a block whose flags are all digits
    gen = normalized_generator(build_gellmann_basis(2)[0])
    pair = StatePair(np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex))
    trace = phase_trace(pair, gen, (-1, 1), 2 * CSV_BLOCK_ROWS + 1)
    assert not trace.defined[CSV_BLOCK_ROWS] and trace.defined.sum() == 2 * CSV_BLOCK_ROWS
    columns = [trace.t, trace.amplitude.real, trace.amplitude.imag, trace.omega,
               trace.defined.astype(np.int64)]
    path = tmp_path / "t.csv"
    write_csv(str(path), ["t", "re_amplitude", "im_amplitude", "omega", "defined"], columns)
    template = "%.17g,%.17g,%.17g,%.17g,%d\n"
    expected = "t,re_amplitude,im_amplitude,omega,defined\n" + "".join(
        template % row for row in zip(*(c.tolist() for c in columns)))
    assert path.read_bytes() == expected.encode()


def test_superosc_trace_takes_the_fast_path(tmp_path, monkeypatch):
    # no row of a benchmark-sized trace may reach the `%` fallback, so a
    # broken fast path cannot hide behind it
    unproven, widths = [], []
    format_cells = _csvformat._float_cells

    def spy(x, *args):
        widths.append(x.shape[1])
        rows = format_cells(x, *args)
        unproven.append(0 if rows is None else int(rows.sum()))
        return rows

    monkeypatch.setattr(_csvformat, "_float_cells", spy)
    argv = ["superosc", "--n", "8", "--samples", "15000", "--seed", "1",
            "--csv", str(tmp_path / "t.csv"), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert len(unproven) == math.ceil(15000 / CSV_BLOCK_ROWS)
    assert sum(unproven) == 0
    # the 0/1 `defined` column is written as digits, never as floats
    assert set(widths) == {4}
