"""Exact `%.17g` CSV cells, formed in numpy.

`write_csv` writes a header and float64 columns as CSV, `CSV_BLOCK_ROWS`
rows at a time, byte for byte as `%.17g` per cell writes the rows,
without formatting cell by cell in Python.  A cell x goes through these
steps:

- k = floor(log10 |x|) is exact: the binary exponent of |x| leaves two
  candidates, told apart by a table of the smallest double at or above
  each power of ten.  So r = |x| 10^(16-k) lies in [1e16, 1e17).
- r is formed as an unevaluated sum p + t: Dekker's exact product of |x|
  with the leading part of 10^(16-k), plus |x| times the trailing part.
  p is an integer, as every double above 2^53 is, and |t| < 20 carries
  an absolute error below 4e-15.
- The 17 significant digits are D = p + floor(t), plus one when
  frac(t) > 1/2.  Correct rounding sends an exact tie to the even digit,
  so a cell whose frac(t) lies within 1e-6 of 1/2 is not proven.  A
  double just below a power of ten can round up to it (D = 10^17): its
  digits and exponent become those of that power.
- The digits come from a table of 4-digit groups and are laid out as
  `%g` lays them out: fixed notation for -4 <= k < 17, else scientific
  with at least two exponent digits, trailing zeros and a bare point
  dropped, and the sign from the sign bit, so -0.0 gives `-0`.

A cell's text is formed as three little-endian 64-bit words, byte j of
the text in bits 8j..8j+7, so moving text is shifting words, and a 0
byte is padding.  A cell not proven exact (a near-tie, nan, inf,
0 < |x| < 1e-270 or |x| >= 1e271) takes the text of `%.17g` in place,
over all 24 bytes of its cell: no `%.17g` text is longer.  A block of
rows is one byte matrix of fixed-width cells, written with one mask that
drops its 0 bytes.

Every step writes into work rows allocated once per `write_csv` call,
so a block allocates only its output bytes.  With a fresh array per
step, the allocator returned the freed memory to the system and faulted
it back in on the next block, which made formatting 2.5 times slower.
The work rows, cells and mask of a block take about 140 bytes a cell,
so `CSV_BLOCK_ROWS` = 1,536 keeps the four-column `superosc` CSV under
1 MiB at any length (823 KiB for 15,000 rows; 2,048 rows exceed it).
"""
from __future__ import annotations

import math
from functools import cache
from types import SimpleNamespace

import numpy as np

CSV_BLOCK_ROWS = 1536  # CSV rows formatted and written per block

_CELL = 25  # bytes per cell: a text of up to 24 bytes and the separator
_K_MIN, _K_MAX = -270, 270  # decimal exponents of the fast path
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_WORK_ROWS, _FLAG_ROWS = 10, 3  # 8-byte and bool work rows per cell
# 0-d operands: numpy casts them faster than Python scalars
_E4, _E8, _E16 = np.array(10**4), np.array(10**8), np.array(10**16)
_BITS = {b: np.array(b, np.uint64) for b in (8, 24, 32, 40, 56, 64)}
_LOW32 = np.array(2**32 - 1, np.uint64)


def _words(texts) -> np.ndarray:
    """Byte strings of up to 24 bytes as rows of three little-endian words."""
    data = b"".join(t.ljust(24, b"\0") for t in texts)
    return np.frombuffer(data, "<u8").astype(np.uint64).reshape(-1, 3)


@cache
def _tables() -> SimpleNamespace:
    """Read-only lookup tables, built on first use.

    quads: the ASCII digits of each group 0000-9999 as 4 bytes, and the
    count of its trailing zero digits in bits 32..39;
    lowest, highest: the fast path's range of |x|;
    binade_k, binade_next: for each binary exponent field, the index of
    the k of its lower end, and the smallest double >= 10^(k+1);
    powers: for each k, the leading part of 10^(16-k), its Veltkamp
    halves and the rounded remainder, as rows (hi, hi_h, hi_l, lo);
    below[w, n]: the bytes of word w that lie below byte n of a text.
    For each k, also k = _K_MAX + 1, the `%g` layout of 17 digit bytes:
    point: the digits ahead of the point (0 below 1, where the prefix
    holds the point); split[w]: the bytes below the point, as words;
    dot[w]: at 2k the bytes of no point, at 2k + 1 of the point; lift:
    the bits the digits move up; prefix: at 2k the bytes ahead of the
    digits for x >= 0, at 2k + 1 for x < 0; suffix: the exponent suffix,
    in bytes 19..23 of scientific notation.  k is stored as k - _K_MIN.
    """
    groups = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    groups %= 10
    quads = (groups + ord("0")).astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    quads |= np.logical_and.accumulate(groups[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.uint64) << 32

    thresholds, powers = [], []
    for k in range(_K_MIN, _K_MAX + 2):
        # 10^k and 10^(16-k) as exact rationals num/den of Python ints;
        # int / int is correctly rounded
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        t = num / den
        t_num, t_den = t.as_integer_ratio()
        thresholds.append(t if t_num * den >= num * t_den else math.nextafter(t, math.inf))
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        h_num, h_den = hi.as_integer_ratio()
        c = hi * _SPLIT
        hi_h = c - (c - hi)
        powers.append((hi, hi_h, hi - hi_h, (num * h_den - h_num * den) / (den * h_den)))
    thresholds = np.array(thresholds)
    binade = np.ldexp(1.0, np.arange(-1023, 1024))  # lower ends, by exponent field
    binade_k = (np.searchsorted(thresholds, binade, side="right") - 1).clip(0, len(thresholds) - 2)

    point, split, dot, lift, prefix, suffix = [], [], [], [], [], []
    for k in range(_K_MIN, _K_MAX + 2):
        fixed = -4 <= k < 17
        digits = k + 1 if fixed and k >= 0 else 0 if fixed else 1
        point.append(digits)
        split.append(b"\xff" * (digits or 24))
        dot += [b"", b"\0" * digits + b"." if digits else b""]
        lead = b"" if digits else b"0." + b"0" * (-k - 1)
        lift.append(8 * (1 + len(lead)))
        prefix += [b"\0" + lead, b"-" + lead]
        suffix.append(b"" if fixed else b"\0" * 19 + f"e{k:+03d}".encode())

    tables = SimpleNamespace(
        quads=quads,
        lowest=thresholds[0],
        highest=thresholds[-1],
        binade_k=binade_k,
        binade_next=thresholds[binade_k + 1],
        powers=np.array(powers[:-1]).T.copy(),
        below=_words(b"\xff" * n for n in range(25)).T.copy(),
        point=np.array(point),
        split=_words(split).T.copy(),
        dot=_words(dot).T.copy(),
        lift=np.array(lift, np.uint64),
        prefix=_words(prefix)[:, 0].copy(),
        suffix=_words(suffix)[:, 2].copy(),
    )
    for table in vars(tables).values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return tables


def _float_cells(x: np.ndarray, out: np.ndarray, work: np.ndarray, flags: np.ndarray):
    """Write the `%.17g` texts of float64 cells `x` (R, C) into `out`
    (R, C, 24), 0-padded; return the (R, C) mask of the cells not proven
    exact.  `work` and `flags` are uint64 and bool work rows, at least
    x.size long."""
    tab = _tables()
    n = x.size
    x = x.reshape(n)
    r = work[:, :n]
    zero, bad, flag = flags[:, :n]
    idx = r[0].view(np.int64)
    a, f1, f2, f3, f4, p, t = (row.view(np.float64) for row in r[1:8])

    # k, stored as idx = k - _K_MIN; a cell off the fast path is formatted
    # as 1.0 and, unless it is 0.0, not proven
    np.absolute(x, out=a)
    np.equal(a, 0.0, out=zero)
    np.greater_equal(a, tab.lowest, out=flag)
    np.less(a, tab.highest, out=bad)
    np.logical_and(bad, flag, out=bad)
    np.logical_not(bad, out=bad)
    np.copyto(a, 1.0, where=bad)
    np.logical_xor(bad, zero, out=bad)
    binade = r[8].view(np.int64)
    np.right_shift(a.view(np.int64), 52, out=binade)
    tab.binade_k.take(binade, out=idx, mode="clip")
    tab.binade_next.take(binade, out=f1, mode="clip")
    np.greater_equal(a, f1, out=flag)
    np.add(idx, flag, out=idx)

    # r = a 10^(16-k) = p + t: Dekker's a hi = p + e exactly, t = e + a lo
    hi, hi_h, hi_l, lo = tab.powers
    hi.take(idx, out=f1, mode="clip")
    np.multiply(a, f1, out=p)
    np.multiply(a, _SPLIT, out=f1)
    np.subtract(f1, a, out=f2)
    np.subtract(f1, f2, out=f1)  # a_h
    np.subtract(a, f1, out=f2)  # a_l
    hi_h.take(idx, out=f3, mode="clip")
    hi_l.take(idx, out=f4, mode="clip")
    np.multiply(f1, f3, out=t)
    np.subtract(t, p, out=t)
    np.multiply(f1, f4, out=f1)
    np.add(t, f1, out=t)
    np.multiply(f2, f3, out=f3)
    np.add(t, f3, out=t)
    np.multiply(f2, f4, out=f2)
    np.add(t, f2, out=t)
    lo.take(idx, out=f4, mode="clip")
    np.multiply(a, f4, out=f4)
    np.add(t, f4, out=t)

    # D = p + floor(t), plus one when frac(t) > 1/2; near ties are not proven
    np.floor(t, out=f1)
    np.subtract(t, f1, out=t)
    np.subtract(t, 0.5, out=t)
    np.absolute(t, out=f2)
    np.less_equal(f2, _TIE_MARGIN, out=flag)
    np.logical_or(bad, flag, out=bad)
    digits, whole = r[8].view(np.int64), r[9].view(np.int64)
    np.copyto(digits, p, casting="unsafe")
    np.copyto(whole, f1, casting="unsafe")
    np.add(digits, whole, out=digits)
    np.greater(t, 0.0, out=flag)
    np.add(digits, flag, out=digits)
    np.equal(digits, 10**17, out=flag)
    if flag.any():  # rounded up to the next power of ten
        np.copyto(digits, 10**16, where=flag)
        np.add(idx, flag, out=idx)

    # the 17 digit bytes: the lead digit (0.0 has "1" for "0"), then four
    # groups of four; the trailing zeros of D are those of each group
    # below which every group is 0 (a group of 0 has 4)
    lead, tmp = r[1].view(np.int64), r[2].view(np.int64)
    groups = [row.view(np.int64) for row in r[3:7]]
    np.floor_divide(digits, _E16, out=lead)
    np.multiply(lead, _E16, out=tmp)
    np.subtract(digits, tmp, out=digits)
    g0, g1, g2, g3 = groups
    np.floor_divide(digits, _E8, out=g1)
    np.multiply(g1, _E8, out=tmp)
    np.subtract(digits, tmp, out=g3)
    np.floor_divide(g1, _E4, out=g0)
    np.multiply(g0, _E4, out=tmp)
    np.subtract(g1, tmp, out=g1)
    np.floor_divide(g3, _E4, out=g2)
    np.multiply(g2, _E4, out=tmp)
    np.subtract(g3, tmp, out=g3)
    np.add(lead, ord("0"), out=lead)
    np.bitwise_xor(lead, zero, out=lead)
    words = r[1], r[7], r[9]
    words[1].fill(0)
    words[2].fill(0)
    q, zeros, significant, below_zero = r[2], r[6], r[8], zero
    significant.fill(0)
    below_zero.fill(True)
    for byte, g in zip((13, 9, 5, 1), groups[::-1]):
        tab.quads.take(g, out=q, mode="clip")
        np.right_shift(q, _BITS[32], out=zeros)
        np.equal(zeros, 4, out=flag)
        np.multiply(zeros, below_zero, out=zeros)
        np.add(significant, zeros, out=significant)
        np.logical_and(below_zero, flag, out=below_zero)
        np.bitwise_and(q, _LOW32, out=q)
        w, bits = divmod(8 * byte, 64)
        if bits > 32:  # the group crosses into the next word
            spill = np.right_shift(q, _BITS[64 - bits], out=zeros)
            np.bitwise_or(words[w + 1], spill, out=words[w + 1])
        np.left_shift(q, _BITS[bits], out=q)
        np.bitwise_or(words[w], q, out=words[w])
    significant = significant.view(np.int64)
    np.subtract(17, significant, out=significant)

    # drop the trailing zeros after the point, and split the digits at it
    point, keep, at, m = r[3].view(np.int64), r[4].view(np.int64), r[5].view(np.int64), r[2]
    tab.point.take(idx, out=point, mode="clip")
    np.maximum(significant, point, out=keep)
    np.greater(significant, point, out=flag)  # a digit follows the point
    np.add(idx, idx, out=at)
    np.add(at, flag, out=at)
    lows = r[8], r[3], r[6]
    for w, (word, low) in enumerate(zip(words, lows)):
        tab.below[w].take(keep, out=m, mode="clip")
        np.bitwise_and(word, m, out=word)
        tab.split[w].take(idx, out=m, mode="clip")
        np.bitwise_and(word, m, out=low)
        np.bitwise_xor(word, low, out=word)
        tab.dot[w].take(at, out=m, mode="clip")
        np.bitwise_or(low, m, out=low)
    # the digits after the point move up one byte, past it
    (w0, w1, w2), (l0, l1, l2) = words, lows
    np.left_shift(w2, _BITS[8], out=m)
    np.bitwise_or(l2, m, out=l2)
    np.right_shift(w1, _BITS[56], out=m)
    np.bitwise_or(l2, m, out=l2)
    np.left_shift(w1, _BITS[8], out=m)
    np.bitwise_or(l1, m, out=l1)
    np.right_shift(w0, _BITS[56], out=m)
    np.bitwise_or(l1, m, out=l1)
    np.left_shift(w0, _BITS[8], out=m)
    np.bitwise_or(l0, m, out=l0)

    # the text moves up above its prefix; the suffix goes at its end
    lift, back = w1, w2
    tab.lift.take(idx, out=lift, mode="clip")
    np.subtract(_BITS[64], lift, out=back)
    np.left_shift(l2, lift, out=l2)
    np.right_shift(l1, back, out=m)
    np.bitwise_or(l2, m, out=l2)
    tab.suffix.take(idx, out=m, mode="clip")
    np.bitwise_or(l2, m, out=l2)
    np.left_shift(l1, lift, out=l1)
    np.right_shift(l0, back, out=m)
    np.bitwise_or(l1, m, out=l1)
    np.left_shift(l0, lift, out=l0)
    np.signbit(x, out=flag)
    np.add(idx, idx, out=at)
    np.add(at, flag, out=at)
    tab.prefix.take(at, out=m, mode="clip")
    np.bitwise_or(l0, m, out=l0)
    view = out.view("<u8")  # three words per byte cell
    for w, low in enumerate(lows):
        view[:, :, w] = low.reshape(len(view), -1)
    return bad.reshape(len(out), -1)


def write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length float64 numpy columns as CSV rows under a header
    line, `CSV_BLOCK_ROWS` rows at a time.  A column of another dtype
    raises KeyError, and columns whose count or lengths do not match the
    header ValueError."""
    rows = len(columns[0])
    if len(columns) != len(header) or any(len(column) != rows for column in columns):
        raise ValueError("write_csv needs one column per header entry, all of one length")
    for column in columns:
        if column.dtype != np.float64:
            raise KeyError(column.dtype)

    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        if not rows:
            return
        block_rows = min(rows, CSV_BLOCK_ROWS)
        _tables()  # built before the work rows, so that their peaks do not add
        values = np.empty((block_rows, len(columns)))
        # every byte of a cell is written: its text, or `%`'s over all 24
        matrix = np.empty((block_rows, len(columns), _CELL), np.uint8)
        matrix[:, :, -1] = ord(",")
        matrix[:, -1, -1] = ord("\n")
        # the mask of a block's text bytes reuses the work rows, done with by
        # then: they hold 80 bytes per cell, the matrix 25
        arena = np.empty(_WORK_ROWS * 8 * values.size, np.uint8)
        work = arena.view(np.uint64).reshape(_WORK_ROWS, values.size)
        filled = arena[:matrix.size].view(bool).reshape(matrix.shape)
        work_flags = np.empty((_FLAG_ROWS, values.size), bool)

        for first in range(0, rows, block_rows):
            count = min(block_rows, rows - first)
            x, block = values[:count], matrix[:count]
            for k, column in enumerate(columns):
                x[:, k] = column[first:first + count]
            unproven = _float_cells(x, block[:, :, :-1], work, work_flags)
            # `%`'s text, 0-padded; np.argwhere would cost 7 times as much
            # as np.flatnonzero on a block with no such cell
            for cell in np.flatnonzero(unproven).tolist():
                i, k = divmod(cell, len(columns))
                text = ("%.17g" % x[i, k]).encode().ljust(_CELL - 1, b"\0")
                block[i, k, :-1] = np.frombuffer(text, np.uint8)
            handle.write(block[np.not_equal(block, 0, out=filled[:count])])
