"""The bytes of ``{:.17g}`` for the dump writers' float columns.

Python writes finite ``|x|`` in ``[1e-4, 1e16)`` in fixed notation from its
17 correctly rounded significant digits.  :func:`fixed17` computes those
digits with float64 and int64 arithmetic and lays the text out with two
byte gathers, giving the bytes of ``b"%.17g" % x`` for every such value.
:func:`cells17` sends a column's values there and the rest to ``bytes %``;
``lattice._cells17`` calls it for columns with at least
``lattice.FIXED_MIN`` distinct values in that range.
"""

from __future__ import annotations

import numpy as np

from .lattice import _text, _windows


def cells17(bits: np.ndarray, runs) -> np.ndarray:
    """``{:.17g}`` of the float64 bit patterns ``bits``, sorted as int64,
    as an ``S`` array: :func:`fixed17` for the fixed range, its negative
    and positive runs ``bits[a:b]`` and ``bits[c:d]`` with ``runs = (a, b,
    c, d)``, and ``bytes %`` for the rest."""
    a, b, c, d = runs
    fixed = fixed17(np.concatenate([bits[a:b], bits[c:d]]).view(np.float64), b - a)
    if b - a + d - c == bits.size:
        return fixed
    rest = _text(b"%.17g", np.concatenate([bits[:a], bits[b:c], bits[d:]]).view(np.float64).tolist())
    out = np.empty(bits.size, f"S{max(fixed.itemsize, rest.itemsize)}")
    out[a:b], out[c:d] = fixed[:b - a], fixed[b - a:]
    out[:a], out[b:c], out[d:] = rest[:a], rest[a:a + c - b], rest[a + c - b:]
    return out


_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves

# 10**p, exact as a double for p <= 22, and its Veltkamp halves
_P10 = np.array([float(10 ** p) for p in range(23)])
_P10_HI = _P10 * _VELTKAMP
_P10_HI -= _P10_HI - _P10
_P10_LO = _P10 - _P10_HI


def _group_tables():
    """Each 4-digit group ``g`` as a uint32 of four ASCII bytes: at ``g``
    its trailing zeros NUL, at ``g + 10**4`` all four digits; and the bytes
    each entry keeps."""
    g = np.arange(10 ** 4, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    # digits through the last nonzero one: 4 less the trailing zeros
    kept = (4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)).astype(np.int8)
    trimmed = (digits + 48) * (np.arange(4) < kept[:, None])
    words = np.concatenate([trimmed, digits + 48]).view(np.uint32)[:, 0]
    return words, np.concatenate([kept, np.full(10 ** 4, 4, np.int8)])


_WORDS, _KEPT = _group_tables()


def _round17(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``round-half-even(x * 10**(16 - e))`` as int64: exact for products
    in ``[2**53, 2**63)``, within 1.5 of smaller ones.

    Dekker's two-product on Veltkamp halves gives the product exactly as
    ``hi + lo``; from ``2**53`` on ``hi`` is an even integer, so rounding
    the sum is ``hi + rint(lo)``."""
    p = 16 - e
    hi = x * _P10[p]
    x_hi = x * _VELTKAMP
    x_hi -= x_hi - x
    x_lo = x - x_hi
    # lo = ((x_hi*b_hi - hi) + x_hi*b_lo + x_lo*b_hi) + x_lo*b_lo, in place
    b = _P10_HI[p]
    lo = x_hi * b
    lo -= hi
    x_lo_b_hi = x_lo * b
    b = _P10_LO[p]
    lo += x_hi * b
    lo += x_lo_b_hi
    lo += x_lo * b
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _decimal17(mag: np.ndarray):
    """``(E, D)`` of each ``mag`` in ``[1e-4, 1e16)``: the decimal exponent
    of ``{:.17g}`` and its 17 digits as the int64 ``D = round-half-even(mag
    * 10**(16 - E))`` in ``[10**16, 10**17)``.

    ``E`` starts as ``floor(log10(mag))`` and moves by one where ``D``
    falls outside ``[10**16, 10**17)``, at a power of ten that ``log10``
    puts in the wrong decade.  The rounded ``D`` tells this as the exact
    product would, and never carries to ``10**17``: both would take a
    product within 0.5 below an end of the range, so ``mag`` within 5e-17
    relative below a power of ten, and no double in the range is
    (``10**E`` is a double for ``E >= 0``, and the doubles nearest
    ``10**-1 .. 10**-4`` lie above them)."""
    e = np.floor(np.log10(mag)).astype(np.intp)
    d = _round17(mag, e)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        e[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off] = _round17(mag[off], e[off])
    return e, d


_ZW, _ZPAD = 28, 24  # bytes of a _digit_rows row; bytes before and after the rows


def _digit_rows(d: np.ndarray):
    """The 17 digits of each ``d`` in ``[10**16, 10**17)`` as rows of
    ``_ZW`` bytes in one flat buffer padded by ``_ZPAD`` at both ends, and
    the number of digits after the first up to the last nonzero one.

    A row holds ``0`` at columns -1..2 (-1 is the row before's 27, or the
    pad's last byte): the integer ``0`` and the leading zeros of ``E < 0``;
    the digits at 3..19 with trailing zeros NUL; and NUL at 20..26."""
    top = d // 10 ** 8
    bottom = d - top * 10 ** 8
    first = top // 10 ** 8
    top -= first * 10 ** 8
    # four groups of four digits, g1 g2 g3 g4, each an index into _WORDS:
    # + 10**4 keeps its trailing zeros, as a later nonzero group needs
    later = bottom != 0
    g1 = top // 10 ** 4
    g2 = top
    g2 -= g1 * 10 ** 4
    np.add(g1, 10 ** 4, out=g1, where=later | (g2 != 0))
    g3 = bottom // 10 ** 4
    g4 = bottom
    g4 -= g3 * 10 ** 4
    np.add(g2, 10 ** 4, out=g2, where=later)
    np.add(g3, 10 ** 4, out=g3, where=g4 != 0)
    buf = np.empty(d.size * _ZW + 2 * _ZPAD, np.uint8)
    buf[_ZPAD - 1] = ord("0")
    z = buf[_ZPAD:_ZPAD + d.size * _ZW].view(np.uint32).reshape(d.size, _ZW // 4)
    z[:, 0] = 0x30303030 + (first << 24)
    z[:, 1], z[:, 2], z[:, 3], z[:, 4] = _WORDS[g1], _WORDS[g2], _WORDS[g3], _WORDS[g4]
    z[:, 5] = 0
    z[:, 6] = ord("0") << 24
    return buf, _KEPT[g1] + _KEPT[g2] + _KEPT[g3] + _KEPT[g4]


def _columns(m: np.ndarray, start: int, width: int) -> np.ndarray:
    """Columns ``start .. start + width - 1`` of the C-contiguous uint8
    matrix ``m`` as an ``S{width}`` view, one item per row."""
    return np.ndarray((len(m),), f"S{width}", m, start, strides=(m.shape[1],))


def fixed17(x: np.ndarray, negatives: int) -> np.ndarray:
    """``{:.17g}`` of each ``x`` with finite ``|x|`` in ``[1e-4, 1e16)``,
    the first ``negatives`` of them negative, as an ``S`` array.

    The digits come from :func:`_decimal17` and :func:`_digit_rows`.  One
    gather takes each row's bytes around digit ``E`` (the integer ``0``
    when ``E < 0``) so that the integer digits end just before column
    ``head``; a copy inserts the point there (NUL when there is no
    fraction); a second gather takes each cell from its sign or first
    integer digit, the bytes after it being NUL."""
    e, d = _decimal17(np.abs(x))
    buf, kept = _digit_rows(d)
    del d  # each buffer goes once read: a chunk's transient memory stays low
    n = x.size
    e_pos = np.maximum(e, 0)
    fraction = np.maximum(kept - e, 0)
    lead = e_pos + 1  # bytes before the point
    lead[:negatives] += 1
    length = lead + fraction + (fraction > 0)
    width, head = int(length.max()), int(lead.max())
    rw = max(head - int(lead.min()) + width, head + 2)  # the point and one byte after it
    # digit E, at row column 3 + E, lands at column head - 1 of a
    a = _windows(buf, np.arange(_ZPAD + 4 - head, _ZPAD + 4 - head + n * _ZW, _ZW) + e, rw - 1)
    del buf
    r = np.empty((n, rw), np.uint8)
    _columns(r, 0, head)[:] = a
    _columns(r, head + 1, rw - head - 1)[:] = _columns(a.view(np.uint8).reshape(n, -1), head,
                                                       rw - head - 1)
    del a
    r[:, head] = (r[:, head + 1] != 0) * np.uint8(ord("."))
    # an integer's own trailing zeros were trimmed with the fraction's
    whole = np.flatnonzero(kept < e)
    if whole.size:
        r[whole, :head] |= ord("0")
    cells = _windows(r.reshape(-1), np.arange(head, head + n * rw, rw) - lead, width)
    cells.view(np.uint8).reshape(n, width)[:negatives, 0] = ord("-")
    return cells
