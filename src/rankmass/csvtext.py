"""CSV table text, rendered in numpy.

A table is written a chunk of rows at a time.  Each column of the chunk
becomes a block of NUL-padded ASCII bytes, one row per cell; the blocks are
joined with ``,`` and ``\\n`` columns, the NULs dropped, and the bytes decoded
once.  A cell reads as :func:`rankmass.cli._fmt` writes it:

- a bool as ``true`` or ``false``;
- an integer as ``str(int(x))``;
- a float, of any numpy width, as ``format(float(x), ".17g")``, which is the
  reference.  For ``1e-10 <= |x| < 1e15`` the digits come from exact integer
  arithmetic (:func:`_float_words`), as do zeros, and any other value
  (subnormal, tiny, huge, inf, nan) goes through ``format`` itself;
- a str as itself, which must not contain ``,``, ``"``, ``\\r``, ``\\n`` or
  NUL, since no cell is quoted.

A column holds one kind of cell: a numpy array of bool, integer, float or str
dtype, or a sequence of Python or numpy scalars of one of those kinds that
``np.asarray`` reads as that kind, so that no bool prints as ``1`` and no
integer as a float.  Integers are read as int64 or uint64, floats as float64.
Any other column (an object one, or of mixed kinds) is a ValueError; a caller
with mixed cells formats them itself, as ``inscc-curve`` does for its empty
estimate cells among floats.  The byte layouts assume a little-endian machine.
"""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 1 << 13
FORBIDDEN = ',"\r\n\0'

_U = np.uint64


def _const(value, dtype=_U):
    """A 0-d array: a cheaper operand than a numpy or Python scalar."""
    return np.array(value, dtype)


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


_ONE, _S32, _S64, _LOW32, _MINUS = (_const(v) for v in (1, 32, 64, 0xFFFFFFFF, 45))
_E4, _SHIFT_AT, _DECADE_AT = (_const(v, np.intp) for v in (10 ** 4, 24, -13))
_TWO53 = _const(2.0 ** 53, np.float64)
# 17 digits as the first one and four groups of four
_POWERS = np.array([10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1])[:, None]


def _at_least(j: int) -> float:
    """The smallest double >= 10**j."""
    v = float(10 ** j) if j >= 0 else float(f"1e{j}")
    num, den = v.as_integer_ratio()
    return v if num * 10 ** max(-j, 0) >= den * 10 ** max(j, 0) else float(np.nextafter(v, np.inf))


# The decade of |x|, c = DECADES.searchsorted(|x|, "right"): 1 for 0, 2 for
# 0 < |x| < 1e-10, c = 13 + j for 10**j <= |x| < 10**(j + 1) and j = -10 .. 14,
# 28 from 1e15 up and for nan.
_JS = range(-13, 16)
_DECADES = np.array([0.0, 5e-324] + [_at_least(j) for j in range(-10, 16)])
_EXACT = np.array([j == -12 or -10 <= j <= 14 for j in _JS])   # 0 and the exact range
# per c: 5**(16 - j), so that |x| * 10**(16 - j) has 17 integer digits; the
# "0." and up to three zeros on bytes 1 .. 5 of the lead word (-4 <= j < 0);
# the exponent word "e-XX" (j < -4); and the digit the '.' follows (-1: none)
_POW5 = np.array([5 ** (16 - j) if -10 <= j <= 14 else 0 for j in _JS], _U)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _S32
_PREFIX = np.array([_word(b"\0" + (b"0." + b"0" * (-j - 1) if -4 <= j < 0 else b""))
                    for j in _JS], _U)
_SUFFIX = np.array([_word(b"e-%02d" % -j if -10 <= j < -4 else b"") for j in _JS], _U)
_POINT = np.array([j if j >= 0 else 0 if -10 <= j < -4 else -1 for j in _JS])
_FLOAT_WIDTH = 48
# the first digit on byte 6 of the lead word
_FIRST = (np.arange(10, dtype=_U) + _U(48)) << _U(48)
# the digit bytes of spread word w (of 4) when 'shown' digits follow the
# first, at shown + 16 - 4w: none, the first 1 .. 3, or all four
_KEEP = np.array([0] * 16 + [(1 << 16 * j) - 1 for j in range(4)] + [(1 << 64) - 1] * 13, _U) \
    & _U(0x00FF00FF00FF00FF)
_KEEP_AT = (16 - 4 * np.arange(4))[:, None]
# '.' after digit p, in word 0 (the lead word) .. 4, at p + 1 + 16w
_DOTS = np.zeros((5, 16), _U)
_DOTS[0, 1] = 46 << 56
for p in range(1, 15):
    _DOTS[(p + 3) // 4, p + 1] = 46 << 8 * (2 * ((p - 1) % 4) + 1)
_DOTS = _DOTS.ravel()
_DOTS_AT = (1 + 16 * np.arange(5))[:, None]
_GROUP_AT = (10000 * np.arange(4))[:, None]
_BOOLS = np.array([_word(b"false"), _word(b"true")], _U)


def _group_tables():
    """Per 4-digit group g = 0 .. 9999: its ASCII digits on the even bytes of
    a word, a free slot for '.' after each; as group i of the 16 digits after
    a first one, the count of digits up to its last nonzero one (0 if g is
    0); and its digits as four bytes, then without leading zeros, then the
    same but with 0 kept as "0" (an integer's units group)."""
    g = np.arange(10000, dtype=np.int16)[:, None]
    digits = (g // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    spread = np.zeros((10000, 8), np.uint8)
    spread[:, ::2] = digits
    nonzero = digits != 48
    upto_last = np.logical_or.accumulate(nonzero[:, ::-1], axis=1).sum(axis=1, dtype=np.int8)
    significant = np.concatenate([np.where(upto_last > 0, 4 * i + upto_last, 0).astype(np.int8)
                                  for i in range(4)])
    from_first = np.logical_or.accumulate(nonzero, axis=1)
    stripped = digits * from_first
    from_first[:, 3] = True
    units = digits * from_first
    ints = np.concatenate([d.view(np.uint32).ravel() for d in (digits, stripped, units)])
    return spread.view(_U).ravel(), significant, ints


_SPREAD, _SIGNIFICANT, _INT_GROUPS = _group_tables()


def _scaled(m, c, s):
    """Round-half-even of ``m * 5**(16 - j) / 2**s`` (decade j of ``c``), for
    ``m < 2**53`` and ``1 <= s <= 63``: the 128-bit product from 32-bit limbs,
    shifted right."""
    m0, m1 = m & _LOW32, m >> _S32
    f0, f1 = _POW5_LO.take(c), _POW5_HI.take(c)
    low = m0 * f0
    mid = m0 * f1 + m1 * f0
    carry = (low >> _S32) + (mid & _LOW32)
    lo = (carry << _S32) | (low & _LOW32)
    hi = m1 * f1 + (mid >> _S32) + (carry >> _S32)
    q = (lo >> s) | (hi << (_S64 - s))
    rest = lo & ((_ONE << s) - _ONE)
    return q + (rest + (q & _ONE) > (_ONE << (s - _ONE)))


def _float_words(x, a, c):
    """``format(v, ".17g")`` of each value of ``x`` (``a = |x|``, ``c`` its
    decade, exact or zero), as six little-endian words per value, NUL where no
    character is: the lead word (sign, "0." and up to three zeros, the first
    digit, '.'), four spread words (two bytes per further digit), and the
    exponent word.  Returns (6, len(x))."""
    # 17 digits d = round(a * 10**(16 - j)); no double of the range rounds up
    # to the next power of ten at 17 digits, so d < 10**17
    mant, e = np.frexp(a)
    d = _scaled((mant * _TWO53).astype(_U), c, (c - e + _SHIFT_AT).astype(_U)).view(np.intp)
    q = d // _POWERS
    first, groups = q[0], q[1:] - q[:-1] * _E4
    # the %g layout: fixed for -4 <= j < 17, else d.ddde-XX; trailing zeros go,
    # but not the integer digits of a fixed number
    shown = np.maximum(_SIGNIFICANT.take(groups + _GROUP_AT).max(axis=0), c + _DECADE_AT)
    point = _POINT.take(c)
    point[shown <= point] = -1

    words = np.empty((6, len(x)), _U)
    np.bitwise_and(_SPREAD.take(groups), _KEEP.take(shown + _KEEP_AT), out=words[1:5])
    np.bitwise_or(_PREFIX.take(c), _FIRST.take(first), out=words[0])
    words[0] |= np.signbit(x) * _MINUS
    _SUFFIX.take(c, out=words[5])
    words[:5] |= _DOTS.take(point + _DOTS_AT)
    return words


def _float_block(x):
    """(len(x), _FLOAT_WIDTH) NUL-padded bytes of ``format(v, ".17g")`` per value."""
    a = np.abs(x)
    c = _DECADES.searchsorted(a, "right")
    exact = _EXACT.take(c)
    if exact.all():
        return np.ascontiguousarray(_float_words(x, a, c).T).view(np.uint8)
    words = np.zeros((len(x), _FLOAT_WIDTH // 8), _U)
    words[exact] = _float_words(x[exact], a[exact], c[exact]).T
    rest = np.flatnonzero(~exact)
    words.view(np.uint8)[rest] = np.array(
        [format(v, ".17g") for v in x[rest].tolist()], dtype=f"S{_FLOAT_WIDTH}"
    ).view(np.uint8).reshape(len(rest), _FLOAT_WIDTH)
    return words.view(np.uint8)


def _int_block(v):
    """NUL-padded bytes of ``str(i)`` per value of an int64 or uint64 array."""
    mag = np.abs(v).astype(_U)   # -2**63 stays itself, and reads 2**63 unsigned
    count = -(-len(str(int(mag.max(initial=0)))) // 4)
    words = np.empty((len(v), count), np.uint32)
    started = np.zeros(len(v), bool)
    for j in range(count):
        group = (mag // _U(10 ** (4 * (count - 1 - j)))) % _U(10000)
        # full digits once a higher group was nonzero; else no leading zeros
        table = np.where(started, 0, 10000 if j < count - 1 else 20000)
        words[:, j] = _INT_GROUPS.take(group.astype(np.intp) + table)
        started |= group != 0
    block = words.view(np.uint8)
    neg = v < 0
    if neg.any():
        block = np.concatenate([(neg * np.uint8(45))[:, None], block], axis=1)
    return block


def _bool_block(v):
    return _BOOLS.take(v.astype(np.intp)).view(np.uint8).reshape(len(v), 8)[:, :5]


def check_cell(text: str) -> str:
    """``text``, if it needs no quoting; else a ValueError."""
    if any(c in text for c in FORBIDDEN):
        raise ValueError(f"CSV cell {text!r} holds one of {FORBIDDEN!r}; cells are not quoted")
    return text


def _text_block(v):
    """NUL-padded UTF-8 bytes per string of a numpy str array (ASCII ones as
    code units, checked in bulk)."""
    codes = np.ascontiguousarray(v).view(np.uint32).reshape(len(v), -1)
    if codes.max(initial=0) < 128:
        block = codes.astype(np.uint8)
        if (np.count_nonzero(block) < np.char.str_len(v).sum()   # a NUL inside a cell
                or any((block == ord(c)).any() for c in FORBIDDEN[:-1])):
            for text in v.tolist():
                check_cell(text)
        return block
    cells = np.array([check_cell(text).encode() for text in v.tolist()], dtype="S")
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)


_RENDER = {"b": _bool_block, "i": _int_block, "u": _int_block, "f": _float_block,
           "U": _text_block}


_CELL_KINDS = (("b", (bool, np.bool_)), ("i", (int, np.integer)), ("f", (float, np.floating)),
               ("U", (str,)))


def _cell_kind(cell_type: type) -> str:
    """The kind of a Python or numpy scalar type (bool before int, its base)."""
    return next((kind for kind, types in _CELL_KINDS if issubclass(cell_type, types)), "O")


def _typed(column) -> np.ndarray:
    """The column as an array of bool, int64, uint64, float64 or str; else a
    ValueError, as for a sequence with a cell of another kind than its dtype's."""
    values = np.asarray(column)
    kind = values.dtype.kind
    mixed = not isinstance(column, np.ndarray) and len(column) > 0 \
        and {_cell_kind(t) for t in set(map(type, column))} != {"i" if kind == "u" else kind}
    if kind not in _RENDER or mixed:
        raise ValueError(f"table column read as dtype {values.dtype}: a column holds one kind "
                         "of cell: bool, integer, float or str")
    if kind in "iu" and values.dtype.itemsize < 8:
        return values.astype(np.int64)
    return values.astype(np.float64, copy=False) if kind == "f" else values


def _render(columns: list) -> str:
    """The text of the rows of ``columns``, one block per column.  The columns
    of one kind are rendered in one call, so that a short table pays each
    call's fixed cost once."""
    n = len(columns[0])
    by_kind = {}
    for values in columns:
        by_kind.setdefault(values.dtype.kind, []).append(values)
    pieces = {}
    for kind, arrays in by_kind.items():
        block = _RENDER[kind](arrays[0] if len(arrays) == 1 else np.concatenate(arrays))
        pieces[kind] = iter(block.reshape(len(arrays), n, block.shape[1]))
    blocks = [next(pieces[values.dtype.kind]) for values in columns]
    out = np.empty((n, sum(b.shape[1] + 1 for b in blocks)), np.uint8)
    end = 0
    for block in blocks:
        out[:, end:end + block.shape[1]] = block
        end += block.shape[1] + 1
        out[:, end - 1] = 44
    out[:, -1] = 10
    return out.tobytes().translate(None, b"\0").decode("utf-8")


def table_rows(columns):
    """The CSV text of the rows of ``columns``, one string per chunk of rows."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    arrays = [_typed(c) for c in columns]
    for start in range(0, lengths[0] if lengths else 0, CHUNK_ROWS):
        yield _render([a[start:start + CHUNK_ROWS] for a in arrays])
