"""Text of the canonical trace CSV and of the ground-truth sidecar, built
with whole-column numpy operations.

Rows are NUL-padded byte matrices, one column block per field, joined by
dropping the NULs: no field text holds a NUL byte.  Timestamps are written
as Python's ``repr`` writes them, the shortest decimal that reads back to
the same float64, found exactly in integer arithmetic for the values a
trace holds (``_shortest_decimal``) and taken from ``repr`` itself for the
rest.

``traceio`` imports this module when it writes, so the commands that only
read a trace do not compile it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Union

import numpy as np

if TYPE_CHECKING:
    from .traceio import PacketArrays

# Rows formatted at a time, so that the per-row byte matrices stay a few MiB.
_WRITE_ROWS = 1 << 16

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_POW5 = np.array([5**k for k in range(23)], dtype=np.int64)
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.int64)


def trace_rows(arrays: PacketArrays) -> Iterator[str]:
    """The data rows of the trace CSV, ``_WRITE_ROWS`` rows at a time."""
    flows = _join(
        b",", _ip_text(arrays.flow_src_ip), b",", _ip_text(arrays.flow_dst_ip),
        b",", _uint_text(arrays.flow_src_port), b",", _uint_text(arrays.flow_dst_port), b",",
    )
    for start in range(0, len(arrays), _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        yield _text(
            _join(
                _float_text(arrays.ts[rows]), flows[arrays.flow_id[rows]],
                _uint_text(arrays.seq[rows]), b",", _uint_text(arrays.payload_len[rows]), b"\n",
            )
        )


def sidecar_rows(arrays: PacketArrays, counts: np.ndarray) -> str:
    """One ``src_ip:src_port>dst_ip:dst_port,count`` line per flow."""
    return _text(
        _join(
            _ip_text(arrays.flow_src_ip), b":", _uint_text(arrays.flow_src_port),
            b">", _ip_text(arrays.flow_dst_ip), b":", _uint_text(arrays.flow_dst_port),
            b",", _uint_text(counts), b"\n",
        )
    )


def _join(*fields: Union[np.ndarray, bytes]) -> np.ndarray:
    """The rows made of ``fields`` side by side: NUL-padded byte matrices
    with one row per line, and constant bytes repeated on every row."""
    n = next(len(field) for field in fields if isinstance(field, np.ndarray))
    widths = [len(field) if isinstance(field, bytes) else field.shape[1] for field in fields]
    rows = np.empty((n, sum(widths)), dtype=np.uint8)
    col = 0
    for field, width in zip(fields, widths):
        rows[:, col : col + width] = (
            np.frombuffer(field, dtype=np.uint8) if isinstance(field, bytes) else field
        )
        col += width
    return rows


def _text(rows: np.ndarray) -> str:
    return rows[rows != 0].tobytes().decode("ascii")


def _digit_quads() -> np.ndarray:
    """The ASCII text of 0000 to 9999, four bytes in one uint32 each."""
    n = np.arange(10_000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()


_DIGIT_QUADS = _digit_quads()


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of non-negative ``values`` below 10**width, padded
    with zeros to ``width``."""
    quads = -(-width // 4)
    out = np.empty((len(values), quads), dtype=np.uint32)
    for col in range(quads - 1, -1, -1):
        out[:, col] = _DIGIT_QUADS[values % 10_000]
        values = values // 10_000
    return out.view(np.uint8)[:, 4 * quads - width :]


def _digit_count(values: np.ndarray) -> np.ndarray:
    """How many digits each non-negative value below 10**19 has; 1 for 0."""
    return np.searchsorted(_POW10_INT[1:], values, side="right") + 1


def _uint_text(values: np.ndarray) -> np.ndarray:
    """``str`` of each non-negative integer, NUL-padded on the left."""
    values = np.asarray(values, dtype=np.int64)
    if len(values) == 0:
        return np.zeros((0, 1), dtype=np.uint8)
    if values.min() < 0:
        raise ValueError("cannot write a negative integer field")
    count = _digit_count(values)
    width = int(count.max())
    text = _digits(values, width)
    text *= np.arange(width) >= (width - count)[:, None]  # NUL out the leading zeros
    return text


def _ip_text(ips: np.ndarray) -> np.ndarray:
    """Dotted-quad text of each address, as ``model.int_to_ip`` writes it."""
    a, b, c, d = (_uint_text((ips >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    return _join(a, b".", b, b".", c, b".", d)


def _float_text(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64, NUL-padded: from the exact decimal of
    ``_shortest_decimal`` where it has one, else from ``repr`` itself."""
    digits, point, exact = _shortest_decimal(x)
    # fixed-point text: the integer part, '.', then `point` fraction digits
    scale = _POW10_INT[np.minimum(point, 18)]  # every digits value is below 10**18
    whole = digits // scale
    width = int(point.max())
    fraction = _digits(digits - whole * scale, width)
    fraction *= np.arange(width) >= (width - point)[:, None]
    text = _join(_uint_text(whole), b".", fraction)
    if not exact.all():
        other = np.array([repr(v) for v in x[~exact].tolist()], dtype=np.bytes_)
        other = other.view(np.uint8).reshape(len(other), -1)
        if other.shape[1] > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, other.shape[1] - text.shape[1])))
        text[~exact] = 0
        text[~exact, : other.shape[1]] = other
    return text


def _shortest_decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Python's shortest round-trip decimal of each float64 as ``D / 10**p``
    (p >= 1), and a mask of where it was found; elsewhere ``repr`` must be
    used.

    It is found for 0.0, and for positive x with 1e-4 <= x < 2^50 that is
    not a power of two: there ``repr`` writes fixed-point digits and x's
    rounding interval is symmetric.  Write x = m * 2^q with m of 53 bits.
    The nearest integer D to x * 10^p reads back as x iff
    |D - x * 10^p| < 10^p * 2^(q-1), that is iff 2 * |r| < 5^p for the
    residual r = m * 5^p - D * 2^s, s = -(q + p).  Every probe has
    x * 10^p < 10^17 < 2^57, so ``rint(x * 10.0**p)`` is within 9 of D, and
    r and D follow exactly from uint64 arithmetic modulo 2^64 while
    1 <= s <= 55.

    The search starts at 16 significant digits, goes up to 17 (18 if log10
    floored one too high) or down while the candidate still reads back; the
    smallest such p gives ``repr``'s digits.  A probe outside the s window
    is left undecided, as is an exact tie (x * 10^p half an integer) whose
    candidates read back, since ``repr`` picks the even digit there; a tie
    whose candidates do not read back fails for both alike.  2 * |r| is
    even and 5^p odd, so r never lies on the bound.
    """
    n = len(x)
    digits = np.zeros(n, dtype=np.int64)
    point = np.ones(n, dtype=np.int64)
    bits = x.view(np.uint64)
    mantissa = bits & np.uint64((1 << 52) - 1)
    exact = bits == 0  # 0.0, but not -0.0: written from D = 0, p = 1
    fast = np.flatnonzero((x >= 1e-4) & (x < 2.0**50) & (mantissa != 0))
    xs = x[fast]
    m = mantissa[fast] | np.uint64(1 << 52)
    q = (bits[fast] >> np.uint64(52)).astype(np.int64) - 1075

    def nearest(i: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, ...]:
        """Nearest D to xs[i] * 10^p (0 <= p <= 22), whether it
        round-trips, and whether that is not decided."""
        s = -(q[i] + p)
        undecided = (s < 1) | (s > 55)
        s = np.clip(s, 1, 55)
        d0 = np.rint(xs[i] * _POW10[p]).astype(np.int64)
        r = m[i] * _POW5[p].astype(np.uint64) - (d0.astype(np.uint64) << s.astype(np.uint64))
        r = r.view(np.int64)
        half = np.left_shift(1, s - 1)
        carry = (r + half) >> s  # D - d0: r is then in [-half, half)
        r -= carry << s
        trips = 2 * np.abs(r) < _POW5[p]
        undecided |= (r == -half) & trips
        return d0 + carry, trips, undecided

    p = 15 - np.floor(np.log10(xs)).astype(np.int64)  # 16 significant digits
    d, trips, undecided = nearest(np.arange(len(xs)), p)
    # round-tripping is monotone in p: append a zero to D
    up = np.flatnonzero(~trips & ~undecided)
    for _ in range(2):
        p[up] += 1
        d[up], trips[up], undecided[up] = nearest(up, p[up])
        up = up[~trips[up] & ~undecided[up]]
    down = np.flatnonzero(trips & ~undecided & (p > 0))
    while down.size:
        lower, lower_trips, lower_undecided = nearest(down, p[down] - 1)
        undecided[down] |= lower_undecided
        step = lower_trips & ~lower_undecided
        down = down[step]
        p[down] -= 1
        d[down] = lower[step]
        down = down[p[down] > 0]
    found = trips & ~undecided
    # p = 0 (x an integer) is written as D * 10 / 10^1, so "12.0"
    digits[fast[found]] = np.where(p == 0, d * 10, d)[found]
    point[fast[found]] = np.maximum(p, 1)[found]
    exact[fast[found]] = True
    return digits, point, exact
