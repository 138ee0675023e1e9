"""Trace ingestion, the columnar packet representation, and the synthetic
trace generator.

The canonical on-disk format is a text CSV (header
``ts,src_ip,dst_ip,src_port,dst_port,seq,payload_len``) so fixtures stay
reviewable; raw capture formats are out of scope.  Ingestion drops
zero-payload rows (sequence numbers cannot advance without payload);
``filter_server_to_client`` is a separate step that keeps the
server-to-client direction using a port heuristic.

``PacketArrays`` is the one trace representation: ingestion, the generator,
the oracle and the batch detector path all work on its columns, so
multi-million packet traces stay cheap.  ``PacketArrays.iter_records``
gives the per-packet view the reference detectors consume, and
``flow_steps`` the columnar out-of-order test the oracle and the batch
paths read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import FlowId, PacketRecord, PREFIX_MASK, ip_to_int

TRACE_HEADER = "ts,src_ip,dst_ip,src_port,dst_port,seq,payload_len"
SIDECAR_HEADER = "flow_key,injected_displacements"


class TraceFormatError(ValueError):
    """Raised for malformed trace input; the message names the line."""


@dataclass(frozen=True, slots=True)
class TraceMeta:
    packet_count: int
    flow_count: int
    prefix_count: int
    duration_seconds: float


@dataclass
class PacketArrays:
    """Column-oriented packet trace.

    ``flow_id`` indexes the per-flow tables; packets of one flow share one
    id.  Timestamps are nondecreasing in packet order.
    """

    ts: np.ndarray
    seq: np.ndarray
    payload_len: np.ndarray
    flow_id: np.ndarray
    flow_src_ip: np.ndarray
    flow_dst_ip: np.ndarray
    flow_src_port: np.ndarray
    flow_dst_port: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def flow_count(self) -> int:
        return len(self.flow_src_ip)

    @property
    def flow_prefix_bits(self) -> np.ndarray:
        return self.flow_src_ip & np.int64(PREFIX_MASK)

    def flow(self, fid: int) -> FlowId:
        return FlowId(
            int(self.flow_src_ip[fid]),
            int(self.flow_dst_ip[fid]),
            int(self.flow_src_port[fid]),
            int(self.flow_dst_port[fid]),
        )

    @property
    def duration_seconds(self) -> float:
        return float(self.ts[-1] - self.ts[0]) if len(self) >= 2 else 0.0

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "PacketArrays":
        flow_index: dict[FlowId, int] = {}
        fids, seqs, lens, tss = [], [], [], []
        for rec in records:
            fid = flow_index.get(rec.flow)
            if fid is None:
                fid = len(flow_index)
                flow_index[rec.flow] = fid
            fids.append(fid)
            seqs.append(rec.seq)
            lens.append(rec.payload_len)
            tss.append(rec.ts)
        payload_len = np.asarray(lens, dtype=np.int64)
        # a negative payload could make one packet break DEF1 and DEF2 at once
        negative = np.flatnonzero(payload_len < 0)
        if len(negative):
            raise ValueError(f"record {negative[0]}: negative payload_len {lens[negative[0]]}")
        ts = np.asarray(tss, dtype=np.float64)
        # a NaN gap has no inter-arrival bin, and no trace file holds one
        non_finite = np.flatnonzero(~np.isfinite(ts))
        if len(non_finite):
            raise ValueError(f"record {non_finite[0]}: non-finite ts {tss[non_finite[0]]!r}")
        flows = list(flow_index)
        return cls(
            ts=ts,
            seq=np.asarray(seqs, dtype=np.int64),
            payload_len=payload_len,
            flow_id=np.asarray(fids, dtype=np.int64),
            flow_src_ip=np.asarray([f.src_ip for f in flows], dtype=np.int64),
            flow_dst_ip=np.asarray([f.dst_ip for f in flows], dtype=np.int64),
            flow_src_port=np.asarray([f.src_port for f in flows], dtype=np.int64),
            flow_dst_port=np.asarray([f.dst_port for f in flows], dtype=np.int64),
        )

    def subset(self, index: np.ndarray) -> "PacketArrays":
        """The packets picked by ``index`` (a mask or sorted positions), in
        trace order; the flow tables are kept as they are."""
        return replace(
            self,
            ts=self.ts[index],
            seq=self.seq[index],
            payload_len=self.payload_len[index],
            flow_id=self.flow_id[index],
        )

    def iter_records(self) -> Iterator[PacketRecord]:
        """Per-packet view for the reference detectors, in trace order."""
        flows = [self.flow(fid) for fid in range(self.flow_count)]
        for fid, seq, length, ts in zip(
            self.flow_id.tolist(),
            self.seq.tolist(),
            self.payload_len.tolist(),
            self.ts.tolist(),
        ):
            yield PacketRecord(flows[fid], seq, length, ts)


def group_order(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """The stable argsort of ``ids`` (each in [0, n_ids)): grouped by id,
    packet order kept within a group.  The ids are sorted in the narrowest
    unsigned type that holds them, because numpy radix-sorts integers of 16
    bits or fewer: for 60,000 ids in 256 groups that takes 0.5 ms instead
    of 4 ms as int64, with the same order."""
    return np.argsort(ids.astype(np.min_scalar_type(max(n_ids - 1, 0))), kind="stable")


def flow_steps(arrays: PacketArrays) -> tuple[np.ndarray, np.ndarray]:
    """Every packet compared with its flow predecessor, in one pass.

    ``order`` is the packet order sorted stably by flow.  ``step`` holds,
    per sorted packet, -1 for the first packet of its flow, else the
    ``ReorderDef`` value of the definition it breaks against the packet
    before it in its flow (1: seq below the previous seq; 2: seq beyond
    the previous seq + payload_len), else 0.  The two exclude each other
    because payload_len is never negative."""
    order = group_order(arrays.flow_id, arrays.flow_count)
    fid = arrays.flow_id[order]
    seq = arrays.seq[order]
    step = np.zeros(len(order), dtype=np.int8)
    later = step[1:]
    later[seq[1:] > seq[:-1] + arrays.payload_len[order[:-1]]] = 2
    later[seq[1:] < seq[:-1]] = 1
    later[fid[1:] != fid[:-1]] = -1
    step[:1] = -1
    return order, step


_SEQ_LIMIT = 1 << 32  # seq and payload_len are 32-bit TCP quantities

# The fast path parses the buffer in blocks of about this many bytes, each
# cut after a newline, so that its per-byte temporaries stay small.
_BLOCK_BYTES = 1 << 20


def parse_trace(path: str | Path) -> tuple[PacketArrays, TraceMeta]:
    """Read the canonical CSV into columns, dropping zero-payload rows.

    Raises ``TraceFormatError`` (with a line number) on malformed rows,
    non-canonical numbers (a sign, whitespace, an underscore, a control or a
    non-ASCII character, which ``int``/``float`` would quietly accept, or an
    IP octet with a leading zero), negative, non-finite or decreasing
    timestamps, and seq or payload_len outside [0, 2^32).

    Canonical input (what ``write_trace_csv`` writes) is parsed with
    whole-buffer numpy operations; on anything else the file is reopened for
    the line-by-line reader, which either accepts it or raises the error for
    its first bad line.  The fast path is stricter than the line reader (it
    sends ``1E-05``, CRLF line ends or a blank line to it) but never accepts
    a row that the line reader rejects.
    """
    data = Path(path).read_bytes()
    columns = _canonical_columns(data)
    del data  # free the buffer before grouping or reading lines
    if columns is None:
        # a non-ASCII byte becomes a lone surrogate and fails row validation
        # with its line number; line ends are read with universal newlines
        with open(path, encoding="ascii", errors="surrogateescape") as handle:
            arrays = _parse_lines(handle)
    else:
        arrays = _flow_arrays(*columns)
    # every flow of a parsed trace has a packet
    return arrays, flow_table_meta(arrays)


def flow_table_meta(arrays: PacketArrays) -> TraceMeta:
    """The trace's packet, flow and prefix counts and its duration, from the
    flow tables, without a pass over the packets.  The counts are those of
    the flows with packets when every flow has one, as in a parsed or a
    generated trace."""
    return TraceMeta(
        packet_count=len(arrays),
        flow_count=arrays.flow_count,
        prefix_count=int(_distinct(arrays.flow_prefix_bits).size),
        duration_seconds=arrays.duration_seconds,
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-D array without NaN.  A bare
    ``np.unique`` imports ``numpy.ma`` (12-21 ms on a cold start) to rule
    out a masked array.  Its ``return_inverse`` form skips that import too,
    but on the 4.7M address keys of a parse it peaks at 184 MiB against
    76 MiB for this sort."""
    ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _parse_lines(handle: IO[str]) -> PacketArrays:
    """The reference reader: the header, then one validated row at a time."""
    header = handle.readline().rstrip("\n")
    if header != TRACE_HEADER:
        raise TraceFormatError(f"line 1: expected header {TRACE_HEADER!r}")
    return PacketArrays.from_records(_read_rows(handle))


def _read_rows(handle: IO[str]) -> Iterator[PacketRecord]:
    """Validated records of the data rows after the header."""
    flows: dict[tuple[str, ...], FlowId] = {}  # each flow's fields are parsed once
    prev_ts = -math.inf
    for lineno, line in enumerate(handle, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise TraceFormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        key = tuple(parts[1:5])
        try:
            ts = float(parts[0])
            seq = int(parts[5])
            payload_len = int(parts[6])
            flow = flows.get(key)
            if flow is None:
                flow = flows[key] = _parse_flow(*key)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        if not (0 <= seq < _SEQ_LIMIT and 0 <= payload_len < _SEQ_LIMIT):
            raise TraceFormatError(
                f"line {lineno}: seq or payload_len negative or not below 2^32"
            )
        # the substring test keeps the exact one off most rows
        if ",0" in line and (_leading_zero(parts[5]) or _leading_zero(parts[6])):
            raise TraceFormatError(f"line {lineno}: leading zero in seq or payload_len")
        # a '-' is canonical only in the timestamp (e.g. 1e-05); negative
        # integers were rejected above, so one here is a "-0"
        if (
            not line.isascii()
            or not line.isprintable()
            or "+" in line
            or "_" in line
            or " " in line
            or ("-" in line and "-" in line.partition(",")[2])
        ):
            raise TraceFormatError(
                f"line {lineno}: non-canonical field (sign, whitespace, underscore, "
                "control or non-ASCII character)"
            )
        if not math.isfinite(ts):
            raise TraceFormatError(f"line {lineno}: non-finite timestamp")
        if parts[0].startswith("-"):
            raise TraceFormatError(f"line {lineno}: negative timestamp")
        if ts < prev_ts:
            raise TraceFormatError(f"line {lineno}: decreasing timestamp")
        prev_ts = ts
        if payload_len:
            yield PacketRecord(flow, seq, payload_len, ts)


def _leading_zero(digits: str) -> bool:
    """An integer field, already parsed by ``int``, written with a leading
    zero (``0443``); ``0`` itself is canonical."""
    return digits[0] == "0" and len(digits) > 1


def _parse_flow(src_ip: str, dst_ip: str, src_port: str, dst_port: str) -> FlowId:
    flow = FlowId(ip_to_int(src_ip), ip_to_int(dst_ip), int(src_port), int(dst_port))
    if _leading_zero(src_port) or _leading_zero(dst_port):
        raise ValueError("leading zero in a port")
    if not (0 <= flow.src_port <= 0xFFFF and 0 <= flow.dst_port <= 0xFFFF):
        raise ValueError("port out of range")
    return flow


# --- fast path for canonical input ---------------------------------------------

_PAD = 32  # bytes around a block, so that every field window stays inside it


def _canonical_columns(data: bytes) -> Optional[tuple[np.ndarray, ...]]:
    """The columns of canonical ``data`` (header and rows), else None.

    Canonical rows hold only digits, ``,``, ``.``, ``-``, ``e`` and a final
    ``\\n``, and seven non-empty fields: a timestamp that ``float`` reads as
    finite, not negative and not below the one before, two addresses that
    ``ip_to_int`` accepts, and ports, seq and payload_len without sign or
    leading zero, below 2^16 and 2^32.  This only detects a departure from
    that form; the line reader finds and names it.

    Returns ts, seq, payload_len and the packed port pair of every row, its
    source and destination address as an index into the two address tables,
    and those two tables.
    """
    header = TRACE_HEADER.encode() + b"\n"
    allowed = b"0123456789,.-e\n"
    # only the header may hold other bytes
    if not data.startswith(header) or (
        data.translate(None, allowed) != header.translate(None, allowed)
    ):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    pos = len(header)
    n_rows = data.count(b"\n", pos) + (not data.endswith(b"\n"))
    ts = np.empty(n_rows, dtype=np.float64)
    seq, payload_len, ports, src_key, dst_key = (
        np.empty(n_rows, dtype=np.int64) for _ in range(5)
    )
    row = 0
    while pos < len(data):
        cut = data.find(b"\n", pos + _BLOCK_BYTES - 1)
        end = len(data) if cut < 0 else cut + 1
        block = _parse_block(raw[pos:end], float(ts[row - 1]) if row else 0.0)
        if block is None:
            return None
        stop = row + len(block[0])
        for column, values in zip((ts, seq, payload_len, ports, src_key, dst_key), block):
            column[row:stop] = values
        row, pos = stop, end
    # each distinct address is parsed once, kept row or not
    addresses = []
    for keys in (src_key, dst_key):
        distinct = _distinct(keys)
        try:
            table = np.array([ip_to_int(ip) for ip in _ip_strings(distinct)], dtype=np.int64)
        except ValueError:
            return None
        addresses.append((np.searchsorted(distinct, keys), table))
    (src_row, src_table), (dst_row, dst_table) = addresses
    return ts, seq, payload_len, ports, src_row, dst_row, src_table, dst_table


def _flow_arrays(
    ts: np.ndarray,
    seq: np.ndarray,
    payload_len: np.ndarray,
    ports: np.ndarray,
    src_row: np.ndarray,
    dst_row: np.ndarray,
    src_table: np.ndarray,
    dst_table: np.ndarray,
) -> PacketArrays:
    """Drop the zero-payload rows and number the flows in the order of their
    first kept row, as ``PacketArrays.from_records`` does."""
    if not payload_len.all():
        kept = np.flatnonzero(payload_len)
        ts, seq, payload_len = ts[kept], seq[kept], payload_len[kept]
        ports, src_row, dst_row = ports[kept], src_row[kept], dst_row[kept]
    pair = src_row * len(dst_table) + dst_row
    if len(src_table) * len(dst_table) > 1 << 31:  # keep pair << 32 inside int64
        pair = np.unique(pair, return_inverse=True)[1]
    _, first, row_flow = np.unique((pair << 32) | ports, return_index=True, return_inverse=True)
    order = np.argsort(first)
    flow_id = np.empty_like(order)
    flow_id[order] = np.arange(order.size)
    first = first[order]
    return PacketArrays(
        ts=ts,
        seq=seq,
        payload_len=payload_len,
        flow_id=flow_id[row_flow],
        flow_src_ip=src_table[src_row[first]],
        flow_dst_ip=dst_table[dst_row[first]],
        flow_src_port=ports[first] >> 16,
        flow_dst_port=ports[first] & 0xFFFF,
    )


def _parse_block(chunk: np.ndarray, prev_ts: float) -> Optional[tuple[np.ndarray, ...]]:
    """ts, seq, payload_len, the packed port pair and the two address keys
    of the rows in ``chunk`` (bytes of the allowed class, whole lines);
    None if a row is not canonical."""
    buf = np.zeros(len(chunk) + 2 * _PAD, dtype=np.uint8)
    buf[_PAD : _PAD + len(chunk)] = chunk
    if chunk[-1] != ord("\n"):
        buf[_PAD + len(chunk)] = ord("\n")  # the last row may lack its line end
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    if commas.size != 6 * ends.size:
        return None
    commas = commas.reshape(-1, 6)
    starts = np.empty_like(ends)
    starts[0] = _PAD
    starts[1:] = ends[:-1] + 1
    # with 6 commas per line on average, this holds only if every line has 6
    if np.any(commas[:, 0] <= starts) or np.any(commas[:, 5] >= ends):
        return None
    ts = _timestamps(buf, starts, commas[:, 0])
    columns = (
        ts,
        _uints(buf, commas[:, 4] + 1, commas[:, 5], 10, _SEQ_LIMIT),
        _uints(buf, commas[:, 5] + 1, ends, 10, _SEQ_LIMIT),
        _ip_keys(buf, commas[:, 0] + 1, commas[:, 1]),
        _ip_keys(buf, commas[:, 1] + 1, commas[:, 2]),
        _uints(buf, commas[:, 2] + 1, commas[:, 3], 5, 1 << 16),
        _uints(buf, commas[:, 3] + 1, commas[:, 4], 5, 1 << 16),
    )
    if any(column is None for column in columns) or ts[0] < prev_ts:
        return None
    ts, seq, payload_len, src_key, dst_key, src_port, dst_port = columns
    return ts, seq, payload_len, (src_port << 16) | dst_port, src_key, dst_key


def _timestamps(buf: np.ndarray, first: np.ndarray, stop: np.ndarray) -> Optional[np.ndarray]:
    """The fields buf[first:stop] as finite, non-negative, nondecreasing
    floats, read as ``float`` reads them; None otherwise."""
    length = stop - first
    width = int(length.max())
    if width > _PAD or np.any(buf[first] == ord("-")):
        return None
    chars = sliding_window_view(buf, width)[first]
    chars *= np.arange(width) < length[:, None]  # a NUL ends an S string
    try:
        with np.errstate(over="ignore"):  # 1e999 reads as inf, refused below
            ts = chars.view(f"S{width}")[:, 0].astype(np.float64)
    except ValueError:
        return None
    if not np.isfinite(ts).all() or np.any(ts[1:] < ts[:-1]):
        return None
    return ts


def _uints(
    buf: np.ndarray, first: np.ndarray, stop: np.ndarray, width: int, limit: int
) -> Optional[np.ndarray]:
    """The fields buf[first:stop] as integers below ``limit``, each written
    with digits only, at most ``width`` of them and no leading zero; None
    otherwise."""
    length = stop - first
    if length.min() < 1 or length.max() > width:
        return None
    digits = sliding_window_view(buf, width)[stop - width] - np.uint8(ord("0"))
    digits *= np.arange(width) >= width - length[:, None]  # zero the bytes before the field
    if digits.max() > 9:
        return None
    value = np.zeros(len(first), dtype=np.int64)
    for column in digits.T:  # column by column, with no n x width int64 temporary
        value *= 10
        value += column
    # a number has as many digits as its field has bytes: no leading zero
    lowest = np.array([0, 0] + [10**k for k in range(1, width)], dtype=np.int64)
    if np.any(value < lowest[length]) or value.max() >= limit:
        return None
    return value


def _ip_keys(buf: np.ndarray, first: np.ndarray, stop: np.ndarray) -> Optional[np.ndarray]:
    """The fields buf[first:stop], of digits and dots, each packed four bits
    a byte into one int64 (``_ip_strings`` reverses it); None otherwise."""
    if int((stop - first).max()) > 15:
        return None
    codes = sliding_window_view(buf, 15)[first] - np.uint8(ord(","))  # '.' 2, digits 4-13
    codes *= np.arange(15) < (stop - first)[:, None]  # zero the bytes after the field
    if codes.max() > 13 or np.any(codes == ord("-") - ord(",")):
        return None
    keys = np.zeros(len(first), dtype=np.int64)
    for column in codes.T:
        keys <<= 4
        keys |= column
    return keys


def _ip_strings(keys: np.ndarray) -> list[str]:
    codes = (keys[:, None] >> np.arange(56, -1, -4)) & 15
    chars = np.where(codes > 0, codes + ord(","), 0).astype(np.uint8)
    return [ip.decode("ascii") for ip in chars.view("S15")[:, 0].tolist()]


def filter_server_to_client(arrays: PacketArrays) -> PacketArrays:
    """Keep the server-to-client direction.

    Heuristic: service ports are numerically low, so a packet is kept iff
    its flow has ``src_port < dst_port``.  Ties are dropped (direction
    undecidable).  The flow tables are kept as they are.
    """
    return arrays.subset((arrays.flow_src_port < arrays.flow_dst_port)[arrays.flow_id])


# repr writes a float at or above 1e16 with a signed exponent ("1e+16"),
# which the reader refuses as non-canonical
MAX_TS = 1e16


def _check_writable(arrays: PacketArrays) -> None:
    """Raise the ``ValueError`` of ``write_trace_csv``, naming the first bad
    packet, else the first bad flow."""
    ts = arrays.ts
    decreasing = np.zeros(len(ts), dtype=bool)
    decreasing[1:] = ts[1:] < ts[:-1]
    packet_ints = [(name, getattr(arrays, name), 32) for name in ("seq", "payload_len")]
    flow_ints = [
        (name, getattr(arrays, f"flow_{name}"), bits)
        for name, bits in (("src_ip", 32), ("dst_ip", 32), ("src_port", 16), ("dst_port", 16))
    ]
    # ~(ts < MAX_TS) holds for NaN too
    bad = decreasing | np.signbit(ts) | ~(ts < MAX_TS) | _out_of_range(packet_ints)
    if bad.any():
        i = int(np.argmax(bad))
        t = float(ts[i])
        if not t < MAX_TS:
            raise ValueError(f"packet {i} has ts {t!r}; the trace format holds ts below 1e16")
        if math.copysign(1.0, t) < 0:
            raise ValueError(f"packet {i} has negative ts {t!r}")
        if decreasing[i]:
            before = float(ts[i - 1])
            raise ValueError(f"packet {i} has ts {t!r}, below the ts {before!r} before it")
        _raise_out_of_range(f"packet {i}", packet_ints, i)
    bad = _out_of_range(flow_ints)
    if bad.any():
        i = int(np.argmax(bad))
        _raise_out_of_range(f"flow {i}", flow_ints, i)


def _out_of_range(columns: list[tuple[str, np.ndarray, int]]) -> np.ndarray:
    """Where any of the (name, values, bits) columns leaves [0, 2^bits)."""
    return np.logical_or.reduce([(v < 0) | (v >= 1 << bits) for _, v, bits in columns])


def _raise_out_of_range(what: str, columns: list[tuple[str, np.ndarray, int]], i: int) -> None:
    for name, values, bits in columns:
        value = int(values[i])
        if value < 0:
            raise ValueError(f"{what} has negative {name} {value}")
        if value >= 1 << bits:
            raise ValueError(
                f"{what} has {name} {value}; the trace format holds {name} below 2^{bits}"
            )


def write_trace_csv(arrays: PacketArrays, dest: IO[str]) -> None:
    """Write the canonical CSV; ``parse_trace`` reads it back exactly.

    Each row is the text of
    ``f"{ts!r},{src_ip},{dst_ip},{src_port},{dst_port},{seq},{payload_len}\\n"``
    with the addresses as dotted quads.  Raises ``ValueError``, before
    anything is written, for a trace the reader would refuse or read back
    otherwise: a ts outside [0, 1e16) (-0.0 included, written with its
    sign) or below the one before, a seq or payload_len outside [0, 2^32),
    an address outside [0, 2^32) or a port outside [0, 2^16).
    """
    from . import csvtext  # compiled only by the commands that write a trace

    _check_writable(arrays)
    dest.write(TRACE_HEADER + "\n")
    for rows in csvtext.trace_rows(arrays):
        dest.write(rows)


def write_sidecar(arrays: PacketArrays, counts: np.ndarray, dest: IO[str]) -> None:
    """Write one ``src_ip:src_port>dst_ip:dst_port,count`` line per flow of
    ``arrays``'s flow tables, in flow id order; ``counts`` is indexed by flow
    id."""
    from . import csvtext

    dest.write(SIDECAR_HEADER + "\n")
    dest.write(csvtext.sidecar_rows(arrays, counts))


# --- synthetic workload -----------------------------------------------------

# fixed texture of the synthetic workload
NOISY_EPISODE_LEN = 16  # packets in a noisy flow's loss episode
NOISY_EPISODE_PROB = 0.3  # displacement probability inside an episode
MAX_FLOW_SIZE = 4096  # flow sizes are clipped to [2, MAX_FLOW_SIZE]
# timestamps reach a few times the duration, far below MAX_TS at this cap
MAX_DURATION_SECONDS = 1e9
MEAN_BURST_LEN = 16  # packets per burst (Poisson mean, at least 2)
INTRA_BURST_GAP = 8e-6  # mean gap between the packets of a burst, seconds
STALL_FRACTION = 0.3  # share of displaced packets that stall their flow


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the seeded synthetic workload.

    Prefixes are split into "bad-path" and "good-path" groups; every packet
    of a bad-path prefix is displaced (delayed past 1..``displacement_max``
    of its successors) with probability ``bad_reorder_prob``, others with
    ``good_reorder_prob``.  Independently, a ``noisy_flow_fraction`` share
    of flows suffers one transient loss episode: a contiguous window of
    ``NOISY_EPISODE_LEN`` packets displaced at ``NOISY_EPISODE_PROB``.
    Episodes model single-flow noise that should not get a whole prefix
    reported.  Flows emit packets in bursts so the staleness threshold of
    the samplers is exercised at realistic timescales.
    """

    n_prefixes: int = 1024
    flows_per_prefix_zipf_exponent: float = 1.8
    flow_size_zipf_exponent: float = 1.5
    mean_flow_size: float = 48.0
    bad_prefix_fraction: float = 0.05
    bad_reorder_prob: float = 0.05
    good_reorder_prob: float = 0.001
    displacement_max: int = 2
    duration_seconds: float = 10.0
    seed: int = 0
    # texture knobs (kept apart from the contract fields above)
    noisy_flow_fraction: float = 0.0
    max_flows_per_prefix: int = 48

    def validate(self) -> None:
        if not 1 <= self.n_prefixes <= 1 << 16:
            raise ValueError("n_prefixes must lie in [1, 2^16]")
        if not 0.0 <= self.bad_prefix_fraction <= 1.0:
            raise ValueError("bad_prefix_fraction must lie in [0, 1]")
        if not 0.0 <= self.good_reorder_prob <= self.bad_reorder_prob <= 1.0:
            raise ValueError("need 0 <= good_reorder_prob <= bad_reorder_prob <= 1")
        if self.displacement_max < 1:
            raise ValueError("displacement_max must be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.duration_seconds <= MAX_DURATION_SECONDS:
            raise ValueError("duration_seconds must lie in (0, 1e9]")
        if not 2.0 <= self.mean_flow_size < math.inf:
            raise ValueError("mean_flow_size must be finite and >= 2")
        if not 0.0 <= self.noisy_flow_fraction <= 1.0:  # written so that NaN fails too
            raise ValueError("noisy_flow_fraction must lie in [0, 1]")
        if self.max_flows_per_prefix < 1:
            raise ValueError("max_flows_per_prefix must be >= 1")
        # the generator sums each zipf's weights into its CDF, and the flow
        # sizes' weights times k into their mean
        for name, kmax, takes_mean in (
            ("flows_per_prefix_zipf_exponent", self.max_flows_per_prefix, False),
            ("flow_size_zipf_exponent", MAX_FLOW_SIZE, True),
        ):
            exponent = getattr(self, name)
            if not math.isfinite(exponent):
                raise ValueError(f"{name} must be finite")
            ks, weights = _zipf_weights(exponent, kmax)
            with np.errstate(over="ignore"):
                sums = [np.cumsum(weights)[-1], np.sum(ks * weights) if takes_mean else 0.0]
            if not np.isfinite(sums).all():
                raise ValueError(f"{name} overflows the zipf weights on [1, {kmax}]")


def _zipf_weights(exponent: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """k = 1..kmax and the unnormalized power-law weights k^-exponent (inf
    where they overflow, which ``SynthConfig.validate`` refuses)."""
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        return ks, ks ** (-exponent)


def _bounded_zipf(rng: np.random.Generator, exponent: float, kmax: int, size: int) -> np.ndarray:
    """Power-law integers on [1, kmax] via inverse CDF."""
    cdf = np.cumsum(_zipf_weights(exponent, kmax)[1])
    cdf /= cdf[-1]
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="left") + 1


def _bounded_zipf_mean(exponent: float, kmax: int) -> float:
    ks, pmf = _zipf_weights(exponent, kmax)
    return float(np.sum(ks * pmf) / np.sum(pmf))


def generate_synthetic_arrays(cfg: SynthConfig) -> tuple[PacketArrays, np.ndarray]:
    """Deterministically generate a trace; also returns the per-flow count
    of injected displacements (indexed by flow id)."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    base_prefix = ip_to_int("10.0.0.0")
    prefix_bits = base_prefix + (np.arange(cfg.n_prefixes, dtype=np.int64) << 8)
    bad_prefix = rng.random(cfg.n_prefixes) < cfg.bad_prefix_fraction

    flows_per_prefix = _bounded_zipf(
        rng, cfg.flows_per_prefix_zipf_exponent, cfg.max_flows_per_prefix, cfg.n_prefixes
    )
    n_flows = int(flows_per_prefix.sum())
    flow_prefix = np.repeat(np.arange(cfg.n_prefixes), flows_per_prefix)

    raw = _bounded_zipf(rng, cfg.flow_size_zipf_exponent, MAX_FLOW_SIZE, n_flows)
    scale = cfg.mean_flow_size / _bounded_zipf_mean(cfg.flow_size_zipf_exponent, MAX_FLOW_SIZE)
    # raw >= 1, so a scale above MAX_FLOW_SIZE puts every size at the cap
    # anyway; capping the scale keeps raw * scale finite and inside int64
    scale = min(scale, float(MAX_FLOW_SIZE))
    sizes = np.clip(np.round(raw * scale).astype(np.int64), 2, MAX_FLOW_SIZE)

    # flow endpoints: src host inside the prefix, unique client side
    flow_src_ip = prefix_bits[flow_prefix] + 1 + rng.integers(0, 254, n_flows)
    client_base = ip_to_int("172.16.0.0")
    flow_idx = np.arange(n_flows, dtype=np.int64)
    flow_dst_ip = client_base + flow_idx // 64000
    flow_dst_port = 1024 + flow_idx % 64000
    flow_src_port = rng.choice(np.array([80, 443, 8080], dtype=np.int64), n_flows)

    n_pkts = int(sizes.sum())
    starts = np.zeros(n_flows, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    pkt_flow = np.repeat(flow_idx, sizes)
    within = np.arange(n_pkts, dtype=np.int64) - np.repeat(starts, sizes)

    # in-order contents: sequence numbers advance by payload length
    payload = rng.integers(100, 1449, n_pkts, dtype=np.int64)
    pay_cum = np.cumsum(payload)
    seg_base = np.repeat(pay_cum[starts] - payload[starts], sizes)
    seq0 = rng.integers(0, 1 << 20, n_flows, dtype=np.int64)
    seq = np.repeat(seq0, sizes) + (pay_cum - payload) - seg_base

    # displacement: delay contents by 1..displacement_max positions; noisy
    # flows additionally get one contiguous high-rate episode
    noisy_flow = rng.random(n_flows) < cfg.noisy_flow_fraction
    episode_start = rng.integers(0, np.maximum(sizes - NOISY_EPISODE_LEN, 1))
    base_prob = np.where(bad_prefix[flow_prefix], cfg.bad_reorder_prob, cfg.good_reorder_prob)
    pkt_prob = np.repeat(base_prob, sizes)
    start_pkt = np.repeat(episode_start, sizes)
    in_episode = (
        np.repeat(noisy_flow, sizes)
        & (within >= start_pkt)
        & (within < start_pkt + NOISY_EPISODE_LEN)
    )
    pkt_prob = np.where(in_episode, NOISY_EPISODE_PROB, pkt_prob)
    displaced = rng.random(n_pkts) < pkt_prob
    shift = rng.integers(1, cfg.displacement_max + 1, n_pkts, dtype=np.int64)
    keys = within.astype(np.float64)
    keys[displaced] += shift[displaced] + 0.5
    order = np.lexsort((keys, pkt_flow))  # per-flow arrival order of contents

    # arrival schedule: bursts of back-to-back packets, long silences between
    burst_len = np.maximum(2, rng.poisson(MEAN_BURST_LEN, n_flows))
    pkt_burst_len = np.repeat(burst_len, sizes)
    is_burst_gap = (within > 0) & (within % pkt_burst_len == 0)
    n_bursts = np.maximum(1, (sizes + burst_len - 1) // burst_len)
    span = rng.uniform(0.3, 0.9, n_flows) * cfg.duration_seconds
    inter_gap_mean = span / n_bursts
    gaps = rng.exponential(1.0, n_pkts) * INTRA_BURST_GAP
    gaps[is_burst_gap] = rng.exponential(1.0, int(is_burst_gap.sum())) * np.repeat(
        inter_gap_mean, sizes
    )[is_burst_gap]
    # a displaced content stalls its flow: extra delay at the slot it lands
    # in.  Most delays stay at burst scale (the events remain observable at
    # small timeouts); a fraction are full retransmission-style stalls, so
    # reordered packets dominate the inter-arrival tail.
    disp_at_slot = displaced[order]
    n_disp = int(disp_at_slot.sum())
    extra = (2.0 + rng.exponential(4.0, n_disp)) * INTRA_BURST_GAP
    stall = rng.random(n_disp) < STALL_FRACTION
    flow_inter = np.repeat(inter_gap_mean, sizes)[disp_at_slot]
    extra[stall] = flow_inter[stall] * (0.5 + rng.exponential(0.5, int(stall.sum())))
    gaps[disp_at_slot] += extra
    gaps[within == 0] = 0.0
    ts_rel = np.cumsum(gaps) - np.repeat(np.cumsum(gaps)[starts] - gaps[starts], sizes)
    start_offset = rng.uniform(0.0, np.maximum(cfg.duration_seconds - span, 0.0))
    ts = np.repeat(start_offset, sizes) + ts_rel

    # contents permuted into arrival slots, then all flows merged by time
    seq_arr = seq[order]
    payload_arr = payload[order]
    final = np.argsort(ts, kind="stable")

    arrays = PacketArrays(
        ts=ts[final],
        seq=seq_arr[final],
        payload_len=payload_arr[final],
        flow_id=pkt_flow[final],
        flow_src_ip=flow_src_ip.astype(np.int64),
        flow_dst_ip=flow_dst_ip.astype(np.int64),
        flow_src_port=flow_src_port.astype(np.int64),
        flow_dst_port=flow_dst_port.astype(np.int64),
    )
    injected = np.add.reduceat(displaced.astype(np.int64), starts)
    return arrays, injected
