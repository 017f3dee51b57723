"""CSV text: each float as CPython's '%.17g' makes it, built by numpy; the
one block budget of every streamed pass (``block_rows``); and the writer and
byte check of a file.  ``geoflow`` and ``webbing`` make the tables, and hand
a file's rows over as blocks, each a callable that forms the block's bytes.
The writer and the check share the blocks between this process and, with
two CPUs and more than one block, one forked helper that forms, writes or
checks every other block in lockstep with it (``_ring``).  A failed write
leaves no partial file.

A value is a cell of 32 bytes: an 8-byte head (sign, the "0." and zeros of a
value below 1, the leading digit and a point after it), five 4-byte words of
three digits each with room for a point, and a last word with the 17th digit
and a comma, which ``csv_rows`` makes a newline after a row's last value.
Dropped characters are NUL, and one bytes.translate per block removes them.
"""

import contextlib
import functools
import os
import signal

import numpy as np

from .errors import LagwebError

CSV_CELL = 32
CSV_BLOCK = 1 << 14
_SPLIT = 134217729.0    # 2**27 + 1, Dekker's splitter
_POW10 = np.array([10.0 ** k for k in range(23)])   # exact in binary64
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def block_rows(width: int, least: int = 1) -> int:
    """Rows per streamed block, for rows of width values: about CSV_BLOCK
    values, and at least ``least`` rows.  Every streamed pass, the text's
    and webbing's, is sized by it, so CSV_BLOCK bounds their temporaries."""
    return max(least, CSV_BLOCK // width)


@functools.cache
def _tables():
    """Lookup tables of cell words, as (head, zeros, group, mode, tail).

    head[zeros[e + 4] + negative * 20 + d0 * 2 + point]: the 8-byte head of a
    value with decimal exponent e; zeros[e + 4] / 40 = max(0, -e) picks the
    "0." and the -e - 1 zeros that come before the digits of a value below 1.
    group[mode * 1000 + ddd]: a 3-digit group; mode 0 keeps all digits, 1
    drops trailing zeros, 2 + q and 5 + q put a point after digit q + 1 and
    keep or drop the trailing zeros after it (and the point, if none is left).
    mode[j, (e + 4) * 2 + z]: 1000 x the mode of group j (digits 3j + 1 to
    3j + 3) for decimal exponent e in [-4, 15], z when all later digits are 0.
    tail[d16]: the 17th digit (NUL if 0), then a comma.
    """
    digits = np.arange(1000)[:, np.newaxis] // np.array([100, 10, 1]) % 10
    chars = (48 + digits).astype(np.uint8)
    later = np.zeros((1000, 4), bool)   # later[:, i]: a nonzero digit at i or after
    later[:, :3] = np.logical_or.accumulate((digits != 0)[:, ::-1], axis=1)[:, ::-1]
    stripped = np.where(later[:, :3], chars, 0)
    group = np.zeros((8, 1000, 4), np.uint8)
    group[0, :, :3], group[1, :, :3] = chars, stripped
    for q in range(1, 4):
        for m, after, point in ((1 + q, chars, 46), (4 + q, stripped, 46 * later[:, q])):
            group[m, :, :q] = chars[:, :q]
            group[m, :, q] = point
            group[m, :, q + 1:] = after[:, q:]
    mode = np.zeros((5, 20, 2), np.int32)
    for j in range(5):
        for e in range(-4, 16):
            at = (e - 1) // 3 if e >= 1 else -1     # the group with the point
            if at == j:
                mode[j, e + 4] = 1000 * (1 + e - 3 * j + np.array([0, 3]))
            elif at < j:
                mode[j, e + 4] = 1000 * np.array([0, 1])
    head = np.zeros((5, 2, 10, 2, 8), np.uint8)
    head[:, 1, ..., 0] = ord("-")
    for zeros in range(1, 5):
        head[zeros, ..., 1:zeros + 2] = np.frombuffer(b"0." + b"0" * (zeros - 1), np.uint8)
    head[..., 6] = (48 + np.arange(10))[:, np.newaxis]
    head[..., 1, 7] = ord(".")
    zeros = 40 * np.clip(-np.arange(-4, 16), 0, 4).astype(np.int32)
    tail = np.zeros((10, 4), np.uint8)
    tail[1:, 0] = 48 + np.arange(1, 10)
    tail[:, 3] = ord(",")
    tables = (head.view(np.uint64).ravel(), zeros, group.view(np.uint32).ravel(),
              mode.reshape(5, 40), tail.view(np.uint32).ravel())
    for table in tables:
        table.setflags(write=False)  # one copy, shared by every call
    return tables


def _digits17(a, e):
    """round(a * 10**(16 - e)) exactly, ties to even, as int64: the product is
    hi + lo exactly (Dekker), and hi is an even integer from 2**53 up."""
    ph, pl = np.take(_POW10_HI, 16 - e), np.take(_POW10_LO, 16 - e)
    hi = a * (ph + pl)
    split = a * _SPLIT
    ah = split - (split - a)
    al = a - ah
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _cells(x):
    """The (N, CSV_CELL) uint8 cells of the float64 values x, each ending in a comma."""
    head, zeros, group, mode, tail = _tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)     # '%.17g' prints these without an exponent
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int32)
    d = _digits17(a, e)
    # log10 can miss near a power of ten, and rounding can carry into one
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        e[off] += np.where(d[off] < 10 ** 16, -1, 1).astype(np.int32)
        d[off] = _digits17(a[off], e[off])
    # digits d0 | g0 g1 g2 g3 g4 (three each) | d16, by floor division (not divmod, slower)
    d0 = d // 10 ** 16
    r = d - d0 * 10 ** 16
    q = r // 10
    d16 = (r - q * 10).astype(np.int32)
    upper = q // 10 ** 9
    lower = (q - upper * 10 ** 9).astype(np.int32)
    upper = upper.astype(np.int32)
    g0 = upper // 1000
    g2 = lower // 10 ** 6
    lower -= g2 * 10 ** 6
    g3 = lower // 1000
    groups = ((4, lower - g3 * 1000), (3, g3), (2, g2), (1, upper - g0 * 1000), (0, g0))

    cells = np.empty((len(x), CSV_CELL // 8), np.uint64)
    words = cells.view(np.uint32)
    words[:, 7] = np.take(tail, d16)
    zero = (d16 == 0).view(np.int8)     # all digits after the current group are 0
    row = (e + 4) * 2
    for j, g in groups:
        words[:, 2 + j] = np.take(group, np.take(mode[j], row + zero) + g)
        zero &= (g == 0).view(np.int8)
    point = (e == 0) & (zero == 0)
    cells[:, 0] = np.take(head, np.take(zeros, e + 4) + (x < 0) * 20 + d0 * 2 + point)

    cells = cells.view(np.uint8)
    slow = np.flatnonzero(~fast)        # 0, tiny, huge and non-finite values
    if slow.size:
        text = b"".join((b"%.17g" % v).ljust(CSV_CELL - 1, b"\0") + b"," for v in x[slow].tolist())
        cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, CSV_CELL)
    return cells


def csv_rows(table, prefix=None) -> bytes:
    """Each row of the float64 (m, k) table as its values in '%.17g',
    comma separated, and a newline: exactly CPython's text, -0 and non-finite
    values included.  prefix, an (m, w) uint8 array, puts its row of text
    (NUL bytes dropped) before each table row."""
    rows = block_rows(table.shape[1])
    out = []
    for start in range(0, len(table), rows):
        block = table[start:start + rows]
        cells = _cells(block.ravel()).reshape(len(block), -1)
        cells[:, -1] = ord("\n")    # the separator byte of each row's last cell
        if prefix is not None:
            cells = np.concatenate([prefix[start:start + rows], cells], axis=1)
        out.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(out)


def write_csv(path, header, blocks) -> None:
    """Write the header line, then the text of each block, a callable that
    returns its row bytes, over the ring (``_ring``).  On any failure the
    partial file is removed; an OSError that names no file, such as a full
    disk or a file size limit met by either process, is raised naming path."""
    try:
        with open(path, "wb", buffering=0) as fh:
            try:
                put = functools.partial(_put, fh.fileno())
                _ring(blocks, put, put((",".join(header) + "\n").encode(), 0))
            except BaseException:
                os.unlink(path)
                raise
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise


def check_csv(path, header, blocks, what: str) -> None:
    """Require the file at path to hold exactly the header line, then the
    text of each block (as for write_csv), then end of file; the blocks are
    compared over the ring, each with one read of its span.  A ValueError
    starts with what and names the file, and the first differing column and
    data row (from 1), or the row where the file ends.  Rows are counted only
    then, over the bytes that matched."""
    with open(path, "rb", buffering=0) as fh:
        line = (",".join(header) + "\n").encode()
        if os.pread(fh.fileno(), len(line), 0) != line:
            raise ValueError(f"{what}: {fh.name} header is not {','.join(header)}")
        try:
            end = _ring(blocks, functools.partial(_same, fh.fileno()), len(line))
        except _Differs as exc:
            raise ValueError(f"{what}: {fh.name} {_difference(fh, header, len(line), *exc.args)}"
                             ) from None
        if os.pread(fh.fileno(), 1, end):
            raise ValueError(f"{what}: {fh.name} has more than {_newlines(fh, len(line), end)} "
                             "data rows")


class _Differs(Exception):
    """The file differs from a block's text (args: the text, its offset)."""


def _put(fd: int, text: bytes, offset: int) -> int:
    """Write text at offset of the open file fd; the offset after it."""
    view = memoryview(text)
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done
    return offset


def _same(fd: int, text: bytes, offset: int) -> int:
    """Require the open file fd to hold text at offset; the offset after it."""
    if os.pread(fd, len(text), offset) != text:
        raise _Differs(text, offset)
    return offset + len(text)


def _difference(fh, header, rows_at: int, text: bytes, offset: int) -> str:
    """Where the file fh departs from the block text at offset: its first
    differing column and data row, or the row where the file ends; the data
    rows start at byte rows_at, and the file matched up to offset."""
    data = os.pread(fh.fileno(), len(text), offset)
    at = len(data)
    same = np.frombuffer(data, np.uint8) == np.frombuffer(text, np.uint8, at)
    if not same.all():
        at = int(np.argmin(same))
    start = text.rfind(b"\n", 0, at) + 1
    row = _newlines(fh, rows_at, offset) + text.count(b"\n", 0, at) + 1
    if at == len(data):
        return f"ends {'before' if at == start else 'in'} data row {row}"
    return f"column {header[text.count(b',', start, at)]} differs in data row {row}"


# --- the ring: blocks shared between this process and one forked helper ---

_REDO = -1  # token: the sender's block failed; the stage runs it again itself


def _ring(blocks, visit, offset: int) -> int:
    """Run visit(text, its offset) on each block's text in file order, and
    return the offset after the last; visit writes or checks one block at
    the offset it is given and returns the offset after it.

    The blocks go round a ring of min(2, CPUs this process may run on)
    processes: this one (the stage) forms blocks 0, 2, 4, ... and a forked
    helper forms blocks 1, 3, 5, ..., each process its own blocks' text,
    while the other visits.  An 8-byte token passes round a pipe ring: the
    offset where the next block starts, or a failure.  A process visits a
    block only once it holds the token, so the blocks are visited in file
    order and the first failure in file order is the one raised; each forms
    at most one block ahead of the token, so a stage stopped by a signal
    stops its helper within one block.  With one CPU or one block the ring
    is this process alone, and nothing is forked.

    A helper's OSError reaches the stage as its errno; on any other failure
    the stage forms and visits that block again, and so raises the same
    error itself.  On a failure the stage kills the helper, and it always
    reaps it.  The helper leaves only through os._exit, and it ends when
    its pipe from the stage closes.  It is forked, not spawned, so that it
    forms its blocks from the stage's memory with nothing sent; a fork
    copies no thread, and the blocks call no BLAS, whose threads the stage
    may hold.  While the ring runs, the stage keeps to every other CPU that
    it may run on and the helper to the rest, and the stage then gets all
    of them back: left free, the two were measured on one CPU for a whole
    file in about a quarter of the runs, each waking the other there.
    """
    cpus = sorted(os.sched_getaffinity(0))
    workers = min(2, len(cpus), len(blocks))
    ring = [os.pipe() for _ in range(workers)]  # ring[r]: the token's way into rank r
    inbox, outbox = ring[0][0], ring[-1][1]
    helper = os.fork() if workers > 1 else None
    if helper == 0:
        try:
            _pin(cpus[1::2])
            os.close(inbox)
            os.close(outbox)
            _help(blocks[1::2], visit, ring[1][0], ring[0][1])
        finally:
            os._exit(0)
    if helper:
        os.close(ring[1][0])
        os.close(ring[0][1])
        _pin(cpus[0::2])
    try:
        for k in range(0, len(blocks), workers):
            text = blocks[k]()
            if k:
                offset = _stage_take(inbox, blocks[k - 1], visit, offset)
            offset = visit(text, offset)
            if k + 1 < len(blocks):
                _give(outbox, offset)
        if (len(blocks) - 1) % workers:  # the helper's block was the last
            offset = _stage_take(inbox, blocks[-1], visit, offset)
        return offset
    except BaseException:
        if helper:
            os.kill(helper, signal.SIGKILL)
        raise
    finally:
        for fd in {inbox, outbox}:
            os.close(fd)
        if helper:
            os.waitpid(helper, 0)
            _pin(cpus)


def _pin(cpus) -> None:
    """Keep this process to the given CPUs.  It only places the process, so
    a refusal (a CPU gone offline) is ignored."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _help(blocks, visit, inbox: int, outbox: int) -> None:
    """The helper's turns: form a block's text, wait for the token, visit
    the block at the offset it holds, and pass on the offset after it, or
    a failure, which ends the helper; so does a closed pipe."""
    for block in blocks:
        try:
            text = block()
        except Exception:
            text = None  # the stage meets the error again when it forms the block
        token = _take(inbox)
        if token is None:
            return
        try:
            token = _REDO if text is None else visit(text, token)
        except OSError as exc:
            token = -1 - exc.errno if exc.errno else _REDO
        except Exception:
            token = _REDO
        _give(outbox, token)
        if token < 0:
            return


def _stage_take(inbox: int, block, visit, sent: int) -> int:
    """The token that the helper passes back after its block, which the
    stage had passed the offset sent; raises the helper's failure."""
    token = _take(inbox)
    if token is None:
        raise LagwebError("the CSV helper process ended before its block was done")
    if token == _REDO:
        visit(block(), sent)  # raises the helper's error here
        raise LagwebError("the CSV helper process failed on a block that the stage "
                          "forms and visits without fault")
    if token < 0:
        errno = -1 - token
        raise OSError(errno, os.strerror(errno))
    return token


def _take(fd: int):
    """The next token from the pipe fd, or None once it is closed; one write
    of 8 bytes reaches the reader whole."""
    data = os.read(fd, 8)
    return int.from_bytes(data, "little", signed=True) if data else None


def _give(fd: int, token: int) -> None:
    os.write(fd, token.to_bytes(8, "little", signed=True))


def _newlines(fh, start: int, stop: int) -> int:
    """The newlines in bytes start .. stop of the open file fh, which holds
    them all, read one piece of at most 1 MiB at a time."""
    fh.seek(start)
    return sum(fh.read(min(stop - at, 1 << 20)).count(b"\n") for at in range(start, stop, 1 << 20))
