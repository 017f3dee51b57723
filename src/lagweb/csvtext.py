"""CSV text: each float as CPython's '%.17g' makes it, built by numpy; the
one block budget of every streamed pass (``block_rows``); and the writer and
byte check of a file.  ``geoflow`` and ``webbing`` make the tables, and hand
a file's rows over as blocks, each a callable that forms the block's bytes.
The writer and the check share the blocks between this process and, with
two CPUs and more than one block, one forked helper that forms, writes or
checks every other block in lockstep with it (``_ring``); both keep the heap
pages that a block frees for the next (``_keep_heap``).  A failed write
leaves no partial file.

A value takes CSV_CELL = 25 bytes: a 24-byte cell, then its separator, a
comma or, after a row's last value, the newline.  The cell is an 8-byte head
(the sign, the "0." and zeros of a value below 1, the first digit, and the
point of a value from 1 to 10, set to its right end so that its NULs come
first), then the other 16 digits as four 4-digit words from one table.  The
table's stripped twin, which drops trailing zeros, serves the last word with
a nonzero digit and the blank words after it.  A value from 10 up gets its
point by byte shifts (``_point``): its integer digits move one byte back,
the first into the head's point byte, and keep their zeros; the point
follows them if a nonzero digit does.  Exact zeros are cells too; values
that '%.17g' prints with an exponent, and non-finite ones, take CPython's
own text.  Dropped characters are NUL, and one translate per ``csv_rows``
call removes them.
"""

import contextlib
import ctypes
import functools
import itertools
import os
import signal

import numpy as np

from .errors import LagwebError

CSV_CELL = 25   # bytes of one value: its 24-byte cell, then its separator
CSV_BLOCK = 1 << 14
_SPLIT = 134217729.0    # 2**27 + 1, Dekker's splitter
_POW10 = np.array([10.0 ** k for k in range(23)])   # exact in binary64
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# a value's CSV_CELL bytes: its head, digits 2 .. 9, digits 10 .. 17, its separator
_CELL = np.dtype({"names": ["head", "low", "high", "sep"], "formats": ["<u8", "<u8", "<u8", "u1"],
                  "offsets": [0, 8, 16, 24], "itemsize": CSV_CELL})
_ZEROS = np.uint64(0x3030303030303030)   # "0" in each byte
_NO_POINT = np.uint64(2 ** 56 - 1)         # a head without its last byte, the point


def block_rows(width: int, least: int = 1) -> int:
    """Rows per streamed block, for rows of width values: about CSV_BLOCK
    values, and at least ``least`` rows.  Every streamed pass, the text's
    and webbing's, is sized by it, so CSV_BLOCK bounds their temporaries."""
    return max(least, CSV_BLOCK // width)


@functools.cache
def _tables():
    """Lookup tables of cell words, as (head, words, masks).

    head[e * 20 + negative * 10 + d0]: the 8-byte head of a value with
    decimal exponent e in -4 .. 15 (a negative e indexes from the end): its
    sign, the "0." and the -e - 1 zeros before the digits of a value below
    1, its first digit d0, and for e = 0 the point after it, NUL-padded on
    the left.  A run of NULs costs translate a branch miss where it ends,
    so they make one run.  From e = 1 up the last byte is left for _point.
    words[stripped * 10000 + dddd]: four digits, in the low half of a word;
    the stripped twin drops their trailing zeros, for a word with no
    nonzero digit after it.
    masks[:, e]: for e in 1 .. 15, the bytes of the low and the high digit
    word (digits 2 .. 9, 10 .. 17) that take a digit moved one byte back,
    the point, and a fraction digit left in place; as (move_low, move_high,
    dot_low, dot_high, keep_low, keep_high), the dots holding "." bytes.
    """
    digits = np.arange(10000)[:, np.newaxis] // np.array([1000, 100, 10, 1]) % 10
    chars = (48 + digits).astype(np.uint8)
    later = np.logical_or.accumulate((digits != 0)[:, ::-1], axis=1)[:, ::-1]
    words = np.zeros((2, 10000, 8), np.uint8)
    words[0, :, :4], words[1, :, :4] = chars, np.where(later, chars, 0)
    head = np.zeros((20, 2, 10, 8), np.uint8)
    for e, negative, d0 in itertools.product(range(-4, 16), (0, 1), range(10)):
        text = b"-" * negative + b"0." + b"0" * (-e - 1) if e < 0 else b"-" * negative
        text += b"%d." % d0 if e == 0 else b"%d" % d0
        end = 7 if e > 0 else 8
        head[e, negative, d0, end - len(text):end] = np.frombuffer(text, np.uint8)
    byte = np.arange(16)[:, np.newaxis]     # byte b of the two digit words holds digit b + 2
    e = np.arange(16)
    bits = np.uint64(0xFF) << (8 * (byte % 8)).astype(np.uint64)  # byte b within its word
    masks = np.concatenate([np.bitwise_or.reduce(np.where(at, bits, np.uint64(0)).reshape(2, 8, 16),
                                                 axis=1)
                            for at in (byte + 1 < e, byte + 1 == e, byte >= e)])
    masks[2:4] &= np.uint64(ord(".") * 0x0101010101010101)
    tables = (head.view(np.uint64).ravel(), words.view(np.uint64).ravel(), masks)
    for table in tables:
        table.setflags(write=False)  # one copy, shared by every call
    return tables


def _digits17(a, e):
    """round(a * 10**(16 - e)) exactly, ties to even, as int64: the product is
    hi + lo exactly (Dekker), and hi is an even integer from 2**53 up.  The
    steps go in place, in the order of
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl."""
    ph, pl = _POW10_HI[16 - e], _POW10_LO[16 - e]
    hi = a * (ph + pl)
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    lo = ah * ph
    lo -= hi
    ah *= pl
    lo += ah
    ph *= al
    lo += ph
    al *= pl
    lo += al
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return d


def _cells(x, cells) -> None:
    """Write the float64 values x into the head, low and high words of their
    _CELL records cells, an array of x's shape; the separators are left."""
    head, words, masks = _tables()
    x = x.ravel()
    a = np.abs(x)
    plain = (a >= 1e-4) & (a < 1e16)    # '%.17g' prints these without an exponent
    a[~plain] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    d = _digits17(a, e)
    # log10 can miss near a power of ten, and rounding can carry into one
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        e[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off] = _digits17(a[off], e[off])
    del a
    # digits d0 | g0 g1 g2 g3 (four each), by floor division (not divmod, slower)
    d0 = d // 10 ** 16
    d -= d0 * 10 ** 16
    g1 = d // 10 ** 8
    d -= g1 * 10 ** 8
    g0 = g1 // 10 ** 4
    g1 -= g0 * 10 ** 4
    g2 = d // 10 ** 4
    d -= g2 * 10 ** 4
    high = words[d + 10 ** 4]   # the last word, stripped of its trailing zeros
    high <<= np.uint64(32)
    high |= words[g2]
    low = words[g1]
    low <<= np.uint64(32)
    low |= words[g0]
    d0 += e * 20
    d0 += np.signbit(x) * 10
    first = head[d0]
    blank = np.flatnonzero(d == 0)  # the last word blank: the ones before it may end in zeros
    if blank.size:
        _strip(first, low, high, blank, [g[blank] for g in (g0, g1, g2)], e[blank])
    del d, d0, g0, g1, g2
    inside = np.flatnonzero(e > 0)  # 10 and up: the point goes among the digit words
    if inside.size:
        e = e[inside]
        _point(first, low, high, inside, [row[e] for row in masks])

    slow = np.flatnonzero(~plain)   # 0, tiny, huge and non-finite values
    if slow.size:
        values = x[slow]
        zero = values == 0.0            # _strip blanked their words: the head is 0, signed
        first[slow[zero]] = head[np.signbit(values[zero]) * 10] & _NO_POINT
        slow, values = slow[~zero], values[~zero]
        text = b"".join((b"%.17g" % v).ljust(CSV_CELL - 1, b"\0") for v in values.tolist())
        first[slow], low[slow], high[slow] = np.frombuffer(text, np.uint64).reshape(-1, 3).T
    cells["head"] = first.reshape(cells.shape)
    cells["low"] = low.reshape(cells.shape)
    cells["high"] = high.reshape(cells.shape)


def _strip(head, low, high, at, groups, e) -> None:
    """Strip the trailing zeros of the values at, whose last digit word is
    blank, from their words g0, g1, g2 (groups) too: the last of these with
    a nonzero digit takes its stripped twin, and the later ones are blank.
    A value from 1 to 10 (exponent e = 0) with no nonzero digit after its
    first loses its point."""
    words = _tables()[1]
    later = np.full(len(at), 10 ** 4)   # the stripped twin while every later word is 0
    word = []
    for g in groups[::-1]:
        word.append(words[later + g])
        later[g != 0] = 0
    high[at] = word[0]
    low[at] = (word[1] << np.uint64(32)) | word[2]
    head[at[(later != 0) & (e == 0)]] &= _NO_POINT


def _point(head, low, high, at, masks) -> None:
    """Put the point after digit e + 1 of the values at, whose exponents e in
    1 .. 15 picked the masks: digits 2 .. e + 1 move one byte back, the first
    into the head's point byte, with any stripped zero among them restored,
    and the point follows them if a nonzero digit does."""
    move_low, move_high, dot_low, dot_high, keep_low, keep_high = masks
    lo, hi = low[at], high[at]
    keep_low &= lo
    keep_high &= hi
    fraction = (keep_low | keep_high) != 0
    moved = lo >> np.uint64(8)
    moved |= hi << np.uint64(56)
    moved |= _ZEROS
    moved &= move_low
    moved |= keep_low
    moved |= dot_low * fraction
    low[at] = moved
    hi >>= np.uint64(8)
    hi |= _ZEROS
    hi &= move_high
    hi |= keep_high
    hi |= dot_high * fraction
    high[at] = hi
    lo |= _ZEROS
    lo <<= np.uint64(56)
    head[at] |= lo


def csv_rows(table, prefix=None) -> bytearray:
    """Each row of the float64 (m, k) table as its values in '%.17g',
    comma separated, and a newline: exactly CPython's text, -0 and non-finite
    values included.  prefix, an (m, w) uint8 array, puts its row of text
    (NUL bytes dropped) before each table row.  The cells are formed a
    block of rows at a time, and one translate drops the NUL bytes."""
    width = table.shape[1]
    lead = 0 if prefix is None else prefix.shape[1]
    shape = len(table), lead + width * CSV_CELL
    text = bytearray(shape[0] * shape[1])
    line = np.frombuffer(text, np.uint8).reshape(shape)
    if prefix is not None:
        line[:, :lead] = prefix
    cells = line[:, lead:].view(_CELL)
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")    # the separator of each row's last value
    rows = block_rows(width)
    for start in range(0, len(table), rows):
        _cells(table[start:start + rows], cells[start:start + rows])
    return text.translate(None, b"\0")


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
    _keep_heap()
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


@functools.cache
def _keep_heap() -> None:
    """Have glibc's malloc keep the heap pages that a block's temporaries
    free, for the next block: with its default, adaptive thresholds it gave
    them back to the kernel after most blocks and faulted them in again,
    100 to 350 page faults per block of 16K values.  The helper is forked
    after this, so both ring processes keep the setting.  A C library with
    no mallopt is left as it is."""
    with contextlib.suppress(OSError, AttributeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD: blocks below 4 MiB come from the heap
        mallopt(-1, 32 << 20)   # M_TRIM_THRESHOLD: up to 32 MiB of free heap is kept


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
