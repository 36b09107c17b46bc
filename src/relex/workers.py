"""One computation's parts on every CPU the process may use.

``run_parts`` runs part 0 in this process and forks one child for each
other part.  A child sends back the float64 arrays its part returns
through a pipe, as raw bytes rather than pickle, or the exception it
raised, as its type, message and integer attributes.  It ends with
os._exit, so it never returns into its caller's ``finally`` blocks or
atexit handlers, and SIGINT and SIGTERM kill it outright.  No child
outlives the call.  ``grid_parts`` splits a grid of tasks into such
parts, and ``merge_grid`` joins their arrays back.

Where os.fork or os.sched_getaffinity is missing, ``cpu_count`` is 1,
and callers run in process.
"""

from __future__ import annotations

import os
import signal
import sys
from functools import partial
from itertools import groupby

import numpy as np


def cpu_count() -> int:
    """The CPUs in this process's affinity mask; 1 where the platform
    cannot fork or report the mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _ranges(count: int, parts: int) -> list[range]:
    """0 .. count - 1 in ``parts`` contiguous ranges; the first
    count % parts of them hold one more."""
    size, extra = divmod(count, parts)
    starts = [i * size + min(i, extra) for i in range(parts + 1)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def grid_parts(rows: int, cols: int, p: int) -> list[tuple[range, range]]:
    """A rows x cols grid in p <= rows cols parts, in row-major order,
    each a range of rows and a range of columns: by rows when rows >= p,
    else each row's columns in p // rows ranges, one more for the first
    p % rows rows."""
    if rows >= p:
        return [(part, range(cols)) for part in _ranges(rows, p)]
    return [(range(row, row + 1), part) for row, share in enumerate(_ranges(p, rows))
            for part in _ranges(cols, len(share))]


def merge_grid(parts: list[tuple[range, range]], results: list) -> list[np.ndarray]:
    """The arrays of ``grid_parts``' parts joined into arrays over the
    whole grid: each part's arrays have its rows and columns as their
    first two axes."""
    # a row's parts hold its columns in turn, and the rows' parts follow in order
    by_rows = [[arrays for _, arrays in group]
               for _, group in groupby(zip(parts, results), key=lambda pr: pr[0][0])]
    return [np.concatenate([np.concatenate([arrays[j] for arrays in row], axis=1)
                            for row in by_rows]) for j in range(len(results[0]))]


def _describe(exc: BaseException) -> bytes:
    """An exception as its type's module and qualified name, its integer
    attributes and its message, one per line."""
    kind = type(exc)
    ints = " ".join(f"{name}={value}" for name, value in vars(exc).items()
                    if type(value) is int)
    return "\n".join((kind.__module__, kind.__qualname__, ints, str(exc))).encode(
        errors="replace")


def _rebuild(body: bytes) -> BaseException:
    """The exception ``_describe`` wrote, with its type where that type
    takes a message, else a RuntimeError that names the type."""
    module, qualname, ints, message = body.decode().split("\n", 3)
    kind = sys.modules.get(module)
    for name in qualname.split("."):
        kind = getattr(kind, name, None)
    if isinstance(kind, type) and issubclass(kind, BaseException):
        try:
            exc = kind(message)
        except TypeError:  # a type whose constructor takes other arguments
            pass
        else:
            for pair in ints.split():
                name, value = pair.split("=")
                setattr(exc, name, int(value))
            return exc
    return RuntimeError(f"{module}.{qualname}: {message}")


def _run_child(run, write: int, reads: list[int], mask) -> None:
    """The forked child's whole life: close the pipes' read ends
    ``reads``, write what ``run()`` returns, or the exception it raised,
    to ``write``, then end with os._exit."""
    status = 1
    try:
        for fd in reads:
            os.close(fd)
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            data = b"a" + b"".join(np.asarray(a, dtype=np.float64).tobytes()
                                   for a in run())
        except BaseException as exc:  # sent to the parent, which raises it
            data = b"e" + _describe(exc)
        view = memoryview(data)
        while view:
            view = view[os.write(write, view):]
        status = 0
    finally:
        os._exit(status)


def _fork(run, children: list) -> None:
    """Fork a child that runs ``run()`` and sends back what it returns,
    and append its pid and the read end of its pipe to ``children``."""
    # every signal waits until the child is inside the try that ends in os._exit
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            _run_child(run, write, [read, *(fd for _, fd in children)], mask)
        os.close(write)
        children.append((pid, read))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _receive(read: int, shapes: list[tuple]):
    """A child's arrays, shaped ``shapes``, read to the end of its pipe,
    or the exception it reported, which a leading b"a" or b"e" tells
    apart; a result cut short raises RuntimeError."""
    chunks = []
    while chunk := os.read(read, 1 << 16):
        chunks.append(chunk)
    data = b"".join(chunks)
    kind, body = data[:1], data[1:]
    sizes = [int(np.prod(shape)) for shape in shapes]
    if kind == b"a" and len(body) == 8 * sum(sizes):
        flat = np.frombuffer(body, dtype=np.float64)
        return [a.reshape(shape) for a, shape in zip(np.split(flat, np.cumsum(sizes)), shapes)]
    if kind == b"e":
        return _rebuild(body)
    raise RuntimeError("a worker process ended without sending its result")


def run_parts(run, parts: list, shapes, expected: type[BaseException]) -> list:
    """``run(part)`` for each of ``parts``, each a sequence of float64 arrays
    shaped ``shapes(part)``: part 0 in this process, and each other part
    in a forked child.  Returns each part's arrays, or the ``expected``
    exception it raised, once every part has ended.  Any other
    exception, raised here or in a child, SIGKILLs the children and is
    raised; every child is reaped before the call ends."""
    children = []
    try:
        for part in parts[1:]:
            _fork(partial(run, part), children)
        try:
            results = [run(parts[0])]
        except expected as exc:
            results = [exc]
        for part, (_, read) in zip(parts[1:], children):
            result = _receive(read, shapes(part))
            if isinstance(result, BaseException) and not isinstance(result, expected):
                raise result
            results.append(result)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.waitpid(pid, 0)
            os.close(read)
    return results
