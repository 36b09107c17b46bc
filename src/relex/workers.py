"""One computation's parts on every CPU the process may use.

``run_parts`` runs part 0 in this process and forks one child for each
other part.  Part i runs on CPU i (mod their count) of the sorted
affinity mask alone, since the kernel may keep a fresh child on its
parent's CPU for the whole of a short part.  A child pickles what its
part returns, or the exception it raised, and writes it to a pipe; an
exception that pickle cannot rebuild is sent as a RuntimeError that
names its type, and a child that ends without sending its whole payload
raises WorkerLost.  A child ends with os._exit, so it never returns into
its caller's ``finally`` blocks or atexit handlers, and SIGINT and
SIGTERM kill it outright.  No child outlives the call, unless this
process is SIGKILLed: its children then run on and exit after their
next pipe write, which lands in the pipe's buffer or fails with no
reader left.  ``grid_parts`` splits a grid of tasks into such parts.
GCN training (``relex.gcn``) and the explainer's stacks
(``relex.explainer``) run this way.

Where os.fork or os.sched_getaffinity is missing, ``cpu_count`` is 1,
and callers run in process.
"""

from __future__ import annotations

import os
import pickle
import signal
from functools import partial


class WorkerLost(RuntimeError):
    """A forked worker ended, or was killed, before it sent its result."""


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


def _pickled(exc: BaseException) -> bytes:
    """``exc`` pickled, or a RuntimeError that names its type where the
    pickle does not load back."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        kind = type(exc)
        return pickle.dumps(RuntimeError(f"{kind.__module__}.{kind.__qualname__}: {exc}"))
    return data


def _on_cpu(cpus: list[int], i: int, run, part):
    """``run(part)``, with this thread's affinity mask first set to CPU i
    (mod their count) of ``cpus`` alone, if there are any."""
    if cpus:
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    return run(part)


def _run_child(run, write: int, reads: list[int], mask) -> None:
    """The forked child's whole life: close the pipes' read ends
    ``reads``, write what ``run()`` returns, or the exception it raised,
    pickled to ``write``, then end with os._exit."""
    status = 1
    try:
        for fd in reads:
            os.close(fd)
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            data = pickle.dumps(run())
        except BaseException as exc:  # sent to the parent, which raises it
            data = _pickled(exc)
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


def _receive(read: int):
    """What a child sent, read to the end of its pipe and unpickled; a
    payload that is empty or cut short raises WorkerLost."""
    chunks = []
    while chunk := os.read(read, 1 << 16):
        chunks.append(chunk)
    try:
        return pickle.loads(b"".join(chunks))
    except (EOFError, pickle.UnpicklingError):
        raise WorkerLost("a worker process ended without sending its result") from None


def run_parts(run, parts: list, expected: type[BaseException] | tuple[()]) -> list:
    """``run(part)`` for each of ``parts``: part 0 in this process, and
    each other part in a forked child.  Returns what each part returned,
    or the ``expected`` exception it raised, once every part has ended;
    ``expected`` may be ``()``, which expects none.  Any other exception,
    raised here or in a child, SIGKILLs the children and is raised; every
    child is reaped before the call ends.  With more than one part, part
    i runs on CPU i (mod their count) of the sorted affinity mask alone:
    each child sets its mask before its part, and this process sets its
    own before part 0 and gets its mask back in a finally."""
    pinned = len(parts) > 1 and hasattr(os, "sched_setaffinity")
    mask = os.sched_getaffinity(0) if pinned else set()
    cpus = sorted(mask)
    children = []
    try:
        for i, part in enumerate(parts[1:], 1):
            _fork(partial(_on_cpu, cpus, i, run, part), children)
        try:
            results = [_on_cpu(cpus, 0, run, parts[0])]
        except expected as exc:
            results = [exc]
        for _, read in children:
            result = _receive(read)
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
        if cpus:
            os.sched_setaffinity(0, mask)
    return results
