"""Two calls of one function at once: one in the caller, one in a forked worker.

``spectral_data`` solves its two symmetry blocks this way, and full-chain
transfer runs its two trajectories.  The worker is forked whatever the default
start method, so only its result is pickled, it starts in ~10 ms instead of
an interpreter start (~0.5 s), and scripts need no ``__main__`` guard.  Fork
is safe since the caller runs no Python thread: one ``Process`` and a one-way
``Pipe``, read once.  Imported only by calls that fork.
"""

from __future__ import annotations

import multiprocessing
import traceback

from .errors import SpinChainError


class _RemoteTraceback(Exception):
    """The worker's formatted traceback, chained as the cause of the error it raised."""


def _serve(writer, fn, args) -> None:
    try:
        message = True, fn(*args), None
    except Exception as exc:  # sent to the caller, which raises it
        message = False, exc, traceback.format_exc()
    writer.send(message)


def call_both(fn, own_args: tuple, worker_args: tuple):
    """(fn(*own_args), fn(*worker_args)), the second run in a forked worker meanwhile.

    The caller reads the worker's result only after its own call returns.  An
    error raised in the worker reaches the caller with its own type and
    attributes, its traceback chained as the cause; a worker that ends without a
    result, killed or out of memory, raises SpinChainError; an error in the
    caller, its own call's or an interrupt, sends the worker SIGTERM at once
    rather than waiting for it.  No process outlives the call.
    """
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    worker = context.Process(target=_serve, args=(writer, fn, worker_args))
    worker.start()
    writer.close()  # the worker holds the only write end: its exit is the reader's EOF
    try:
        own = fn(*own_args)
        try:
            ok, result, remote_traceback = reader.recv()
        except EOFError as exc:
            raise SpinChainError("the worker process ended without a result") from exc
    except BaseException:
        worker.terminate()
        raise
    finally:
        worker.join()
        reader.close()
    if not ok:
        raise result from _RemoteTraceback(remote_traceback)
    return own, result
