"""Writing the results bundle's files.

The bundle's file rule: each distinct trace is written once, and the
other trace files with the same bytes, its twins, are hard links to it,
because a new file costs the kernel far more than a hard link. A file
of the bundle that already exists and has other names too (a copy made
by an earlier emit, or a snapshot taken with ``cp -al``) is replaced,
not written through, so the other names keep their bytes. Where the
file system refuses a link, each file is written in full instead.

:func:`write_file` is the one function that fills a file of the bundle,
whichever thread calls it, and :func:`link_file` gives a file a second
name. :class:`BundleWriter` runs them on one background thread, so that
the kernel's work on the files overlaps the formatting of their bytes on
the calling thread.
"""

import collections
import contextlib
import io
import os
import queue
import threading

#: Files waiting for the writer thread at most. A waiting file holds its
#: bytes, so this bounds the memory they take; one more file may be in
#: the thread's hands.
QUEUED_FILES = 2

# Bytes go to the file unchanged, also where the OS has a text mode.
_CREATE = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def encode_text(text: str) -> bytes:
    """The bytes ``open(path, "w", newline="")`` writes for ``text``."""
    buffer = io.BytesIO()
    wrapper = io.TextIOWrapper(buffer, newline="")
    wrapper.write(text)
    wrapper.detach()  # flushes into ``buffer`` and leaves it open
    return buffer.getvalue()


def write_file(path, chunks, twins=()) -> None:
    """Create or truncate ``path`` and write the bytes-like ``chunks`` to
    it in order, as ``open(path, "wb")`` would; then give each of
    ``twins`` the same bytes with :func:`link_file`.

    An existing ``path`` with more than one name is unlinked first, so
    that the file's other names keep their bytes."""
    with contextlib.suppress(FileNotFoundError):
        if os.lstat(path).st_nlink > 1:
            os.unlink(path)
    fd = os.open(path, _CREATE | os.O_TRUNC, 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            while view:
                view = view[os.write(fd, view) :]
    finally:
        os.close(fd)
    for twin in twins:
        link_file(twin, path, chunks)


def link_file(path, source, chunks) -> None:
    """Make ``path`` another name of the file ``source``, which holds the
    bytes-like ``chunks``. What ``path`` named before is unlinked. Where
    the file system refuses the link (no hard links, or too many), the
    chunks are written to ``path`` with :func:`write_file` instead."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    try:
        os.link(source, path)
    except OSError:
        write_file(path, chunks)


class BundleWriter:
    """One thread that makes a directory and then writes files, in the
    order they are handed to :meth:`write`. A file's twins are linked to
    it right after it is written, by the module's file rule.

    Creating a file costs the kernel far more than filling it, so while
    no file waits, the thread creates the next of the ``ahead`` files
    empty (a file that already exists keeps its bytes); writing it later
    only fills it. Pass the files that the calling thread will write
    last, in the order it will write them, and not their twins: a link
    costs less than creating a file ahead.

    Used as a context manager: entering starts the thread, leaving stops
    and joins it, so no thread outlives the ``with`` block. The first
    error stops the work: later files are dropped, the next
    :meth:`write` raises the error, and so does leaving the block unless
    the block raised first. An ``OSError`` names the path it failed on.
    A block that ends on an error, the writer's or its own, leaves none
    of the files created ahead that no write filled.
    """

    def __init__(self, directory, ahead=()):
        self._jobs = queue.Queue(maxsize=QUEUED_FILES)
        self._ahead = collections.deque(ahead)
        self._unfilled = set()  # files created ahead and not yet written
        self._error = None
        self._thread = threading.Thread(
            target=self._run, args=(directory,), name="bundle-writer"
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._jobs.put(None)
        self._thread.join()
        if exc is not None or self._error is not None:
            for path in self._unfilled:
                with contextlib.suppress(OSError):
                    os.unlink(path)
        if exc is None and self._error is not None:
            raise self._error

    def write(self, path, chunks, twins=()) -> None:
        """Have the thread write ``chunks`` to ``path`` and then to each
        of ``twins``, as :func:`write_file` does; waits while the queue is
        full. The chunks must not change afterwards."""
        if self._error is not None:
            raise self._error
        self._jobs.put((path, chunks, twins))

    def _run(self, directory) -> None:
        self._do(os.makedirs, directory, exist_ok=True)
        while True:
            try:
                job = self._jobs.get(block=not self._ahead)
            except queue.Empty:
                self._do(self._create, self._ahead.popleft())
                continue
            if job is None:
                return
            path, chunks, twins = job
            self._do(write_file, path, chunks)
            if self._error is None:
                self._unfilled.discard(path)
            # One twin at a time, so that an error names the twin.
            for twin in twins:
                self._do(link_file, twin, path, chunks)
            del job, chunks  # the bytes go now, not when the next file comes

    def _create(self, path) -> None:
        try:
            os.close(os.open(path, _CREATE | os.O_EXCL, 0o666))
        except FileExistsError:
            return
        self._unfilled.add(path)

    def _do(self, action, path, *args, **kwargs) -> None:
        if self._error is not None:
            return  # keep taking files, so that a waiting write returns
        try:
            action(path, *args, **kwargs)
        except Exception as exc:  # raised again on the calling thread
            if isinstance(exc, OSError) and exc.filename is None:
                exc.filename = os.fspath(path)
            self._error = exc
