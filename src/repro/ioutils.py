"""Small filesystem helpers shared across subsystems."""

from __future__ import annotations

import errno
import os
import tempfile
import threading
from typing import Callable, Optional

try:
    import fcntl
except ImportError:          # non-POSIX: appends and rotation run unserialised
    fcntl = None

__all__ = ["write_atomic", "append_line", "rotate_if_needed",
           "set_write_fault_hook", "fresh_lock_after_fork"]

#: Held by appends from rotation to close and across forks: a child forked
#: mid-append would inherit the handle, and its flock, for life.
_APPEND_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_APPEND_LOCK.acquire,
                        after_in_parent=_APPEND_LOCK.release,
                        after_in_child=_APPEND_LOCK.release)


def fresh_lock_after_fork(owner: object, name: str = "_lock") -> None:
    """Give ``owner.<name>`` a fresh lock in every forked child.

    A pool worker forked (by the pool's maintenance thread, say) while
    another thread holds the lock would inherit it held, and hang on first
    use.  The child sees the guarded state as the holder left it, possibly
    mid-update; the telemetry and fault-plan tables this guards tolerate
    that.
    """
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(
            after_in_child=lambda: setattr(owner, name, threading.Lock()))


#: Fault-injection hook consulted before every write: given the target path,
#: returns ``None`` (no fault), ``"enospc"`` (raise before writing) or
#: ``"torn"`` (append half the payload, then raise).  Registered by
#: :mod:`repro.faults` — a hook rather than an import, because this module
#: must stay importable before the obs stack that ``faults`` pulls in.
_WRITE_FAULT_HOOK: Optional[Callable[[str], Optional[str]]] = None


def set_write_fault_hook(hook: Optional[Callable[[str], Optional[str]]]
                         ) -> None:
    global _WRITE_FAULT_HOOK
    _WRITE_FAULT_HOOK = hook


def _write_fault(path: str) -> Optional[str]:
    return _WRITE_FAULT_HOOK(path) if _WRITE_FAULT_HOOK is not None else None


def _injected_enospc(path: str, torn: bool) -> OSError:
    detail = "injected torn write" if torn else "injected ENOSPC"
    return OSError(errno.ENOSPC, detail, path)


def rotate_if_needed(path: str, max_bytes: int) -> bool:
    """Rotate ``path`` to ``path + ".1"`` once it reaches ``max_bytes``.

    Cross-process safe: concurrent appenders (two sweep CLIs sharing one
    span log, a CLI next to a server) race to rotate the same file, and an
    unserialised double rotation would rename a *fresh, near-empty* log
    over the just-written ``.1``, silently discarding its records.  The
    rename is therefore serialised through an ``flock`` on a sidecar
    ``path + ".lock"`` file, and the size is re-checked under the lock —
    the loser of the race sees the freshly rotated (small) file and does
    nothing.  Returns whether *this* call performed the rotation.
    """
    if max_bytes <= 0:
        return False
    try:
        if os.path.getsize(path) < max_bytes:
            return False
    except OSError:
        return False
    try:
        lock = open(path + ".lock", "ab")
    except OSError:
        lock = None
    try:
        if lock is not None and fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if os.path.getsize(path) < max_bytes:
                return False                 # lost the race: already rotated
            os.replace(path, path + ".1")
            return True
        except OSError:
            return False
    finally:
        if lock is not None:
            lock.close()                     # closing releases the flock


def append_line(path: str, text: str,
                rotate_at: int = 0) -> None:
    """Append ``text`` (one or more full lines) in a single ``O_APPEND`` write.

    The whole payload goes down in one unbuffered write, so concurrent
    appenders — two processes sharing a span log, a sweep CLI next to a
    running server — interleave only at line boundaries, never inside one
    (the same discipline as the sweep result store's ``append_jsonl``).

    A non-zero ``rotate_at`` size-caps the file via
    :func:`rotate_if_needed` before the write; a writer racing the
    rotation lands its line in either the old or the new file, always
    whole.

    An existing *torn tail* — a previous append died (ENOSPC, kill)
    after writing only part of its line — is healed with a newline
    before this payload goes down.  The garbage stays confined to its
    own (skippable) line instead of silently corrupting the first line
    of this append, which would lose a record that *did* commit.  Probe
    and write happen under an ``flock`` on the open file (and, within
    this process, under ``_APPEND_LOCK``), so the probe never reads
    another appender's half-copied line and "heals" it with a spurious
    blank line.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = text.encode("utf-8")
    fault = _write_fault(path)
    if fault == "enospc":
        raise _injected_enospc(path, torn=False)
    with _APPEND_LOCK:
        if rotate_at:
            rotate_if_needed(path, rotate_at)
        # "a+b": readable for the torn-tail probe; writes still land at EOF
        # (O_APPEND) no matter where the probe left the offset.
        with open(path, "a+b", buffering=0) as handle:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_EX)   # released by close()
            try:
                if handle.seek(0, os.SEEK_END) > 0:
                    handle.seek(-1, os.SEEK_END)
                    torn_tail = handle.read(1) != b"\n"
                else:
                    torn_tail = False
            except OSError:
                torn_tail = False
            if torn_tail:
                handle.write(b"\n")
            if fault == "torn":
                # Half the payload lands, then the disk "fills": the
                # classic torn JSONL tail readers must survive.
                handle.write(payload[:max(1, len(payload) // 2)])
                raise _injected_enospc(path, torn=True)
            handle.write(payload)


def write_atomic(path: str, text: str, suffix: str = "") -> None:
    """Write ``text`` to ``path`` without ever exposing a partial file.

    A killed process mid-write must not leave a truncated file behind: the
    content goes to a temporary file in the same directory first and is
    moved into place with :func:`os.replace` (atomic on POSIX).
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                    suffix=suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if _write_fault(path) is not None:
                # Both injected variants surface as ENOSPC here: the tmp
                # file is discarded below, so a torn write can't exist.
                raise _injected_enospc(path, torn=False)
            handle.write(text)
        # mkstemp creates 0600 files; restore umask-governed permissions so
        # e.g. a shared sweep cache stays readable across users.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:          # repro: noqa[RC005] — best-effort tmp
            pass                 # cleanup; this module must stay importable
        raise                    # before the obs stack, so no logger here
