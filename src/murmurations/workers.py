"""Jobs in forked worker processes that write their results in place into
memory shared with the parent: the package's one fork implementation, used
by the elliptic kernel and the class-number sieve."""

from __future__ import annotations

import os
import signal

__all__ = ["usable_cpus", "run_forked"]


def usable_cpus() -> int:
    """The CPUs this process may run on, and 1 where the platform cannot
    fork (macOS has no sched_getaffinity, Windows neither)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def run_forked(jobs) -> None:
    """Run jobs[0] here and each other job in a child forked for it.

    A job is a callable of no arguments.  Each job past the first writes its
    result into its own region of memory shared with this process (an
    anonymous ``mmap``, MAP_SHARED on Unix), which is read or overwritten
    here only once its child is reaped.  A child shares every table with
    this process, copy on write, and needs nothing sent to it.  It should
    call only elementwise ufuncs, never the BLAS pool whose threads Python
    3.12 and later warn of when forking (a DeprecationWarning, left to the
    caller's filters), and it ends with os._exit, exit status 0 once its
    job has returned, without returning into the caller's stack or flushing
    Python's stdio buffers.  A job whose child exits with a non-zero status
    or dies by a signal runs again here, so it must give the same result on
    a region that a failed run left part written, and a real error comes up
    in this process with its own type.  Every child is reaped before the
    call returns; on any exception here, KeyboardInterrupt included, the
    children left are killed and reaped first.
    """
    children = []  # the pids not yet reaped
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        # the children start with every signal blocked, so that no handler
        # (SIGINT's KeyboardInterrupt) raises into the caller's stack there;
        # here a signal waits until every child is forked and recorded
        signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        for job in jobs[1:]:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    job()
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        jobs[0]()
        for pid, job in zip(list(children), jobs[1:]):
            # wait for the exit with signals open, then reap and forget the
            # pid with them blocked, so that an interrupt finds every child
            # it has to kill and reap and none reaped already
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            status = os.waitpid(pid, 0)[1]
            children.remove(pid)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if status:
                job()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
