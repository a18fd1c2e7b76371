"""One truncation rule on every design: a receive too small for its
message consumes that message, then fails with ``TruncateError``.

The sender's request completes, or fails with ``MpiError`` where the
design refuses the transfer (the CH3 rendezvous answers with a NAK);
neither side may hang.  Consumption is checked by a follow-up message
on the same tag, which the next receive must get."""

import numpy as np
import pytest

from repro.config import KB
from repro.mpi.runner import DESIGNS, run_mpi
from repro.mpich2.adi3 import MpiError, TruncateError

FOLLOW = np.arange(8, dtype=np.uint8)


def _send_then_follow(mpi, size):
    """Send ``size`` bytes and then FOLLOW, both on tag 1."""
    req = yield from mpi.Isend(mpi.alloc(size), 1, 1)
    try:
        yield from mpi.Wait(req)
        outcome = "sent"
    except MpiError:
        outcome = "MpiError"
    yield from mpi.Send(mpi.array(FOLLOW), 1, 1)
    return outcome


def _recv_follow(mpi):
    buf = mpi.alloc(16)
    status = yield from mpi.Recv(buf, 0, 1)
    return status.count, bytes(buf.read()[:status.count])


def _truncated(mpi, req):
    try:
        yield from mpi.Wait(req)
    except TruncateError:
        return True
    return False


@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("size", [4 * KB, 40 * KB])
def test_posted_receive_too_small(design, size):
    def prog(mpi):
        if mpi.rank == 0:
            return (yield from _send_then_follow(mpi, size))
        req = yield from mpi.Irecv(mpi.alloc(KB), 0, 1)
        truncated = yield from _truncated(mpi, req)
        follow = yield from _recv_follow(mpi)
        return truncated, follow

    (sent, (truncated, follow)), _ = run_mpi(2, prog, design=design)
    assert truncated
    assert sent in ("sent", "MpiError")
    assert follow == (8, FOLLOW.tobytes())


@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("size", [4 * KB, 40 * KB])
def test_unexpected_message_too_large(design, size):
    """Probe first, so the message is queued unexpected when the short
    receive finds it."""
    def prog(mpi):
        if mpi.rank == 0:
            return (yield from _send_then_follow(mpi, size))
        probed = yield from mpi.Probe(0, 1)
        req = yield from mpi.Irecv(mpi.alloc(KB), 0, 1)
        truncated = yield from _truncated(mpi, req)
        follow = yield from _recv_follow(mpi)
        return probed.count, truncated, follow

    (sent, (probed, truncated, follow)), _ = run_mpi(2, prog,
                                                     design=design)
    assert probed == size and truncated
    assert sent in ("sent", "MpiError")
    assert follow == (8, FOLLOW.tobytes())


@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("fill", [0, 48])
def test_truncated_receiver_that_stops_releases_the_sender(design, fill):
    """The receiver fails its receive and does nothing more: the
    sender's Wait must still end.  With ``fill`` 4 KB eager sends
    queued first, the receiver's ring to the sender is full when the
    receive fails, so its refusal waits behind them: the failed Wait
    must not return before the refusal has left."""
    def prog(mpi):
        if mpi.rank == 0:
            req = yield from mpi.Isend(mpi.alloc(40 * KB), 1, 1)
            if fill:
                # stay out of progress while rank 1 fills its ring to us
                yield from mpi.compute(1e-3)
            try:
                yield from mpi.Wait(req)
            except MpiError:
                return "MpiError"
            return "sent"
        for _ in range(fill):
            yield from mpi.Isend(mpi.alloc(4 * KB), 0, 2)
        req = yield from mpi.Irecv(mpi.alloc(KB), 0, 1)
        return (yield from _truncated(mpi, req))

    (sent, truncated), _ = run_mpi(2, prog, design=design)
    assert truncated
    assert sent in ("sent", "MpiError")

