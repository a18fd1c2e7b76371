"""MPI collective operations, implemented over point-to-point.

Algorithms are the classic MPICH ones: dissemination barrier, binomial
broadcast/reduce, recursive-doubling allreduce (with the power-of-two
fold-in for odd sizes), ring allgather, pairwise alltoall, and linear
gather/scatter/scan.  All collective traffic runs in the communicator's
*collective context* (``context_id + 1``), so it can never match user
point-to-point receives — the same separation MPICH2 enforces.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Generator, List, Optional, Tuple

import numpy as np

from ..hw.memory import Buffer
from ..mpich2.adi3 import MpiError
from .datatypes import Op, stage

__all__ = [
    "barrier", "bcast", "bcast_obj", "reduce", "allreduce",
    "allreduce_obj", "gather", "gather_obj", "scatter", "allgather",
    "allgather_obj", "alltoall", "scan", "reduce_scatter",
    "gatherv", "scatterv", "allgatherv", "alltoallv",
]

_BARRIER_TAG = 0x7F00
_COLL_TAG = 0x7F10


# ---------------------------------------------------------------------
# low-level helpers on the collective context
# ---------------------------------------------------------------------

def _isend(comm, buf: Buffer, dest: int, tag: int):
    wdest = comm.group[dest]
    req = yield from comm.device.isend([buf], wdest, tag,
                                       comm.context_id + 1)
    return req


def _recv(comm, buf: Buffer, source: int, tag: int):
    wsrc = comm.group[source]
    req = yield from comm.device.irecv([buf], wsrc, tag,
                                       comm.context_id + 1)
    yield from comm.device.wait(req)
    return req


def _sendrecv(comm, sbuf: Buffer, dest: int, rbuf: Buffer, source: int,
              tag: int):
    sreq = yield from _isend(comm, sbuf, dest, tag)
    yield from _recv(comm, rbuf, source, tag)
    yield from comm.device.wait(sreq)
    return None


def _send_obj(comm, obj: Any, dest: int, tag: int):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    buf = stage(comm.device.node.mem, data, "coll.obj")
    req = yield from _isend(comm, buf, dest, tag)
    yield from comm.device.wait(req)
    return None


def _recv_obj(comm, source: int, tag: int, max_size: int = 1 << 22):
    buf = Buffer.alloc(comm.device.node.mem, max_size, "coll.objr")
    try:
        wsrc = comm.group[source]
        req = yield from comm.device.irecv([buf], wsrc, tag,
                                           comm.context_id + 1)
        yield from comm.device.wait(req)
        return pickle.loads(buf.sub(0, req.count).read())
    finally:
        comm.device.node.mem.free(buf.addr)


def _local_copy(dst: Buffer, src: Buffer) -> None:
    """Copy this rank's own block on the host, inside its node's memory
    (a block nobody wrote stays unallocated: see ``repro.hw.memory``)."""
    assert dst.mem is src.mem, "local block copy across nodes"
    assert len(dst) == len(src), "local block copy of unequal lengths"
    dst.mem.copy_within(dst.addr, src.addr, len(src))


def _as_target(comm, data) -> Tuple[Buffer, Optional[np.ndarray]]:
    """Stage ``data`` for in-place collective use; returns the staged
    buffer and, if the caller passed an ndarray, the array, whose staged
    copy :func:`_writeback` or :func:`_release` frees."""
    if isinstance(data, Buffer):
        return data, None
    if isinstance(data, np.ndarray):
        return stage(comm.device.node.mem, data, "coll"), data
    raise MpiError("collective buffers must be Buffer or ndarray")


def _writeback(buf: Buffer, arr: Optional[np.ndarray]) -> None:
    if arr is not None:
        flat = arr.reshape(-1).view(np.uint8)
        flat[:] = buf.view()[:flat.size]
        _release(buf, arr)


def _release(buf: Buffer, arr: Optional[np.ndarray]) -> None:
    """Free ``buf`` if :func:`_as_target` staged it from ``arr`` (a
    send buffer: once the operation's last send from it completed)."""
    if arr is not None:
        buf.mem.free(buf.addr)


def _tmp(comm, nbytes: int) -> Buffer:
    return Buffer.alloc(comm.device.node.mem, max(nbytes, 1), "coll.tmp")


def _free(comm, buf: Buffer) -> None:
    comm.device.node.mem.free(buf.addr)


# ---------------------------------------------------------------------
# barrier — dissemination algorithm
# ---------------------------------------------------------------------

def barrier(comm) -> Generator:
    p, r = comm.size, comm.rank
    if p == 1:
        return None
    token = _tmp(comm, 1)
    inbox = _tmp(comm, 1)
    try:
        k = 0
        step = 1
        while step < p:
            dest = (r + step) % p
            src = (r - step) % p
            yield from _sendrecv(comm, token, dest, inbox, src,
                                 _BARRIER_TAG + k)
            step <<= 1
            k += 1
    finally:
        _free(comm, token)
        _free(comm, inbox)
    return None


# ---------------------------------------------------------------------
# broadcast — binomial tree
# ---------------------------------------------------------------------

def bcast(comm, data, root: int = 0) -> Generator:
    p, r = comm.size, comm.rank
    buf, arr = _as_target(comm, data)
    if p > 1:
        vr = (r - root) % p
        # receive phase: wait for the parent (first set bit of vr)
        mask = 1
        while mask < p and not (vr & mask):
            mask <<= 1
        if vr:
            src = (vr - mask + root) % p
            yield from _recv(comm, buf, src, _COLL_TAG)
        # forward phase: send to children at every lower bit position
        mask >>= 1
        while mask > 0:
            if vr + mask < p:
                dest = (vr + mask + root) % p
                req = yield from _isend(comm, buf, dest, _COLL_TAG)
                yield from comm.device.wait(req)
            mask >>= 1
    _writeback(buf, arr)
    return None


def bcast_obj(comm, obj: Any, root: int = 0) -> Generator:
    """Object-mode broadcast; returns the object on every rank."""
    p, r = comm.size, comm.rank
    if p == 1:
        return obj
    vr = (r - root) % p
    mask = 1
    while mask < p:
        if vr & mask:
            src = (vr - mask + root) % p
            obj = yield from _recv_obj(comm, src, _COLL_TAG + 1)
            break
        mask <<= 1
    mask >>= 1
    # highest zero-bit position reached: forward downwards
    mask = 1
    while mask < p and not (vr & mask):
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < p:
            dest = (vr + mask + root) % p
            yield from _send_obj(comm, obj, dest, _COLL_TAG + 1)
        mask >>= 1
    return obj


# ---------------------------------------------------------------------
# reduce — binomial tree
# ---------------------------------------------------------------------

def reduce(comm, sendbuf, recvbuf, op: Op, root: int = 0,
           dtype=np.float64) -> Generator:
    p, r = comm.size, comm.rank
    dt = np.dtype(dtype)
    sbuf, sarr = _as_target(comm, sendbuf)
    acc = np.array(sbuf.view().view(dt), copy=True)
    work = _tmp(comm, len(sbuf))
    tmp = _tmp(comm, len(sbuf))
    work.view()[:] = sbuf.view()
    _release(sbuf, sarr)
    try:
        vr = (r - root) % p
        mask = 1
        while mask < p:
            if vr & mask:
                dest = (vr - mask + root) % p
                work.view()[:] = acc.view(np.uint8)
                req = yield from _isend(comm, work, dest, _COLL_TAG + 2)
                yield from comm.device.wait(req)
                break
            partner = vr + mask
            if partner < p:
                src = (partner + root) % p
                yield from _recv(comm, tmp, src, _COLL_TAG + 2)
                acc = op.reduce_arrays(acc, tmp.view().view(dt))
            mask <<= 1
        if r == root:
            rbuf, arr = _as_target(comm, recvbuf)
            rbuf.view()[:] = acc.view(np.uint8)
            _writeback(rbuf, arr)
    finally:
        _free(comm, work)
        _free(comm, tmp)
    return None


# ---------------------------------------------------------------------
# allreduce — recursive doubling (power-of-two fold-in)
# ---------------------------------------------------------------------

def allreduce(comm, sendbuf, recvbuf, op: Op, dtype=np.float64
              ) -> Generator:
    p, r = comm.size, comm.rank
    dt = np.dtype(dtype)
    sbuf, sarr = _as_target(comm, sendbuf)
    acc = np.array(sbuf.view().view(dt), copy=True)
    nbytes = len(sbuf)
    _release(sbuf, sarr)
    out = _tmp(comm, nbytes)
    inbox = _tmp(comm, nbytes)
    try:
        pof2 = 1
        while pof2 * 2 <= p:
            pof2 *= 2
        rem = p - pof2
        newrank = -1
        if r < 2 * rem:
            if r % 2 == 0:  # even: send to odd neighbour, drop out
                out.view()[:] = acc.view(np.uint8)
                req = yield from _isend(comm, out, r + 1, _COLL_TAG + 3)
                yield from comm.device.wait(req)
            else:           # odd: absorb the even neighbour
                yield from _recv(comm, inbox, r - 1, _COLL_TAG + 3)
                acc = op.reduce_arrays(acc, inbox.view().view(dt))
                newrank = r // 2
        else:
            newrank = r - rem
        if newrank != -1:
            mask = 1
            while mask < pof2:
                newdst = newrank ^ mask
                dst = newdst * 2 + 1 if newdst < rem else newdst + rem
                out.view()[:] = acc.view(np.uint8)
                yield from _sendrecv(comm, out, dst, inbox, dst,
                                     _COLL_TAG + 4)
                acc = op.reduce_arrays(acc, inbox.view().view(dt))
                mask <<= 1
        if r < 2 * rem:
            if r % 2:      # odd: send result back to the even neighbour
                out.view()[:] = acc.view(np.uint8)
                req = yield from _isend(comm, out, r - 1, _COLL_TAG + 5)
                yield from comm.device.wait(req)
            else:
                yield from _recv(comm, inbox, r + 1, _COLL_TAG + 5)
                acc = inbox.view().view(dt).copy()
        rbuf, arr = _as_target(comm, recvbuf)
        rbuf.view()[:] = acc.view(np.uint8)
        _writeback(rbuf, arr)
    finally:
        _free(comm, out)
        _free(comm, inbox)
    return None


def allreduce_obj(comm, value: Any, op: Op) -> Generator:
    """Object-mode allreduce (gather-to-0 + fold + broadcast)."""
    values = yield from gather_obj(comm, value, root=0)
    result = None
    if comm.rank == 0:
        result = values[0]
        for v in values[1:]:
            result = op(result, v)
    result = yield from bcast_obj(comm, result, root=0)
    return result


# ---------------------------------------------------------------------
# gather / scatter — linear
# ---------------------------------------------------------------------

def gather(comm, sendbuf, recvbuf, root: int = 0) -> Generator:
    """:func:`gatherv` with every rank's count equal to its own send
    buffer's length."""
    sbuf, sarr = _as_target(comm, sendbuf)
    yield from gatherv(comm, sbuf, recvbuf, [len(sbuf)] * comm.size,
                       root=root)
    _release(sbuf, sarr)
    return None


def gather_obj(comm, obj: Any, root: int = 0) -> Generator:
    p, r = comm.size, comm.rank
    if r == root:
        out: List[Any] = [None] * p
        out[r] = obj
        for src in range(p):
            if src == root:
                continue
            out[src] = yield from _recv_obj(comm, src, _COLL_TAG + 7)
        return out
    yield from _send_obj(comm, obj, root, _COLL_TAG + 7)
    return None


def scatter(comm, sendbuf, recvbuf, root: int = 0) -> Generator:
    """:func:`scatterv` with every rank's count equal to its own
    receive buffer's length."""
    rbuf, arr = _as_target(comm, recvbuf)
    yield from scatterv(comm, sendbuf, rbuf, [len(rbuf)] * comm.size,
                        root=root)
    _writeback(rbuf, arr)
    return None


# ---------------------------------------------------------------------
# allgather — ring
# ---------------------------------------------------------------------

def allgather(comm, sendbuf, recvbuf) -> Generator:
    p, r = comm.size, comm.rank
    sbuf, sarr = _as_target(comm, sendbuf)
    n = len(sbuf)
    rbuf, arr = _as_target(comm, recvbuf)
    if len(rbuf) < n * p:
        raise MpiError(f"allgather needs {n * p} bytes, got {len(rbuf)}")
    _local_copy(rbuf.sub(r * n, n), sbuf)
    _release(sbuf, sarr)
    right = (r + 1) % p
    left = (r - 1) % p
    for step in range(p - 1):
        send_block = (r - step) % p
        recv_block = (r - step - 1) % p
        yield from _sendrecv(comm, rbuf.sub(send_block * n, n), right,
                             rbuf.sub(recv_block * n, n), left,
                             _COLL_TAG + 9)
    _writeback(rbuf, arr)
    return None


def allgather_obj(comm, obj: Any) -> Generator:
    values = yield from gather_obj(comm, obj, root=0)
    values = yield from bcast_obj(comm, values, root=0)
    return values


# ---------------------------------------------------------------------
# alltoall — pairwise exchange
# ---------------------------------------------------------------------

def alltoall(comm, sendbuf, recvbuf) -> Generator:
    """:func:`alltoallv` with one equal block per peer."""
    sbuf, sarr = _as_target(comm, sendbuf)
    rbuf, arr = _as_target(comm, recvbuf)
    p = comm.size
    if len(sbuf) % p or len(rbuf) % p:
        raise MpiError("alltoall buffers must divide evenly by size")
    counts = [len(sbuf) // p] * p
    yield from alltoallv(comm, sbuf, rbuf, counts, counts)
    _release(sbuf, sarr)
    _writeback(rbuf, arr)
    return None


# ---------------------------------------------------------------------
# scan — linear prefix
# ---------------------------------------------------------------------

def scan(comm, sendbuf, recvbuf, op: Op, dtype=np.float64) -> Generator:
    p, r = comm.size, comm.rank
    dt = np.dtype(dtype)
    sbuf, sarr = _as_target(comm, sendbuf)
    acc = np.array(sbuf.view().view(dt), copy=True)
    inbox = _tmp(comm, len(sbuf))
    out = _tmp(comm, len(sbuf))
    _release(sbuf, sarr)
    try:
        if r > 0:
            yield from _recv(comm, inbox, r - 1, _COLL_TAG + 11)
            acc = op.reduce_arrays(inbox.view().view(dt), acc)
        if r < p - 1:
            out.view()[:] = acc.view(np.uint8)
            req = yield from _isend(comm, out, r + 1, _COLL_TAG + 11)
            yield from comm.device.wait(req)
        rbuf, arr = _as_target(comm, recvbuf)
        rbuf.view()[:] = acc.view(np.uint8)
        _writeback(rbuf, arr)
    finally:
        _free(comm, inbox)
        _free(comm, out)
    return None


# ---------------------------------------------------------------------
# reduce_scatter — reduce + scatter
# ---------------------------------------------------------------------

def reduce_scatter(comm, sendbuf, recvbuf, op: Op, dtype=np.float64
                   ) -> Generator:
    p = comm.size
    sbuf, sarr = _as_target(comm, sendbuf)
    rbuf, arr = _as_target(comm, recvbuf)
    if len(sbuf) != len(rbuf) * p:
        raise MpiError("reduce_scatter: sendbuf must be size*recvbuf")
    full = _tmp(comm, len(sbuf))
    try:
        yield from reduce(comm, sbuf, full, op, 0, dtype)
        _release(sbuf, sarr)
        yield from scatter(comm, full, rbuf, 0)
        _writeback(rbuf, arr)
    finally:
        _free(comm, full)
    return None


# ---------------------------------------------------------------------
# v-variants: per-rank counts and displacements (bytes)
# ---------------------------------------------------------------------

def _check_cd(comm, counts, displs, buf_len: int, what: str):
    if len(counts) != comm.size:
        raise MpiError(f"{what}: need one count per rank")
    if displs is None:
        displs, off = [], 0
        for c in counts:
            displs.append(off)
            off += c
    if len(displs) != comm.size:
        raise MpiError(f"{what}: need one displacement per rank")
    for c, d in zip(counts, displs):
        if c < 0 or d < 0 or d + c > buf_len:
            raise MpiError(
                f"{what}: segment [{d}, {d + c}) outside buffer of "
                f"{buf_len} bytes")
    return list(counts), list(displs)


def gatherv(comm, sendbuf, recvbuf, counts, displs=None,
            root: int = 0) -> Generator:
    """Gather variable-size contributions; ``counts``/``displs``
    describe the layout at the root (bytes)."""
    p, r = comm.size, comm.rank
    if len(counts) != p:
        raise MpiError("gatherv: need one count per rank")
    sbuf, sarr = _as_target(comm, sendbuf)
    if len(sbuf) != counts[r]:
        raise MpiError(f"gatherv: rank {r} sends {len(sbuf)} bytes but "
                       f"counts[{r}]={counts[r]}")
    if r == root:
        rbuf, arr = _as_target(comm, recvbuf)
        counts, displs = _check_cd(comm, counts, displs, len(rbuf),
                                   "gatherv")
        if counts[r]:
            _local_copy(rbuf.sub(displs[r], counts[r]), sbuf)
        for src in range(p):
            if src == root or counts[src] == 0:
                continue
            yield from _recv(comm, rbuf.sub(displs[src], counts[src]),
                             src, _COLL_TAG + 12)
        _writeback(rbuf, arr)
    else:
        if counts[r]:
            req = yield from _isend(comm, sbuf, root, _COLL_TAG + 12)
            yield from comm.device.wait(req)
    _release(sbuf, sarr)
    return None


def scatterv(comm, sendbuf, recvbuf, counts, displs=None,
             root: int = 0) -> Generator:
    p, r = comm.size, comm.rank
    if len(counts) != p:
        raise MpiError("scatterv: need one count per rank")
    rbuf, arr = _as_target(comm, recvbuf)
    if len(rbuf) != counts[r]:
        raise MpiError(f"scatterv: rank {r} expects {counts[r]} bytes "
                       f"but the receive buffer has {len(rbuf)}")
    if r == root:
        sbuf, sarr = _as_target(comm, sendbuf)
        counts, displs = _check_cd(comm, counts, displs, len(sbuf),
                                   "scatterv")
        reqs = []
        for dst in range(p):
            if counts[dst] == 0:
                continue
            seg = sbuf.sub(displs[dst], counts[dst])
            if dst == root:
                _local_copy(rbuf, seg)
                continue
            req = yield from _isend(comm, seg, dst, _COLL_TAG + 13)
            reqs.append(req)
        for req in reqs:
            yield from comm.device.wait(req)
        _release(sbuf, sarr)
    else:
        if counts[r]:
            yield from _recv(comm, rbuf, root, _COLL_TAG + 13)
    _writeback(rbuf, arr)
    return None


def allgatherv(comm, sendbuf, recvbuf, counts, displs=None
               ) -> Generator:
    """gatherv to rank 0 + bcast of the assembled buffer (simple and
    correct; a ring version is a natural optimization point)."""
    rbuf, arr = _as_target(comm, recvbuf)
    counts, displs = _check_cd(comm, counts, displs, len(rbuf),
                               "allgatherv")
    yield from gatherv(comm, sendbuf, rbuf, counts, displs, root=0)
    span_end = max(d + c for c, d in zip(counts, displs))
    yield from bcast(comm, rbuf.sub(0, span_end), root=0)
    _writeback(rbuf, arr)
    return None


def alltoallv(comm, sendbuf, recvbuf, send_counts, recv_counts,
              send_displs=None, recv_displs=None) -> Generator:
    """Pairwise exchange with per-peer counts (bytes)."""
    p, r = comm.size, comm.rank
    sbuf, sarr = _as_target(comm, sendbuf)
    rbuf, arr = _as_target(comm, recvbuf)
    send_counts, send_displs = _check_cd(comm, send_counts, send_displs,
                                         len(sbuf), "alltoallv(send)")
    recv_counts, recv_displs = _check_cd(comm, recv_counts, recv_displs,
                                         len(rbuf), "alltoallv(recv)")
    if send_counts[r] != recv_counts[r]:
        raise MpiError("alltoallv: local segment size mismatch")
    if send_counts[r]:
        _local_copy(rbuf.sub(recv_displs[r], recv_counts[r]),
                    sbuf.sub(send_displs[r], send_counts[r]))
    for step in range(1, p):
        dst = (r + step) % p
        src = (r - step) % p
        sreq = None
        if send_counts[dst]:
            sreq = yield from _isend(
                comm, sbuf.sub(send_displs[dst], send_counts[dst]),
                dst, _COLL_TAG + 14)
        if recv_counts[src]:
            yield from _recv(
                comm, rbuf.sub(recv_displs[src], recv_counts[src]),
                src, _COLL_TAG + 14)
        if sreq is not None:
            yield from comm.device.wait(sreq)
    _release(sbuf, sarr)
    _writeback(rbuf, arr)
    return None
