"""RDMA Channel implementations — one per design in the paper.

=========================== ================================
class                       paper section
=========================== ================================
:class:`ShmChannel`         Fig. 3 (reference)
:class:`BasicChannel`       §4.2
:class:`PiggybackChannel`   §4.3
:class:`PipelineChannel`    §4.4
:class:`ZeroCopyChannel`    §5
:class:`MultiMethodChannel` Fig. 1 multi-method
:class:`TcpChannel`         Fig. 1 TCP baseline
:class:`AdaptiveChannel`    runtime-tuned (repro.tune)
:class:`SrqChannel`         shared receive pool (SRQ)
:class:`MuxChannel`         srq + bounded QP pool
=========================== ================================

The runnable design names (``"zerocopy"``, ``"ch3"``, ``"srq-lazy"``,
...) are rows of :data:`repro.mpich2.designs.DESIGNS`, which pairs each
name with a channel class and the CH3 device above it.  The mechanisms
the RDMA designs share live once in :mod:`.parts`.
"""

from .base import (ChannelBrokenError, ChannelError, Connection,
                   IovCursor, RdmaChannel, advance_iov, iov_total)
from .basic import BasicChannel
from .chunked import (ChunkedChannel, ChunkedConnection, PiggybackChannel,
                      PipelineChannel, ZeroCopyChannel)
from .multimethod import MultiMethodChannel
from .shm import ShmChannel
from .srq import MuxChannel, SrqChannel, SrqConnection
from .tcp import TcpChannel
from .adaptive import AdaptiveChannel

__all__ = [
    "RdmaChannel", "Connection", "ChannelError", "ChannelBrokenError",
    "IovCursor",
    "advance_iov", "iov_total",
    "ShmChannel", "BasicChannel", "PiggybackChannel", "PipelineChannel",
    "ZeroCopyChannel", "MultiMethodChannel", "TcpChannel",
    "AdaptiveChannel",
    "SrqChannel", "MuxChannel", "SrqConnection",
    "ChunkedChannel", "ChunkedConnection",
]
