"""The runnable designs: one row per name.

A design is a channel class plus the few choices made around it: the
CH3 device above the channel, whether connections are built on first
send instead of at init, and whether every rank shares one node.
``build_world``, the conformance harness and the test helpers all read
this table; adding a row is how a design enrols in all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Type

from .ch3 import Ch3Device
from .ch3_rdma.adaptive import Ch3AdaptiveDevice
from .ch3_rdma.device import Ch3RdmaDevice
from .channels import (AdaptiveChannel, BasicChannel, MultiMethodChannel,
                       MuxChannel, PiggybackChannel, PipelineChannel,
                       RdmaChannel, ShmChannel, SrqChannel, TcpChannel,
                       ZeroCopyChannel)

__all__ = ["Design", "DESIGNS", "design"]


@dataclass(frozen=True)
class Design:
    channel: Type[RdmaChannel]
    device: Type[Ch3Device] = Ch3Device
    #: no init-time mesh: connections appear on first send
    lazy: bool = False
    #: all ranks share one node's memory
    one_node: bool = False


DESIGNS: Dict[str, Design] = {
    "shm": Design(ShmChannel, one_node=True),
    "basic": Design(BasicChannel),
    "piggyback": Design(PiggybackChannel),
    "pipeline": Design(PipelineChannel),
    "zerocopy": Design(ZeroCopyChannel),
    # §6: the pipelined ring for eager traffic, rendezvous at CH3
    "ch3": Design(PipelineChannel, Ch3RdmaDevice),
    "multimethod": Design(MultiMethodChannel),
    "tcp": Design(TcpChannel),
    "adaptive": Design(AdaptiveChannel, Ch3AdaptiveDevice),
    "srq": Design(SrqChannel),
    "mux": Design(MuxChannel),
    "srq-lazy": Design(SrqChannel, lazy=True),
}


def design(name: str) -> Design:
    """The row for ``name``; a miss lists the valid names."""
    try:
        return DESIGNS[name]
    except KeyError:
        raise ValueError(f"unknown design {name!r}; pick from "
                         f"{', '.join(DESIGNS)}") from None
