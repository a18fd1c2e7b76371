"""The MPICH2 stack: ADI3 -> CH3 -> RDMA Channel (paper Fig. 1).

:mod:`repro.mpich2.channels`
    The five-function RDMA Channel interface and its designs.
:mod:`repro.mpich2.designs`
    The design table: every runnable name, its channel and CH3 device.
:mod:`repro.mpich2.ch3`
    The CH3 layer implementing ADI3 over a channel.
:mod:`repro.mpich2.ch3_rdma`
    The CH3-level comparator device (§6): rendezvous with direct
    RDMA writes for large messages.
:mod:`repro.mpich2.regcache`
    The registration (pin-down) cache (§5).
"""

from .regcache import RegistrationCache

__all__ = ["RegistrationCache"]
