"""Shared test harness utilities."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cluster import Cluster, build_cluster
from repro.config import ChannelConfig, HardwareConfig
from repro.hw.memory import Buffer
from repro.mpich2.channels import advance_iov, iov_total
from repro.mpich2.designs import design as design_row

__all__ = ["make_channel_pair", "put_all", "get_all", "run_procs"]


def make_channel_pair(design: str, cfg: Optional[HardwareConfig] = None,
                      ch_cfg: Optional[ChannelConfig] = None,
                      faults=None, obs=None):
    """Build a cluster with two connected channel endpoints of the
    given design; returns (cluster, chan0, chan1, conn0, conn1).
    ``faults`` is an optional :class:`repro.faults.FaultPlan`;
    ``obs`` an optional :class:`repro.obs.Observability`."""
    row = design_row(design)
    cls = row.channel
    cfg = cfg or HardwareConfig()
    ch_cfg = ch_cfg or ChannelConfig()
    if row.one_node:
        cluster = build_cluster(1, cfg, faults=faults, obs=obs)
        n0 = n1 = cluster.nodes[0]
        ctx0, ctx1 = n0.vapi(0), n0.vapi(1)
    else:
        cluster = build_cluster(2, cfg, faults=faults, obs=obs)
        n0, n1 = cluster.nodes
        ctx0, ctx1 = n0.vapi(0), n1.vapi(0)
    ch0 = cls(rank=0, node=n0, ctx=ctx0, cfg=cfg, ch_cfg=ch_cfg)
    ch1 = cls(rank=1, node=n1, ctx=ctx1, cfg=cfg, ch_cfg=ch_cfg)
    ch0.initialize(2)
    ch1.initialize(2)
    cls.establish(ch0, ch1)
    return cluster, ch0, ch1, ch0.conns[1], ch1.conns[0]


def put_all(cluster: Cluster, chan, conn, iov: Sequence[Buffer]):
    """Blocking helper: put the whole iov, sleeping on the channel's
    wakeup."""
    iov = list(iov)
    total = iov_total(iov)
    done = 0
    while done < total:
        n = yield from chan.put(conn, iov)
        if n:
            done += n
            iov = advance_iov(iov, n)
        else:
            yield chan.wakeup()
    return done


def get_all(cluster: Cluster, chan, conn, iov: Sequence[Buffer]):
    """Blocking helper: fill the whole iov from the pipe."""
    iov = list(iov)
    total = iov_total(iov)
    done = 0
    while done < total:
        n = yield from chan.get(conn, iov)
        if n:
            done += n
            iov = advance_iov(iov, n)
        else:
            yield chan.wakeup()
    return done


def run_procs(cluster: Cluster, *gens) -> List:
    """Spawn all generators, run the simulation, return their values."""
    procs = [cluster.spawn(g, f"proc{i}") for i, g in enumerate(gens)]
    cluster.run()
    return [p.value for p in procs]
