"""Performance-analysis tour: message tracing and the world's own
counters.

Two lenses on the same question — *where does communication time
go?* — applied to the paper's designs:

1. a per-message timeline of a small NAS CG run;
2. the resource-level breakdown of an exchange, read straight from the
   finished world (HCA counters, CPU copies, registration cache, bus
   and link utilisation).

Run:  python examples/model_analysis.py
"""

from repro.config import KB
from repro.mpi.runner import build_world, run_world
from repro.nas import KERNELS
from repro.obs.msgtrace import MessageTracer


def trace_cg():
    print("== message timeline: NAS CG (class T, 4 ranks, zerocopy) ==")
    world = build_world(4, "zerocopy")
    tracer = MessageTracer.attach(world)
    procs = [world.cluster.spawn(KERNELS["cg"](ctx, "T"),
                                 f"rank{ctx.rank}")
             for ctx in world.contexts]
    world.cluster.run()
    assert all(p.value.verified for p in procs)
    print(" ", tracer.summary())
    slowest = sorted(tracer.delivered(), key=lambda m: -m.latency)[:3]
    for m in slowest:
        print("   slowest:", m)
    print()


def breakdown_exchange():
    print("== resource breakdown: 256 KB exchange, pipeline vs "
          "zerocopy ==")

    def prog(mpi):
        peer = 1 - mpi.rank
        sbuf = mpi.alloc(256 * KB)
        rbuf = mpi.alloc(256 * KB)
        for _ in range(10):
            yield from mpi.Sendrecv(sbuf, peer, rbuf, peer)

    for design in ("pipeline", "zerocopy"):
        _results, world = run_world(2, prog, design=design)
        elapsed = world.sim.now
        hca = world.stats()
        caches = [dev.channel.regcache for dev in world.devices]
        copied = sum(n.membus.bytes_copied for n in world.cluster.nodes)
        print(f"--- {design} ---")
        print(f"elapsed (simulated)  {elapsed * 1e6:.1f} us")
        print(f"RDMA writes / reads  {hca['rdma_writes']} / "
              f"{hca['rdma_reads']}")
        print(f"CPU-copied bytes     {copied}")
        print(f"registrations        {hca['registrations']} (cache: "
              f"{sum(rc.hits for rc in caches)} hits / "
              f"{sum(rc.misses for rc in caches)} misses)")
        net = world.cluster.net
        for node in world.cluster.nodes:
            bus = net.utilization(node.membus.bus, elapsed)
            link = net.utilization(
                world.cluster.fabric.uplink(node.node_id), elapsed)
            print(f"node {node.node_id} membus / uplink busy  "
                  f"{bus:.1%} / {link:.1%}")
        print()


def main():
    trace_cg()
    breakdown_exchange()


if __name__ == "__main__":
    main()
