"""Performance-analysis toolkit tour: LogGP fitting, message tracing,
and the run profiler.

Three lenses on the same question — *where does communication time
go?* — applied to the paper's designs:

1. LogGP parameters (L, o, g, G) per design;
2. a per-message timeline of a small NAS CG run;
3. the resource-level breakdown of a bandwidth test.

Run:  python examples/model_analysis.py
"""

from repro.bench.loggp import fit_loggp
from repro.bench.profile import profile_run
from repro.config import KB
from repro.mpi.runner import build_world
from repro.nas import KERNELS
from repro.obs.msgtrace import MessageTracer


def loggp_table():
    print("== LogGP parameters per design ==")
    for design in ("basic", "piggyback", "zerocopy", "ch3", "tcp"):
        print(" ", fit_loggp(design).table())
    print()


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


def profile_exchange():
    print("== resource breakdown: 256 KB exchange, pipeline vs "
          "zerocopy ==")

    def prog(mpi):
        peer = 1 - mpi.rank
        sbuf = mpi.alloc(256 * KB)
        rbuf = mpi.alloc(256 * KB)
        for _ in range(10):
            yield from mpi.Sendrecv(sbuf, peer, rbuf, peer)

    for design in ("pipeline", "zerocopy"):
        run = profile_run(2, prog, design=design)
        print(f"--- {design} ---")
        print(run.table())
        print()


def main():
    loggp_table()
    trace_cg()
    profile_exchange()


if __name__ == "__main__":
    main()
