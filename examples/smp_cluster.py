"""SMP clusters and the multi-method channel (paper Fig. 1).

The testbed's nodes are dual-processor; with two ranks per node, the
multi-method channel routes intra-node pairs through (actually) shared
memory and inter-node pairs through the zero-copy RDMA design.  This
example shows the win on a nearest-neighbour exchange where half the
neighbours are local, and reads the finished world's counters to show
*why* (fewer RDMA operations, more CPU copies).

Run:  python examples/smp_cluster.py
"""

from repro.config import KB
from repro.mpi import run_world


def exchange(mpi):
    """Alternating exchange: rounds with the co-located partner
    (rank XOR size/2 under round-robin placement) interleaved with
    rounds to a remote ring neighbour."""
    n = 64 * KB
    local_partner = mpi.rank ^ (mpi.size // 2)
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    sbuf = mpi.alloc(n)
    rbuf = mpi.alloc(n)
    sbuf.view()[:] = mpi.rank
    yield from mpi.Barrier()
    t0 = mpi.wtime()
    for _ in range(20):
        yield from mpi.Sendrecv(sbuf, local_partner, rbuf,
                                local_partner)
        yield from mpi.Sendrecv(sbuf, right, rbuf, left)
    return (mpi.wtime() - t0) * 1e6


def main():
    # 8 ranks on 4 dual-CPU nodes: ranks r and r+4 share node r%4,
    # so the ring alternates local and remote neighbours
    for design in ("zerocopy", "multimethod"):
        results, world = run_world(8, exchange, design=design, nnodes=4)
        hca = world.stats()
        copied = sum(n.membus.bytes_copied for n in world.cluster.nodes)
        print(f"=== {design} (8 ranks on 4 nodes) ===")
        print(f"  20 rounds of 64 KB local+remote exchange: "
              f"{max(results):.1f} us")
        print(f"  RDMA writes={hca['rdma_writes']} "
              f"reads={hca['rdma_reads']} "
              f"bytes_written={hca['bytes_written']}")
        print(f"  CPU-copied bytes={copied}\n")


if __name__ == "__main__":
    main()
