"""Pins every runnable design, end to end, under two geometries and two
fault plans.

The golden corpus pins generated workloads on a handful of designs;
this file pins *all* of them on six fixed traffic shapes: 4 B, 2 KB
and 40 KB ping-pong, a window of 6 x 16 KB and one of 8 x 64 KB
(``Isend``/``Irecv`` + ``Waitall``), and a 1 KB-per-peer ``Alltoall``
over four ranks on two nodes.  Each runs under the default
``ChannelConfig`` and under a small one (16 KB ring, 4 KB chunks, a
2-credit 4-slot SRQ — rings wrap, credits run out), each with no
fault plan and with a 5 % drop / 2 % corrupt / 5 % delay plan.

A row is ``"<repr(sim.now)> <events> <hash>"``; the hash covers the
aggregated HCA stats, the non-zero ``FaultStats``, the armed-obs
counter totals folded by leaf name, the pinned bytes and a digest of
every delivered payload.  A run that raises records only the
exception type.

``EXPECTED`` is printed by ``python tests/test_design_digest.py`` and
is never edited to make a refactor pass: a diff here is a behaviour
change.
"""

import hashlib

import numpy as np
import pytest

from repro.config import KB, ChannelConfig
from repro.faults import FaultPlan, LinkFaults
from repro.mpi import DESIGNS, build_world
from repro.obs import Observability

GEOMETRIES = {
    "default": ChannelConfig(),
    "small": ChannelConfig(ring_size=16 * KB, chunk_size=4 * KB,
                           srq_credits=2, srq_pool_slots=4),
}
PLANS = {
    "none": None,
    "lossy": FaultPlan(seed=4, default_link=LinkFaults(
        drop_rate=0.05, corrupt_rate=0.02, delay_rate=0.05)),
}


def _pattern(nbytes, salt):
    return (np.arange(nbytes, dtype=np.uint32) * 131 + salt).astype(
        np.uint8)


def _pingpong(size, reps):
    def prog(mpi, out):
        if mpi.rank > 1:
            return
        peer = 1 - mpi.rank
        buf = mpi.alloc(size)
        if mpi.rank == 0:
            buf.write(_pattern(size, 3))
        for _ in range(reps):
            if mpi.rank == 0:
                yield from mpi.Send(buf, peer, 0)
                yield from mpi.Recv(buf, peer, 0)
            else:
                yield from mpi.Recv(buf, peer, 0)
                yield from mpi.Send(buf, peer, 0)
        out.append(buf.read())
    return prog


def _window(size, count):
    def prog(mpi, out):
        if mpi.rank > 1:
            return
        bufs = [mpi.alloc(size) for _ in range(count)]
        reqs = []
        for i, buf in enumerate(bufs):
            if mpi.rank == 0:
                buf.write(_pattern(size, i))
                reqs.append((yield from mpi.Isend(buf, 1, i)))
            else:
                reqs.append((yield from mpi.Irecv(buf, 0, i)))
        yield from mpi.Waitall(reqs)
        if mpi.rank == 1:
            out.extend(buf.read() for buf in bufs)
    return prog


def _alltoall(per_peer):
    def prog(mpi, out):
        send = mpi.alloc(per_peer * mpi.size)
        send.write(_pattern(per_peer * mpi.size, mpi.rank))
        recv = mpi.alloc(per_peer * mpi.size)
        yield from mpi.Alltoall(send, recv)
        out.append(recv.read())
    return prog


#: shape -> (rank program, ranks); every world spans two nodes
SHAPES = {
    "pp4": (_pingpong(4, 2), 2),
    "pp2k": (_pingpong(2 * KB, 1), 2),
    "pp40k": (_pingpong(40 * KB, 1), 2),
    "w6x16k": (_window(16 * KB, 6), 2),
    "w8x64k": (_window(64 * KB, 8), 2),
    "a2a1k": (_alltoall(1 * KB), 4),
}


def record(design, geometry, plan, shape):
    prog, nranks = SHAPES[shape]
    obs = Observability()
    world = build_world(nranks, design, ch_cfg=GEOMETRIES[geometry],
                        faults=PLANS[plan], nnodes=2, obs=obs)
    out = []
    for ctx in world.contexts:
        world.cluster.spawn(prog(ctx, out), f"rank{ctx.rank}")
    try:
        world.cluster.run()
    except Exception as exc:
        return type(exc).__name__
    leaves = {}
    for name, value in obs.metrics.snapshot().items():
        # QP numbers and MR keys come from process-global counters:
        # fold metric names down to their leaf
        leaf = name.rsplit(".", 1)[-1]
        leaves[leaf] = leaves.get(leaf, 0) + value
    faults = {k: v for k, v
              in world.cluster.faults.stats.snapshot().items() if v}
    left_behind = [sorted(world.stats().items()), sorted(faults.items()),
                   sorted(leaves.items()), world.cluster.pinned_bytes(),
                   [hashlib.sha1(bytes(p)).hexdigest() for p in out]]
    digest = hashlib.sha1(repr(left_behind).encode()).hexdigest()[:16]
    return f"{world.sim.now!r} {world.sim.events_processed} {digest}"


def table(design):
    return {f"{g}/{p}/{s}": record(design, g, p, s)
            for g in GEOMETRIES for p in PLANS for s in SHAPES}


EXPECTED = {
    'shm': {
        'default/none/pp4': '5.319999999999998e-06 134 c31e13aff4f6c102',
        'default/none/pp2k': '1.2879999999999999e-05 66 ea73388131aeeec4',
        'default/none/pp40k': '0.00020744 66 18a6f01e993c95a1',
        'default/none/w6x16k': '0.00025038 177 68a7f8673322e649',
        'default/none/w8x64k': '0.0013161 314 8dfdb1959c172aa1',
        'default/none/a2a1k': '3.42e-05 232 ca27f73214936796',
        'default/lossy/pp4': '5.319999999999998e-06 134 c31e13aff4f6c102',
        'default/lossy/pp2k': '1.2879999999999999e-05 66 ea73388131aeeec4',
        'default/lossy/pp40k': '0.00020744 66 18a6f01e993c95a1',
        'default/lossy/w6x16k': '0.00025038 177 68a7f8673322e649',
        'default/lossy/w8x64k': '0.0013161 314 8dfdb1959c172aa1',
        'default/lossy/a2a1k': '3.42e-05 232 ca27f73214936796',
        'small/none/pp4': '5.319999999999998e-06 134 c31e13aff4f6c102',
        'small/none/pp2k': '1.2879999999999999e-05 66 ea73388131aeeec4',
        'small/none/pp40k': '0.00021048000000000003 170 18a6f01e993c95a1',
        'small/none/w6x16k': '0.0002531 310 68a7f8673322e649',
        'small/none/w8x64k': '0.0013405200000000009 994 8dfdb1959c172aa1',
        'small/none/a2a1k': '3.42e-05 232 ca27f73214936796',
        'small/lossy/pp4': '5.319999999999998e-06 134 c31e13aff4f6c102',
        'small/lossy/pp2k': '1.2879999999999999e-05 66 ea73388131aeeec4',
        'small/lossy/pp40k': '0.00021048000000000003 170 18a6f01e993c95a1',
        'small/lossy/w6x16k': '0.0002531 310 68a7f8673322e649',
        'small/lossy/w8x64k': '0.0013405200000000009 994 8dfdb1959c172aa1',
        'small/lossy/a2a1k': '3.42e-05 232 ca27f73214936796',
    },
    'basic': {
        'default/none/pp4': '6.789022935779818e-05 460 18c8b25502048e93',
        'default/none/pp2k': '4.6493165137614687e-05 228 4306e63955cffb72',
        'default/none/pp40k': '0.0003303008715596329 228 cee7d10b7fb627af',
        'default/none/w6x16k': '0.0003410283486238531 652 744552d5a67bf8a4',
        'default/none/w8x64k': '0.0015474844495412844 1429 d16b51fd83e8d376',
        'default/none/a2a1k': '7.583889908256881e-05 1096 372fc48bde3dcbb5',
        'default/lossy/pp4': '0.000391890229357798 518 475c5ba3d328eabd',
        'default/lossy/pp2k': '0.00021088701834862393 252 544a658139700379',
        'default/lossy/pp40k': '0.00066292504587156 268 e108a6d3613d8392',
        'default/lossy/w6x16k': '0.0007446715596330274 764 a154d5f0aa5c0f79',
        'default/lossy/w8x64k': '0.002685696467889908 1674 af985742e2a0d159',
        'default/lossy/a2a1k': '0.0003402745935779814 1522 ca005e6dd16531ea',
        'small/none/pp4': '6.789022935779818e-05 460 19fe92442a7801bb',
        'small/none/pp2k': '4.6493165137614687e-05 228 151f7f9c4800b780',
        'small/none/pp40k': '0.00041111087155963275 742 1d52966fbb3fd89d',
        'small/none/w6x16k': '0.0004991832110091743 1257 230ffb5d95e0c29c',
        'small/none/w8x64k': '0.0026616648623853157 4351 615f644e4eb3b3e2',
        'small/none/a2a1k': '7.583889908256881e-05 1096 15743b1bbcda68b2',
        'small/lossy/pp4': '0.000391890229357798 518 be8b4a0bc2edbc43',
        'small/lossy/pp2k': '0.00021088701834862393 252 fe3eae37e605f6da',
        'small/lossy/pp40k': '0.0010049138990825689 775 519d9562eee2d8d2',
        'small/lossy/w6x16k': '0.00107471885321101 1768 88230dfe5512e5f3',
        'small/lossy/w8x64k': '0.004166327064220168 4905 b3749f4099a03406',
        'small/lossy/a2a1k': '0.0003402745935779814 1522 60acc1667ee29944',
    },
    'piggyback': {
        'default/none/pp4': '2.879811926605505e-05 240 62416b2e863316bb',
        'default/none/pp2k': '2.9289633027522935e-05 122 48c6add4c1d94c8b',
        'default/none/pp40k': '0.00029418060596330276 278 e4e584f54ce21a68',
        'default/none/w6x16k': '0.00031719655963302775 622 641d21212689e112',
        'default/none/w8x64k': '0.0016799598711009188 1724 2e83e6484910131f',
        'default/none/a2a1k': '5.3526055045871556e-05 583 858ad39518c90b6a',
        'default/lossy/pp4': '0.00010408311926605504 254 4f66731342fae655',
        'default/lossy/pp2k': '0.00012030944954128438 136 8ee9ca52ec20b61d',
        'default/lossy/pp40k': '0.0006023822362385324 322 efaba6d3d7edb106',
        'default/lossy/w6x16k': '0.0005968293577981654 730 c61e7bf718631d61',
        'default/lossy/w8x64k': '0.0024249961353211003 1946 fed098c147562453',
        'default/lossy/a2a1k': '0.00017737986238532114 707 97037cd8910fb6f3',
        'small/none/pp4': '3.795481651376147e-05 316 60110a445589c911',
        'small/none/pp2k': '3.500380733944954e-05 158 920c45aeb3490d0b',
        'small/none/pp40k': '0.0003170440605504586 1098 8f705e368cd1725d',
        'small/none/w6x16k': '0.0004054036848623852 1636 b5825f49611f29ae',
        'small/none/w8x64k': '0.001976087700917448 6908 4e05d3f0050e472d',
        'small/none/a2a1k': '5.955275229357797e-05 766 2389f707a2df752e',
        'small/lossy/pp4': '0.00018865316513761476 352 699d33d1307a9baf',
        'small/lossy/pp2k': '0.00011724298165137614 176 a2df95688cc8190f',
        'small/lossy/pp40k': '0.0008608444495412852 1336 d98878da9e3915cf',
        'small/lossy/w6x16k': '0.0008415650802752304 1792 80e7bd650857dacb',
        'small/lossy/w8x64k': '0.004562593170871526 7872 d585315d2cd5d8e3',
        'small/lossy/a2a1k': '0.0003140047247706422 1013 da799f1671303834',
    },
    'pipeline': {
        'default/none/pp4': '2.8763119266055056e-05 220 333a66cadbf09ef2',
        'default/none/pp2k': '2.9289633027522935e-05 112 c73823e1804e1633',
        'default/none/pp40k': '0.00025704032431192654 268 c148b1bf53af5d60',
        'default/none/w6x16k': '0.00025878494318660046 592 84eab97e58f6e1cb',
        'default/none/w8x64k': '0.0011096318850552702 1692 fb4749290408bc54',
        'default/none/a2a1k': '5.037605504587157e-05 571 2d73d930125f514b',
        'default/lossy/pp4': '0.00010061811926605504 238 ed244145e6150083',
        'default/lossy/pp2k': '0.00011945944954128439 126 331ddc7350fe45b4',
        'default/lossy/pp40k': '0.0005629940545871562 316 5620124c5216ddaf',
        'default/lossy/w6x16k': '0.0005132207116404344 704 9c186b59be7d8c79',
        'default/lossy/w8x64k': '0.0018644114273961559 1946 9bc8564eb3174c3e',
        'default/lossy/a2a1k': '0.00020871923496903666 704 870c185d15c5c165',
        'small/none/pp4': '3.795481651376147e-05 296 ce9119b9cfc06ce1',
        'small/none/pp2k': '3.500380733944954e-05 148 5d07034f61739e83',
        'small/none/pp40k': '0.00022765351635400832 1132 51bbce0900196864',
        'small/none/w6x16k': '0.0002726919073479444 1520 24902455219cf618',
        'small/none/w8x64k': '0.0012957102984282474 7020 cf4fd9084838f227',
        'small/none/a2a1k': '5.640275229357798e-05 786 6c65a672f08d3a86',
        'small/lossy/pp4': '0.00018865316513761476 336 a679bac2e5549472',
        'small/lossy/pp2k': '0.00011724298165137614 166 c1f19839df1820d3',
        'small/lossy/pp40k': '0.0008175444443769991 1334 860f87d9661e848e',
        'small/lossy/w6x16k': '0.000727086063761469 1736 d6f52f32a6b3a907',
        'small/lossy/w8x64k': '0.004103808948615741 8024 31a88e00268bd5e0',
        'small/lossy/a2a1k': '0.0002364592201834863 1008 734806103609b712',
    },
    'zerocopy': {
        'default/none/pp4': '3.076311926605506e-05 260 333a66cadbf09ef2',
        'default/none/pp2k': '3.0289633027522935e-05 132 c73823e1804e1633',
        'default/none/pp40k': '0.0002516933486238533 340 9f78423a42913b64',
        'default/none/w6x16k': '0.0002594274374526555 652 84eab97e58f6e1cb',
        'default/none/w8x64k': '0.0017168332110091729 1378 c5cb38b63285d864',
        'default/none/a2a1k': '5.195605504587157e-05 803 2d73d930125f514b',
        'default/lossy/pp4': '0.00010161811926605506 278 ed244145e6150083',
        'default/lossy/pp2k': '0.0001201594495412844 146 331ddc7350fe45b4',
        'default/lossy/pp40k': '0.00034174784403669713 390 2b0e74366f1d9120',
        'default/lossy/w6x16k': '0.00051421566003493 790 9c186b59be7d8c79',
        'default/lossy/w8x64k': '0.0020310171100917404 1554 0d0fdb8dc95f3abd',
        'default/lossy/a2a1k': '0.00020824633027522935 982 870c185d15c5c165',
        'small/none/pp4': '3.895481651376148e-05 342 ce9119b9cfc06ce1',
        'small/none/pp2k': '3.5903807339449544e-05 170 5d07034f61739e83',
        'small/none/pp40k': '0.0002579116972477064 420 f0a7d335b8e6bd02',
        'small/none/w6x16k': '0.00027439811105164805 1830 02d322cce9a74429',
        'small/none/w8x64k': '0.0017238423853210996 1676 cbfa3a79032d4bf2',
        'small/none/a2a1k': '5.775522935779817e-05 1071 6c65a672f08d3a86',
        'small/lossy/pp4': '0.00018965316513761476 382 a679bac2e5549472',
        'small/lossy/pp2k': '0.00011784298165137615 188 c1f19839df1820d3',
        'small/lossy/pp40k': '0.0009213653669724775 509 272e65c900aa3db2',
        'small/lossy/w6x16k': '0.0007289793756880738 2032 d6f52f32a6b3a907',
        'small/lossy/w8x64k': '0.002818393807339445 1906 cd9094cfc1e936e6',
        'small/lossy/a2a1k': '0.00023723022935779822 1375 734806103609b712',
    },
    'ch3': {
        'default/none/pp4': '2.8763119266055056e-05 220 609f9041c2ed04b0',
        'default/none/pp2k': '2.9289633027522935e-05 112 0e4c8420984b5596',
        'default/none/pp40k': '0.00025933880733944965 312 e6c91a86df95e6df',
        'default/none/w6x16k': '0.00025878494318660046 592 bb45a2fafcb7d92e',
        'default/none/w8x64k': '0.0007831573853211011 1308 82c4806075f9158d',
        'default/none/a2a1k': '5.037605504587157e-05 571 c1253f97a6a7681f',
        'default/lossy/pp4': '0.00010061811926605504 238 4654ba08986c17d1',
        'default/lossy/pp2k': '0.00011945944954128439 126 1afd61a4f9f5cec4',
        'default/lossy/pp40k': '0.0004014378899082568 348 066ba3ca5a5e423b',
        'default/lossy/w6x16k': '0.0005132207116404344 704 9aee9432be7698e0',
        'default/lossy/w8x64k': '0.0016016491284403674 1520 7028fd951e5b6c0e',
        'default/lossy/a2a1k': '0.00020871923496903666 704 d7f4ed8e692a11b0',
        'small/none/pp4': '3.795481651376147e-05 296 6e977dbe4d31f46c',
        'small/none/pp2k': '3.500380733944954e-05 148 6e8995a65e3f660c',
        'small/none/pp40k': '0.00026954550458715596 428 c3a21958e324feb8',
        'small/none/w6x16k': '0.0002726919073479444 1520 6e49f376e03156bd',
        'small/none/w8x64k': '0.0009127017566513761 1582 fece2003a4b7afdb',
        'small/none/a2a1k': '5.640275229357798e-05 786 bb5254ca3e459c3e',
        'small/lossy/pp4': '0.00018865316513761476 336 a3a4c62e8e03f785',
        'small/lossy/pp2k': '0.00011724298165137614 166 bd397c1d81729847',
        'small/lossy/pp40k': '0.0007812987155963304 494 764d46196a462491',
        'small/lossy/w6x16k': '0.000727086063761469 1736 b50806a1a23485de',
        'small/lossy/w8x64k': '0.0011546181192660563 1826 7b341496206ed216',
        'small/lossy/a2a1k': '0.0002364592201834863 1008 b257bf5b2aa1f338',
    },
    'multimethod': {
        'default/none/pp4': '3.076311926605506e-05 260 333a66cadbf09ef2',
        'default/none/pp2k': '3.0289633027522935e-05 132 c73823e1804e1633',
        'default/none/pp40k': '0.0002516933486238533 340 9f78423a42913b64',
        'default/none/w6x16k': '0.0002594274374526555 652 84eab97e58f6e1cb',
        'default/none/w8x64k': '0.0017168332110091729 1378 c5cb38b63285d864',
        'default/none/a2a1k': '4.0984036697247704e-05 606 b8b6752b72868db5',
        'default/lossy/pp4': '0.00010161811926605506 278 ed244145e6150083',
        'default/lossy/pp2k': '0.0001201594495412844 146 331ddc7350fe45b4',
        'default/lossy/pp40k': '0.00034174784403669713 390 2b0e74366f1d9120',
        'default/lossy/w6x16k': '0.00051421566003493 790 9c186b59be7d8c79',
        'default/lossy/w8x64k': '0.0020310171100917404 1554 0d0fdb8dc95f3abd',
        'default/lossy/a2a1k': '0.00020822302752293578 821 299a125bff4a6751',
        'small/none/pp4': '3.895481651376148e-05 342 ce9119b9cfc06ce1',
        'small/none/pp2k': '3.5903807339449544e-05 170 5d07034f61739e83',
        'small/none/pp40k': '0.0002579116972477064 420 f0a7d335b8e6bd02',
        'small/none/w6x16k': '0.00027439811105164805 1830 02d322cce9a74429',
        'small/none/w8x64k': '0.0017238423853210996 1676 cbfa3a79032d4bf2',
        'small/none/a2a1k': '4.6622385321100915e-05 730 664288a6fcdb073d',
        'small/lossy/pp4': '0.00018965316513761476 382 a679bac2e5549472',
        'small/lossy/pp2k': '0.00011784298165137615 188 c1f19839df1820d3',
        'small/lossy/pp40k': '0.0009213653669724775 509 272e65c900aa3db2',
        'small/lossy/w6x16k': '0.0007289793756880738 2032 d6f52f32a6b3a907',
        'small/lossy/w8x64k': '0.002818393807339445 1906 cd9094cfc1e936e6',
        'small/lossy/a2a1k': '0.00016678188073394507 1087 296b017c0902cbd4',
    },
    'tcp': {
        'default/none/pp4': '9.161126050420168e-05 195 c31e13aff4f6c102',
        'default/none/pp2k': '7.791974789915967e-05 93 ea73388131aeeec4',
        'default/none/pp40k': '0.0005298606666666666 205 18a6f01e993c95a1',
        'default/none/w6x16k': '0.0005298072268907564 375 68a7f8673322e649',
        'default/none/w8x64k': '0.0024550953333333327 1543 8dfdb1959c172aa1',
        'default/none/a2a1k': '0.00010091000000000001 436 ca27f73214936796',
        'default/lossy/pp4': '9.161126050420168e-05 195 c31e13aff4f6c102',
        'default/lossy/pp2k': '7.791974789915967e-05 93 ea73388131aeeec4',
        'default/lossy/pp40k': '0.0005298606666666666 205 18a6f01e993c95a1',
        'default/lossy/w6x16k': '0.0005298072268907564 375 68a7f8673322e649',
        'default/lossy/w8x64k': '0.0024550953333333327 1543 8dfdb1959c172aa1',
        'default/lossy/a2a1k': '0.00010091000000000001 436 ca27f73214936796',
        'small/none/pp4': '9.161126050420168e-05 195 c31e13aff4f6c102',
        'small/none/pp2k': '7.791974789915967e-05 93 ea73388131aeeec4',
        'small/none/pp40k': '0.0005298606666666666 205 18a6f01e993c95a1',
        'small/none/w6x16k': '0.0005298072268907564 375 68a7f8673322e649',
        'small/none/w8x64k': '0.0024550953333333327 1543 8dfdb1959c172aa1',
        'small/none/a2a1k': '0.00010091000000000001 436 ca27f73214936796',
        'small/lossy/pp4': '9.161126050420168e-05 195 c31e13aff4f6c102',
        'small/lossy/pp2k': '7.791974789915967e-05 93 ea73388131aeeec4',
        'small/lossy/pp40k': '0.0005298606666666666 205 18a6f01e993c95a1',
        'small/lossy/w6x16k': '0.0005298072268907564 375 68a7f8673322e649',
        'small/lossy/w8x64k': '0.0024550953333333327 1543 8dfdb1959c172aa1',
        'small/lossy/a2a1k': '0.00010091000000000001 436 ca27f73214936796',
    },
    'adaptive': {
        'default/none/pp4': '2.8763119266055056e-05 220 bec34bebcd434385',
        'default/none/pp2k': '2.9289633027522935e-05 112 a27b03ff222e3035',
        'default/none/pp40k': '0.00025933880733944965 312 46e7c8f1cb8ab13e',
        'default/none/w6x16k': '0.00025878494318660046 592 d64cf6402d05ed2f',
        'default/none/w8x64k': '0.0007831573853211011 1300 62478b5bbd77017d',
        'default/none/a2a1k': '5.037605504587157e-05 571 5af9eeebfb1858ee',
        'default/lossy/pp4': '0.00010061811926605504 238 0d30e68d889a9392',
        'default/lossy/pp2k': '0.00011945944954128439 126 7fd861f55f0c2174',
        'default/lossy/pp40k': '0.0004014378899082568 348 708ca5dfccf094bc',
        'default/lossy/w6x16k': '0.0005132207116404344 704 2178c2ebb18e2f5a',
        'default/lossy/w8x64k': '0.0016016491284403674 1520 1e412b028f56e9ba',
        'default/lossy/a2a1k': '0.00020871923496903666 704 a62674cb45d5728a',
        'small/none/pp4': '3.795481651376147e-05 296 e6921a1abe1c6608',
        'small/none/pp2k': '3.500380733944954e-05 148 7ae52c6255388f68',
        'small/none/pp40k': '0.00026954550458715596 428 dae03d731a656e63',
        'small/none/w6x16k': '0.0002726919073479444 1520 510a52785d156a2e',
        'small/none/w8x64k': '0.0009127017566513761 1576 c87ab87049d20fc3',
        'small/none/a2a1k': '5.640275229357798e-05 786 f0b6f9f043531ae2',
        'small/lossy/pp4': '0.00018865316513761476 336 4260748a2a709998',
        'small/lossy/pp2k': '0.00011724298165137614 166 cc03d6ba6d60826b',
        'small/lossy/pp40k': '0.0007812987155963304 494 b5b63a2c86defca7',
        'small/lossy/w6x16k': '0.000727086063761469 1736 eb9105da651f5491',
        'small/lossy/w8x64k': '0.0011546181192660563 1826 201f10af06bb9e22',
        'small/lossy/a2a1k': '0.0002364592201834863 1008 42e5265fc7c1405c',
    },
    'srq': {
        'default/none/pp4': '2.6558532110091743e-05 208 473cb8ba57b017d3',
        'default/none/pp2k': '2.8187339449541283e-05 104 0d1bbb8fc622880d',
        'default/none/pp40k': '0.00022310059999999996 440 63038e77268b7748',
        'default/none/w6x16k': '0.00024201827832393458 716 059752f9c5f154e3',
        'default/none/w8x64k': '0.0011559204877423202 2656 8b2ab532fcdc59be',
        'default/none/a2a1k': '4.871229357798166e-05 499 71bf0ca7c0d5c84c',
        'default/lossy/pp4': '9.950853211009172e-05 222 62a1c510d039f31c',
        'default/lossy/pp2k': '0.00011870100917431192 118 9db212633aa3fd52',
        'default/lossy/pp40k': '0.000756096804434251 522 dd51e7438f0c11d0',
        'default/lossy/w6x16k': '0.0008914993169724779 872 a16a49c64bd00abc',
        'default/lossy/w8x64k': '0.002505358026605503 3092 19becb407101a817',
        'default/lossy/a2a1k': '0.00020780614678899082 660 a1637e240db8da7d',
        'small/none/pp4': '3.6350229357798164e-05 284 14c492a7df2f0c0e',
        'small/none/pp2k': '3.3901513761467884e-05 140 47c35a767e99a739',
        'small/none/pp40k': '0.00028343304678899074 664 6131adb07a401e3d',
        'small/none/w6x16k': '0.00037751725412844014 1028 bf0b5414bff0e5ed',
        'small/none/w8x64k': '0.0017330626091743154 3964 232686f76d115b30',
        'small/none/a2a1k': '5.4738990825688074e-05 714 5720a7e1e0cd9d9f',
        'small/lossy/pp4': '0.0001870485779816514 324 9e968642fc27df3b',
        'small/lossy/pp2k': '0.00011634068807339449 158 8477d93bf6921a07',
        'small/lossy/pp40k': '0.0008734875229357804 800 166a03d7f1aff667',
        'small/lossy/w6x16k': '0.0008839784862385322 1208 f1716acebcb8de63',
        'small/lossy/w8x64k': '0.00320559785917431 4376 b02f5a3fa1e894c0',
        'small/lossy/a2a1k': '0.0002355626605504588 972 6769c82e714cab52',
    },
    'mux': {
        'default/none/pp4': '2.6558532110091743e-05 208 473cb8ba57b017d3',
        'default/none/pp2k': '2.8187339449541283e-05 104 0d1bbb8fc622880d',
        'default/none/pp40k': '0.00022310059999999996 440 63038e77268b7748',
        'default/none/w6x16k': '0.00024201827832393458 716 059752f9c5f154e3',
        'default/none/w8x64k': '0.0011559204877423202 2656 8b2ab532fcdc59be',
        'default/none/a2a1k': '4.209965401926571e-05 556 17d73fa39574b0b5',
        'default/lossy/pp4': '9.950853211009172e-05 222 62a1c510d039f31c',
        'default/lossy/pp2k': '0.00011870100917431192 118 9db212633aa3fd52',
        'default/lossy/pp40k': '0.000756096804434251 522 dd51e7438f0c11d0',
        'default/lossy/w6x16k': '0.0008914993169724779 872 a16a49c64bd00abc',
        'default/lossy/w8x64k': '0.002505358026605503 3092 19becb407101a817',
        'default/lossy/a2a1k': '0.00025474706100917427 674 f267695aa234eb26',
        'small/none/pp4': '3.6350229357798164e-05 284 14c492a7df2f0c0e',
        'small/none/pp2k': '3.3901513761467884e-05 140 47c35a767e99a739',
        'small/none/pp40k': '0.00028343304678899074 664 6131adb07a401e3d',
        'small/none/w6x16k': '0.00037751725412844014 1028 bf0b5414bff0e5ed',
        'small/none/w8x64k': '0.0017330626091743154 3964 232686f76d115b30',
        'small/none/a2a1k': '4.806149584585241e-05 766 7e385fb4db426e6f',
        'small/lossy/pp4': '0.0001870485779816514 324 9e968642fc27df3b',
        'small/lossy/pp2k': '0.00011634068807339449 158 8477d93bf6921a07',
        'small/lossy/pp40k': '0.0008734875229357804 800 166a03d7f1aff667',
        'small/lossy/w6x16k': '0.0008839784862385322 1208 f1716acebcb8de63',
        'small/lossy/w8x64k': '0.00320559785917431 4376 b02f5a3fa1e894c0',
        'small/lossy/a2a1k': '0.00018879856243161357 942 153deaec28a1b127',
    },
    'srq-lazy': {
        'default/none/pp4': '2.9658532110091744e-05 216 aa2efce6189b6dae',
        'default/none/pp2k': '3.1287339449541284e-05 112 1f5242d3ef4d39c5',
        'default/none/pp40k': '0.00022620059999999998 448 63038e77268b7748',
        'default/none/w6x16k': '0.00024511827832393454 724 059752f9c5f154e3',
        'default/none/w8x64k': '0.0011590204877423202 2660 8b2ab532fcdc59be',
        'default/none/a2a1k': '5.4012293577981665e-05 525 dcf5420eab33a76c',
        'default/lossy/pp4': '0.00014311316513761465 252 2f1cc844265a7e21',
        'default/lossy/pp2k': '8.770733944954128e-05 126 571dedcba9767add',
        'default/lossy/pp40k': '0.0006984945108562692 530 20f914ce7c5340d4',
        'default/lossy/w6x16k': '0.0007644765793577988 872 31f909e5bcd80a3f',
        'default/lossy/w8x64k': '0.002219561299886372 3078 dc46d67bbd10d1d2',
        'default/lossy/a2a1k': '0.00020886834541284407 711 09359e79b07bb39a',
        'small/none/pp4': '3.9450229357798165e-05 292 3ad9b9975e65090f',
        'small/none/pp2k': '3.700151376146789e-05 148 bececf645a344317',
        'small/none/pp40k': '0.00028653304678899076 672 6131adb07a401e3d',
        'small/none/w6x16k': '0.0003806172541284401 1036 bf0b5414bff0e5ed',
        'small/none/w8x64k': '0.0017361626091743152 3968 232686f76d115b30',
        'small/none/a2a1k': '6.001899082568808e-05 724 1ff54b96d03e6ed2',
        'small/lossy/pp4': '0.00017852022935779823 332 b88587d03324532e',
        'small/lossy/pp2k': '0.0001736156880733945 176 270e48d219c2af87',
        'small/lossy/pp40k': '0.0007325619550458718 772 28f9cc3c27a8bf2d',
        'small/lossy/w6x16k': '0.000858290137614679 1204 bc88da1b50d0c85f',
        'small/lossy/w8x64k': '0.003272173139449538 4378 e921114a700874d9',
        'small/lossy/a2a1k': '0.00030190228876146786 993 668019ea04e6a79d',
    },
}


@pytest.mark.parametrize("design", list(DESIGNS))
def test_design_digest(design):
    assert table(design) == EXPECTED[design]


if __name__ == "__main__":   # prints the table to paste into EXPECTED
    print("EXPECTED = {")
    for d in DESIGNS:
        print(f"    {d!r}: {{")
        for key, row in table(d).items():
            line = f"        {key!r}: {row!r},"
            print(line if len(line) <= 79 else
                  f"        {key!r}:\n            {row!r},")
        print("    },")
    print("}")
