"""Message tracer (lifecycle records, timeline integration) and the
Waitany/Waitsome/Testall request APIs."""

import pytest

from repro.mpi import run_mpi
from repro.mpi.runner import build_world
from repro.mpich2.adi3 import TruncateError
from repro.obs import NULL_OBS, Observability
from repro.obs.msgtrace import MessageRecord, MessageTracer


def _run_traced(prog, nranks=2, design="zerocopy", obs=None):
    world = build_world(nranks, design, obs=obs)
    tracer = MessageTracer.attach(world)
    procs = [world.cluster.spawn(prog(ctx), f"rank{ctx.rank}")
             for ctx in world.contexts]
    world.cluster.run()
    return tracer, [p.value for p in procs]


class TestTracer:
    def test_records_message_lifecycle(self):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"x" * 500, dest=1, tag=9)
            else:
                obj, _ = yield from mpi.recv(source=0, tag=9)
                return obj

        tracer, results = _run_traced(prog)
        # user message + any collective traffic; find the tagged one
        recs = [m for m in tracer.messages if m.tag == 9]
        assert len(recs) == 1
        m = recs[0]
        # object-mode send pickles the payload; size is pickle size
        assert (m.src, m.dst) == (0, 1)
        assert m.size >= 500
        assert m.t_sent is not None
        assert m.t_delivered is not None
        assert m.latency > 0

    def test_unexpected_flagged(self):
        """A message is 'unexpected' when it is pulled from the wire
        while the receiver is blocked on a *different* receive — so
        tag 3 arrives while rank 1 waits for tag 5."""
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"early", dest=1, tag=3)
                yield from mpi.compute(50e-6)
                yield from mpi.send(b"later", dest=1, tag=5)
            else:
                yield from mpi.recv(source=0, tag=5)
                yield from mpi.recv(source=0, tag=3)

        tracer, _ = _run_traced(prog)
        recs = [m for m in tracer.messages if m.tag == 3]
        assert recs[0].unexpected
        recs5 = [m for m in tracer.messages if m.tag == 5]
        assert not recs5[0].unexpected

    def test_expected_not_flagged(self):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(100e-6)
                yield from mpi.send(b"late", dest=1, tag=4)
            else:
                yield from mpi.recv(source=0, tag=4)

        tracer, _ = _run_traced(prog)
        recs = [m for m in tracer.messages if m.tag == 4]
        assert not recs[0].unexpected

    def test_truncated_posted_receive_not_flagged(self):
        """A posted receive too small for its message still came
        first, though CH3 drains the message into a temp buffer."""
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(100e-6)
                yield from mpi.Send(mpi.alloc(4096), dest=1, tag=4)
            else:
                req = yield from mpi.Irecv(mpi.alloc(1024), 0, 4)
                try:
                    yield from mpi.Wait(req)
                except TruncateError:
                    return "truncated"

        tracer, results = _run_traced(prog)
        assert results[1] == "truncated"
        recs = [m for m in tracer.delivered() if m.tag == 4]
        assert len(recs) == 1 and not recs[0].unexpected

    def test_summary_and_fraction(self):
        def prog(mpi):
            for i in range(5):
                if mpi.rank == 0:
                    yield from mpi.send(bytes(10 * (i + 1)), dest=1,
                                        tag=i)
                else:
                    yield from mpi.recv(source=0, tag=i)

        tracer, _ = _run_traced(prog)
        assert len(tracer.delivered()) >= 5
        assert "messages" in tracer.summary()
        assert 0.0 <= tracer.unexpected_fraction() <= 1.0


def _pingpong(mpi):
    buf = mpi.alloc(256, "trace.buf")
    if mpi.rank == 0:
        buf.view()[:] = 0x7E
        yield from mpi.Send(buf, dest=1, tag=5)
        yield from mpi.Recv(buf, source=1, tag=6)
    else:
        yield from mpi.Recv(buf, source=0, tag=5)
        yield from mpi.Send(buf, dest=0, tag=6)


class TestTimelineIntegration:
    def test_delivered_messages_land_on_the_timeline(self):
        obs = Observability()
        _run_traced(_pingpong, design="piggyback", obs=obs)
        msgs = [a for a in obs.timeline.async_spans if a.cat == "msg"]
        assert len(msgs) == 2
        by_track = {a.track for a in msgs}
        assert by_track == {"rank0", "rank1"}
        for a in msgs:
            assert a.t1 > a.t0
            assert a.args["bytes"] == 256

    def test_without_obs_nothing_is_recorded(self):
        tracer, _ = _run_traced(_pingpong, design="piggyback")
        assert tracer.timeline is NULL_OBS.timeline
        assert len(NULL_OBS.timeline) == 0


class TestMessageRecord:
    def test_latency_and_repr(self):
        rec = MessageRecord(src=0, dst=1, tag=3, context=0, size=64,
                            t_posted=1.0)
        assert rec.latency is None
        assert "?" in repr(rec)
        rec.t_delivered = 1.5
        assert rec.latency == 0.5
        rec.unexpected = True
        assert "unexpected" in repr(rec)


class TestWaitVariants:
    def test_waitany_returns_first_completion(self):
        def prog(mpi):
            if mpi.rank == 0:
                bufs = [mpi.alloc(8) for _ in range(3)]
                reqs = []
                for i, b in enumerate(bufs):
                    r = yield from mpi.Irecv(b, source=1, tag=i)
                    reqs.append(r)
                idx, st = yield from mpi.Waitany(reqs)
                # tag 2 is sent first
                return idx, st.tag
            else:
                yield from mpi.compute(20e-6)
                yield from mpi.Send(b"22222222", dest=0, tag=2)
                yield from mpi.compute(50e-6)
                yield from mpi.Send(b"00000000", dest=0, tag=0)
                yield from mpi.Send(b"11111111", dest=0, tag=1)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[0] == (2, 2)

    def test_waitsome(self):
        def prog(mpi):
            if mpi.rank == 0:
                bufs = [mpi.alloc(8) for _ in range(3)]
                reqs = []
                for i, b in enumerate(bufs):
                    r = yield from mpi.Irecv(b, source=1, tag=i)
                    reqs.append(r)
                done = yield from mpi.Waitsome(reqs)
                yield from mpi.Waitall(reqs)
                return sorted(done)
            else:
                # tags 0 and 1 together, then 2 much later
                yield from mpi.Send(b"a" * 8, dest=0, tag=0)
                yield from mpi.Send(b"b" * 8, dest=0, tag=1)
                yield from mpi.compute(200e-6)
                yield from mpi.Send(b"c" * 8, dest=0, tag=2)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert 2 not in results[0]
        assert len(results[0]) >= 1

    def test_testall(self):
        def prog(mpi):
            if mpi.rank == 0:
                buf = mpi.alloc(8)
                req = yield from mpi.Irecv(buf, source=1, tag=0)
                early = yield from mpi.Testall([req])
                yield from mpi.Waitall([req])
                late = yield from mpi.Testall([req])
                return early, late
            else:
                yield from mpi.compute(100e-6)
                yield from mpi.Send(b"12345678", dest=0, tag=0)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[0] == (False, True)

    def test_waitany_validates_input(self):
        from repro.mpi import MpiError

        def prog(mpi):
            try:
                yield from mpi.Waitany([])
            except MpiError:
                return "caught"

        results, _ = run_mpi(1, prog, design="zerocopy")
        assert results[0] == "caught"
