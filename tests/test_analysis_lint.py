"""Protocol-contract linter: per-rule positives/negatives, the allow
annotation, and the clean-tree guarantee."""

from repro.analysis import lint_source
from repro.analysis.core import Finding
from repro.analysis.lint import default_root, run_lint

CHANNEL_PATH = "src/repro/mpich2/channels/ring_mutant.py"
PLAIN_PATH = "src/repro/sim/something.py"


def rules_of(source, path=CHANNEL_PATH):
    return {f.rule for f in lint_source(source, path)}


# ---------------------------------------------------------------------
# determinism rules (repo-wide)
# ---------------------------------------------------------------------

class TestDeterminismRules:
    def test_wallclock_flagged(self):
        src = """
        import time
        def stamp():
            return time.time()
        """
        assert "wallclock" in rules_of(src, PLAIN_PATH)

    def test_monotonic_flagged(self):
        src = """
        import time
        def stamp():
            return time.perf_counter()
        """
        assert "wallclock" in rules_of(src, PLAIN_PATH)

    def test_unseeded_random_flagged(self):
        src = """
        import random
        def pick(xs):
            return random.choice(xs)
        """
        assert "unseeded-random" in rules_of(src, PLAIN_PATH)

    def test_seeded_rng_ok(self):
        src = """
        import random
        def pick(xs, seed):
            return random.Random(seed).choice(xs)
        """
        assert "unseeded-random" not in rules_of(src, PLAIN_PATH)

    def test_id_key_flagged(self):
        src = """
        def index(objs):
            table = {}
            for o in objs:
                table[id(o)] = o
            return table
        """
        assert "id-key" in rules_of(src, PLAIN_PATH)

    def test_id_in_repr_ok(self):
        src = """
        class C:
            def __repr__(self):
                return f"<C {id(self):#x}>"
        """
        assert "id-key" not in rules_of(src, PLAIN_PATH)

    def test_set_iteration_flagged(self):
        src = """
        def drain(items):
            for x in set(items):
                yield x
        """
        assert "set-iteration" in rules_of(src, PLAIN_PATH)

    def test_sorted_set_ok(self):
        src = """
        def drain(items):
            for x in sorted(set(items)):
                yield x
        """
        assert "set-iteration" not in rules_of(src, PLAIN_PATH)


# ---------------------------------------------------------------------
# verbs-contract rules (mpich2/ scope)
# ---------------------------------------------------------------------

class TestContractRules:
    def test_torn_ring_write_flagged(self):
        src = """
        def post(self, base):
            yield from self.ctx.rdma_write(
                self.qp,
                [(self.staging.addr + base, HDR_SIZE,
                  self.staging_mr.lkey)],
                self.remote_base + base, self.remote_rkey)
        """
        assert "ring-write-torn" in rules_of(src)

    def test_full_chunk_write_ok(self):
        src = """
        def post(self, base, payload_len):
            nbytes = HDR_SIZE + payload_len + TRAILER_SIZE
            yield from self.ctx.rdma_write(
                self.qp,
                [(self.staging.addr + base, nbytes,
                  self.staging_mr.lkey)],
                self.remote_base + base, self.remote_rkey)
        """
        assert "ring-write-torn" not in rules_of(src)

    def test_contract_rules_off_outside_scope(self):
        src = """
        def post(self, base):
            yield from self.ctx.rdma_write(
                self.qp,
                [(self.staging.addr + base, HDR_SIZE,
                  self.staging_mr.lkey)],
                self.remote_base + base, self.remote_rkey)
        """
        assert "ring-write-torn" not in rules_of(src, PLAIN_PATH)

    def test_credit_publish_flagged(self):
        src = """
        def skip(self):
            self.credit_sent = self.consumed
        """
        assert "credit-publish" in rules_of(src)

    def test_credit_publish_after_write_ok(self):
        src = """
        def send(self):
            yield from self.ctx.rdma_write(self.qp, [], 0, 0)
            self.credit_sent = self.consumed
        """
        assert "credit-publish" not in rules_of(src)

    def test_zc_dereg_without_ack_flagged(self):
        src = """
        def done(self, conn):
            yield from self.ctx.dereg_mr(conn.zc_send.mr)
        """
        assert "zc-dereg-before-ack" in rules_of(src)

    def test_zc_dereg_after_ack_ok(self):
        src = """
        def done(self, conn):
            if not conn.zc_send.acked:
                return
            yield from self.ctx.dereg_mr(conn.zc_send.mr)
        """
        assert "zc-dereg-before-ack" not in rules_of(src)

    def test_zc_dereg_nak_path_exempt(self):
        src = """
        def handle_nak(self, conn):
            yield from self.ctx.dereg_mr(conn.zc_send.mr)
        """
        assert "zc-dereg-before-ack" not in rules_of(src)

    def test_ack_before_read_flagged(self):
        src = """
        def early(self, conn, op_id):
            yield from self._emit_control(conn, KIND_ACK, aux=op_id)
        """
        assert "ack-before-read-done" in rules_of(src)

    def test_ack_after_poll_ok(self):
        src = """
        def late(self, conn, op_id):
            finished = yield from self._poll_zcopy_read(conn)
            if finished:
                yield from self._emit_control(conn, KIND_ACK,
                                              aux=op_id)
        """
        assert "ack-before-read-done" not in rules_of(src)

    def test_mr_use_after_dereg_flagged(self):
        src = """
        def bad(self, mr):
            yield from self.ctx.dereg_mr(mr)
            return mr.rkey
        """
        assert "mr-use-after-dereg" in rules_of(src)

    def test_mr_length_after_dereg_ok(self):
        src = """
        def fine(self, mr):
            yield from self.ctx.dereg_mr(mr)
            self.pinned -= mr.length
        """
        assert "mr-use-after-dereg" not in rules_of(src)

    def test_dead_protocol_param_flagged(self):
        src = """
        def absorb(self, credit):
            return None
        """
        assert "dead-protocol-param" in rules_of(src)

    def test_stub_exempt(self):
        src = """
        def absorb(self, credit):
            raise NotImplementedError
        """
        assert "dead-protocol-param" not in rules_of(src)

    def test_silent_generator_flagged(self):
        src = """
        def copy_out(self, buf):
            return None
            yield
        """
        assert "silent-generator" in rules_of(src)

    def test_identity_arith_flagged(self):
        src = """
        def send(self, src, tag):
            return pack_header(0, src, tag + 1, 0, 0)
        """
        assert "header-identity-arith" in rules_of(src)

    def test_identity_arith_alias_resolved(self):
        src = """
        orig = ch3.pack_header
        def send(self, src, tag):
            return orig(0, src + 1, tag, 0, 0)
        """
        assert "header-identity-arith" in rules_of(src)

    def test_identity_verbatim_ok(self):
        src = """
        def send(self, src, tag):
            return pack_header(0, src, tag, 0, 0)
        """
        assert "header-identity-arith" not in rules_of(src)


# ---------------------------------------------------------------------
# hygiene rules
# ---------------------------------------------------------------------

class TestHygieneRules:
    def test_positional_config_flagged(self):
        src = """
        def build():
            return HardwareConfig(1.0, 2.0)
        """
        assert "positional-config" in rules_of(src, PLAIN_PATH)

    def test_keyword_config_ok(self):
        src = """
        def build():
            return HardwareConfig(link_rate=1.0)
        """
        assert "positional-config" not in rules_of(src, PLAIN_PATH)

    def test_unpaired_gauge_flagged(self):
        src = """
        class C:
            def __init__(self, m):
                self._m_pinned = m.gauge("pinned")
            def pin(self, n):
                self._m_pinned.add(n)
        """
        assert "unpaired-gauge" in rules_of(src, PLAIN_PATH)

    def test_paired_gauge_ok(self):
        src = """
        class C:
            def __init__(self, m):
                self._m_pinned = m.gauge("pinned")
            def pin(self, n):
                self._m_pinned.add(n)
            def unpin(self, n):
                self._m_pinned.add(-n)
        """
        assert "unpaired-gauge" not in rules_of(src, PLAIN_PATH)


# ---------------------------------------------------------------------
# suppression, tree
# ---------------------------------------------------------------------

class TestPlumbing:
    def test_allow_on_same_line(self):
        src = """
        def skip(self):
            self.credit_sent = self.consumed  # lint: allow(credit-publish, piggybacked)
        """
        assert "credit-publish" not in rules_of(src)

    def test_allow_on_line_above(self):
        src = """
        def skip(self):
            # lint: allow(credit-publish)
            self.credit_sent = self.consumed
        """
        assert "credit-publish" not in rules_of(src)

    def test_allow_combined_with_other_comment(self):
        src = """
        def gen(self):
            return None
            yield  # pragma: no cover; lint: allow(silent-generator, empty generator)
        """
        assert "silent-generator" not in rules_of(src)

    def test_allow_only_suppresses_named_rule(self):
        src = """
        def skip(self):
            self.credit_sent = self.consumed  # lint: allow(wallclock)
        """
        assert "credit-publish" in rules_of(src)

    def test_clean_tree_zero_findings(self):
        report = run_lint()
        assert report.findings == [], "\n" + report.format()
        assert report.files_checked > 50

    def test_finding_format(self):
        f = Finding(rule="wallclock", path="a/b.py", line=3,
                    message="no clocks")
        assert f.format() == "a/b.py:3: [wallclock] no clocks"

    def test_default_root_is_src(self):
        root = default_root()
        assert (root / "repro" / "analysis").is_dir()
        assert root.name == "src"
