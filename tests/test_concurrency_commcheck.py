"""Tests of comm-check, the static MPI protocol verifier (CC-series)."""

from __future__ import annotations

import textwrap

from repro.analysis import analyze
from repro.analysis.concurrency import (
    build_program,
    check_sources,
)
from repro.analysis.concurrency.commcheck import ANY


def check(text: str, path: str = "src/repro/cluster/fixture.py"):
    return check_sources({path: textwrap.dedent(text)})


def rules_of(report):
    return [v.rule for v in report.violations]


# A minimal halo-style protocol: symmetric sends and receives over the
# six faces, tags derived from (axis, side) exactly like
# repro.cluster.halo does.
HALO_OK = """
    def _face_tag(axis, side):
        'Returns the face tag.'
        return axis * 2 + (0 if side == -1 else 1)

    def exchange(comm, frames):
        'Symmetric six-face halo exchange.'
        for axis in range(3):
            for side in (-1, 1):
                comm.send(frames[axis], dest=0, tag=_face_tag(axis, side))
        for axis in range(3):
            for side in (-1, 1):
                frames[axis] = comm.recv(source=0, tag=_face_tag(axis, -side))
    """


# -- skeleton extraction ---------------------------------------------------


def test_skeleton_enumerates_loop_tags():
    program = build_program(
        {"src/repro/cluster/fixture.py": textwrap.dedent(HALO_OK)}
    )
    sends = program.sends()
    recvs = program.recvs()
    assert len(sends) == 1 and len(recvs) == 1
    assert sends[0].tags == frozenset(range(6))
    assert recvs[0].tags == frozenset(range(6))


def test_skeleton_records_wildcards_as_any():
    program = build_program({
        "src/repro/cluster/fixture.py": textwrap.dedent(
            """
            def pull(comm):
                'Receives from anyone.'
                return comm.recv(source=-1, tag=-1)
            """
        )
    })
    (recv,) = program.recvs()
    assert recv.peer == ANY and recv.tags is None


def test_skeleton_ignores_non_comm_receivers():
    program = build_program({
        "src/repro/cluster/fixture.py": textwrap.dedent(
            """
            def post(queue, sock):
                'Not MPI traffic: unrelated send/recv attribute names.'
                queue.send(b"x")
                return sock.recv(1024)
            """
        )
    })
    assert program.sites == []


# -- CC001/CC002: halo symmetry -------------------------------------------


def test_symmetric_halo_protocol_is_clean():
    assert check(HALO_OK).violations == []


def test_cc001_flags_dropped_halo_recv():
    dropped = HALO_OK.replace(
        "for side in (-1, 1):\n                frames[axis] = comm.recv",
        "for side in (-1, 1):\n                if side == -1:\n"
        "                    frames[axis] = comm.recv",
    )
    report = check(dropped)
    assert "CC001" in rules_of(report)
    (v,) = [v for v in report.violations if v.rule == "CC001"]
    # The receives kept are _face_tag(axis, 1) = {1, 3, 5}; the even
    # send tags lost their partners.
    assert "0" in v.message and "2" in v.message and "4" in v.message


def test_cc002_flags_recv_without_send():
    report = check(
        """
        def pull(comm):
            'Posts a receive nobody ever sends to.'
            return comm.recv(source=0, tag=9)
        """
    )
    assert rules_of(report) == ["CC002"]


def test_mismatched_tag_flags_both_endpoints():
    report = check(
        """
        def exchange(comm, payload):
            'Send tag and recv tag disagree.'
            comm.send(payload, dest=1, tag=3)
            return comm.recv(source=0, tag=4)
        """
    )
    assert sorted(rules_of(report)) == ["CC001", "CC002"]


def test_dynamic_tags_match_conservatively():
    # A dynamic (unresolvable) tag may match anything: no findings.
    report = check(
        """
        def exchange(comm, payload, step):
            'Tags derived from runtime state.'
            comm.send(payload, dest=1, tag=step)
            return comm.recv(source=0, tag=step)
        """
    )
    assert report.violations == []


# -- CC003: rank-dependent collectives ------------------------------------


def test_cc003_flags_direct_rank_conditional_collective():
    report = check(
        """
        def sync(comm):
            'Only rank 0 enters the barrier: classic SPMD deadlock.'
            if comm.rank == 0:
                comm.barrier()
        """
    )
    assert rules_of(report) == ["CC003"]


def test_cc003_flags_interprocedural_collective():
    report = check(
        """
        def save(comm, field):
            'Gathers the field before writing.'
            return comm.gather(field)

        def maybe_save(comm, field):
            'Rank-guarded call into a collective-bearing helper.'
            if comm.rank == 0:
                save(comm, field)
        """
    )
    assert "CC003" in rules_of(report)


def test_cc003_clean_for_uniform_collectives():
    report = check(
        """
        def sync(comm, value):
            'Every rank reaches both collectives unconditionally.'
            comm.barrier()
            return comm.allreduce(value)
        """
    )
    assert report.violations == []


def test_cc003_clean_for_non_rank_conditionals():
    report = check(
        """
        def sync(comm, step):
            'The guard is rank-uniform, so the collective is safe.'
            if step % 10 == 0:
                comm.barrier()
        """
    )
    assert report.violations == []


# -- CC004: endpoint dtype consistency ------------------------------------


def test_cc004_flags_dtype_mismatch():
    report = check(
        """
        import numpy as np

        def push(comm, field):
            'Sends halved-precision data.'
            comm.send(field.astype(np.float16), dest=1, tag=3)

        def pull(comm):
            'Receives into a single-precision buffer.'
            buf = np.zeros(8, dtype=np.float32)
            buf[:] = comm.recv(source=0, tag=3)
            return buf
        """
    )
    assert "CC004" in rules_of(report)
    (v,) = [v for v in report.violations if v.rule == "CC004"]
    assert "float16" in v.message and "float32" in v.message


def test_cc004_clean_when_dtypes_agree():
    report = check(
        """
        import numpy as np

        def push(comm, field):
            'Sends single-precision data.'
            comm.send(field.astype(np.float32), dest=1, tag=3)

        def pull(comm):
            'Receives into a matching buffer.'
            buf = np.zeros(8, dtype=np.float32)
            buf[:] = comm.recv(source=0, tag=3)
            return buf
        """
    )
    assert report.violations == []


# -- pragmas and wrappers --------------------------------------------------


def test_pragma_disables_cc_rule_at_site():
    report = check(
        """
        def sync(comm):
            'Deliberately asymmetric, justified in-line.'
            if comm.rank == 0:
                comm.barrier()  # lint: disable=CC003
        """
    )
    assert report.violations == []
    assert report.checks_run > 0


def test_send_wrapper_resolved_through_call_sites():
    # Tag/neighbor flow through a one-level wrapper, the idiom
    # repro.cluster.halo uses (_send_frame).  All call-site tags are
    # enumerated; the unmatched one is reported.
    report = check(
        """
        def _send_frame(comm, nbr, tag, payload):
            'Wrapper owning the actual send call.'
            comm.send(payload, dest=nbr, tag=tag)

        def exchange(comm, payload):
            'Two wrapped sends, one matching receive.'
            _send_frame(comm, 1, 10, payload)
            _send_frame(comm, 1, 11, payload)
            return comm.recv(source=0, tag=10)
        """
    )
    assert rules_of(report) == ["CC001"]
    (v,) = report.violations
    assert "11" in v.message


# -- whole-tree acceptance -------------------------------------------------


def test_comm_check_clean_on_repo_tree(src_program):
    report = analyze(src_program, "comm")[1]
    assert report.violations == [], "\n" + "\n".join(
        v.format() for v in report.violations
    )
    assert report.checks_run > 0


def test_report_shapes():
    report = check(HALO_OK)
    assert len(report) == 0
    assert "clean" in report.summary()
    d = report.to_dict()
    assert d["findings"] == [] and d["checks_run"] == report.checks_run
