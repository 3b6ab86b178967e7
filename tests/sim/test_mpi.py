"""Tests for the MPI-like communicator: pt2pt, collectives, split, clocks."""

import enum
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Cluster, Job, ReduceOp


def run(main, n_ranks=4, procs_per_node=2, n_nodes=4, **job_kwargs):
    cl = Cluster(n_nodes)
    job = Job(cl, main, n_ranks, procs_per_node=procs_per_node, **job_kwargs)
    res = job.run()
    assert res.completed, res.rank_errors
    return res


class TestPointToPoint:
    def test_ring_exchange(self):
        def main(ctx):
            comm = ctx.world
            r, p = comm.rank, comm.size
            comm.send(np.full(8, r, dtype=np.int64), (r + 1) % p, tag=5)
            got = comm.recv((r - 1) % p, tag=5)
            assert np.all(got == (r - 1) % p)
            return True

        run(main)

    def test_payload_isolation(self):
        """A received array must not alias the sender's buffer."""

        def main(ctx):
            comm = ctx.world
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(buf, 1)
                buf[:] = 99.0  # mutate after send
            elif comm.rank == 1:
                got = comm.recv(0)
                assert np.all(got == 1.0)
            return True

        run(main, n_ranks=2)

    def test_tag_matching(self):
        def main(ctx):
            comm = ctx.world
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
            elif comm.rank == 1:
                assert comm.recv(0, tag=2) == "b"
                assert comm.recv(0, tag=1) == "a"
            return True

        run(main, n_ranks=2)

    def test_fifo_per_channel(self):
        def main(ctx):
            comm = ctx.world
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, 1)
            elif comm.rank == 1:
                got = [comm.recv(0) for _ in range(5)]
                assert got == list(range(5))
            return True

        run(main, n_ranks=2)

    def test_sendrecv(self):
        def main(ctx):
            comm = ctx.world
            r, p = comm.rank, comm.size
            got = comm.sendrecv(r, dest=(r + 1) % p, source=(r - 1) % p)
            assert got == (r - 1) % p
            return True

        run(main)

    def test_recv_advances_clock(self):
        def main(ctx):
            comm = ctx.world
            if comm.rank == 0:
                ctx.elapse(1.0)
                comm.send(np.zeros(1000), 1)
            elif comm.rank == 1:
                comm.recv(0)
                assert ctx.clock >= 1.0  # receive completes after the send
            return True

        run(main, n_ranks=2)

    def test_bad_dest_rejected(self):
        def main(ctx):
            if ctx.world.rank == 0:
                with pytest.raises(ValueError):
                    ctx.world.send(1, dest=99)
            return True

        run(main, n_ranks=2)

    def test_bad_source_rejected(self):
        """A source outside the communicator is a usage error, like a bad
        dest — not an IndexError, nor a wrap-around to the last rank."""

        def main(ctx):
            comm = ctx.world
            if comm.rank == 1:
                comm.send("queued", dest=0)
                return True
            for source in (5, 2, -1):
                with pytest.raises(ValueError, match=f"bad source {source}"):
                    comm.recv(source)
            assert comm.recv(1) == "queued"
            return True

        run(main, n_ranks=2)


    @pytest.mark.parametrize("bad", [1.5, True, float("nan")], ids=["float", "bool", "nan"])
    def test_non_integral_ranks_refused_by_name(self, bad):
        """A float rank used to post to a mailbox nobody reads (the job then
        ended in a deadlock) and ``True`` was taken as rank 1."""

        def main(ctx):
            comm = ctx.world
            if comm.rank == 0:
                with pytest.raises(TypeError, match="dest must be an integer rank"):
                    comm.send("x", dest=bad)
                with pytest.raises(TypeError, match="source must be an integer rank"):
                    comm.recv(source=bad)
                with pytest.raises(TypeError, match="dest must be an integer rank"):
                    comm.sendrecv("x", dest=bad, source=1)
            for collective in (comm.bcast, comm.gather):
                with pytest.raises(TypeError, match="root must be an integer rank"):
                    collective("x", root=bad)
            comm.send(comm.rank, dest=np.int64(1 - comm.rank))  # numpy integers are ranks
            return comm.recv(source=np.int32(1 - comm.rank))

        assert run(main, n_ranks=2).rank_results == {0: 1, 1: 0}


class TestCollectives:
    def test_gather_gives_the_root_copies(self):
        """Like every other collective, ``gather`` hands the root copies of
        the other members' payloads, never the objects themselves."""

        def main(ctx):
            comm = ctx.world
            mine = np.full(2, float(comm.rank))
            got = comm.gather(mine, root=0)
            if comm.rank == 0:
                assert got[0] is mine  # the root's own object stays its own
                got[1][:] = 99.0
            comm.barrier()
            return mine.tolist()

        assert run(main, n_ranks=2).rank_results == {0: [0.0, 0.0], 1: [1.0, 1.0]}

    def test_bad_root_rejected(self):
        """Every member raises at entry, so the communicator stays usable."""

        def main(ctx):
            comm = ctx.world
            for root in (-1, 4, 7):
                with pytest.raises(ValueError, match=f"bad root {root}"):
                    comm.bcast("x", root=root)
                with pytest.raises(ValueError, match=f"bad root {root}"):
                    comm.gather(comm.rank, root=root)
            got = comm.gather(comm.rank, root=3)
            assert got == ([0, 1, 2, 3] if comm.rank == 3 else None)
            return True

        run(main, n_ranks=4)

    def test_bcast(self):
        def main(ctx):
            comm = ctx.world
            data = {"v": 42} if comm.rank == 1 else None
            got = comm.bcast(data, root=1)
            assert got == {"v": 42}
            return True

        run(main)

    def test_allreduce_bxor(self):
        def main(ctx):
            comm = ctx.world
            v = np.array([1 << comm.rank], dtype=np.uint64)
            out = comm.allreduce(v, ReduceOp.BXOR)
            assert out[0] == (1 << comm.size) - 1
            return True

        run(main)

    def test_allreduce_max_min(self):
        def main(ctx):
            comm = ctx.world
            r = float(comm.rank)
            assert comm.allreduce(np.array([r]), ReduceOp.MAX)[0] == comm.size - 1
            assert comm.allreduce(np.array([r]), ReduceOp.MIN)[0] == 0.0
            return True

        run(main)

    def test_allreduce_obj_maxloc(self):
        """The HPL pivot-search pattern."""

        def main(ctx):
            comm = ctx.world
            mine = (abs(3.0 - comm.rank), comm.rank)  # rank 3 has max... min value
            best = comm.allreduce_obj(mine, lambda a, b: max(a, b))
            assert best[1] == 0  # rank 0 holds value 3.0, the max
            return True

        run(main)

    def test_gather_allgather(self):
        def main(ctx):
            comm = ctx.world
            out = comm.gather(comm.rank * 10, root=0)
            if comm.rank == 0:
                assert out == [0, 10, 20, 30]
            else:
                assert out is None
            assert comm.allgather(comm.rank) == [0, 1, 2, 3]
            return True

        run(main)

    def test_barrier_synchronizes_clocks(self):
        def main(ctx):
            comm = ctx.world
            ctx.elapse(float(comm.rank))  # skewed clocks
            comm.barrier()
            assert ctx.clock >= comm.size - 1
            return True

        run(main)

    def test_collective_clock_sync(self):
        def main(ctx):
            comm = ctx.world
            ctx.elapse(2.0 if comm.rank == 0 else 0.0)
            comm.allreduce(np.zeros(8))
            assert ctx.clock >= 2.0  # everyone waits for the slowest
            return True

        run(main)

    def test_back_to_back_collectives(self):
        def main(ctx):
            comm = ctx.world
            for i in range(20):
                s = comm.allreduce(np.array([1.0]))
                assert s[0] == comm.size
            return True

        run(main, n_ranks=8, n_nodes=4)

    def test_bcast_deep_copies_to_peers(self):
        def main(ctx):
            comm = ctx.world
            arr = comm.bcast(np.zeros(4), root=0)
            arr += comm.rank  # each rank's copy is private
            total = comm.allreduce(arr, ReduceOp.SUM)
            assert total[0] == sum(range(comm.size))
            return True

        run(main)


class TestAllgatherSharing:
    """Immutable payloads are shared, mutable ones copied per member."""

    def test_immutable_payloads_are_shared_and_each_list_is_its_own(self, monkeypatch):
        from repro.sim import mpi

        copied = []
        real = mpi._copy_payload
        monkeypatch.setattr(mpi, "_copy_payload", lambda obj: copied.append(obj) or real(obj))

        def main(ctx):
            got = ctx.world.allgather(10 * ctx.rank)
            if ctx.rank == 0:
                got[1] = -1
                got.append("mine")
            ctx.world.barrier()
            return got

        res = run(main)
        assert copied == []
        assert res.rank_results[0] == [0, -1, 20, 30, "mine"]
        assert all(res.rank_results[r] == [0, 10, 20, 30] for r in (1, 2, 3))

    def test_array_payloads_arrive_as_one_copy_per_member(self):
        def main(ctx):
            mine = np.full(3, ctx.rank)
            got = ctx.world.allgather(mine)
            got[0][:] = -1
            ctx.world.barrier()
            return mine, got

        res = run(main)
        assert np.array_equal(res.rank_results[0][0], [0, 0, 0])
        firsts = [res.rank_results[r][1][0] for r in range(4)]
        assert len({id(a) for a in firsts}) == 4
        assert all(np.array_equal(a, [-1, -1, -1]) for a in firsts)
        assert np.array_equal(res.rank_results[1][1][1], [1, 1, 1])


class TestSplit:
    def test_split_by_parity(self):
        def main(ctx):
            comm = ctx.world
            sub = comm.split(color=comm.rank % 2)
            assert sub.size == comm.size // 2
            assert sub.members == [
                r for r in range(comm.size) if r % 2 == comm.rank % 2
            ]
            s = sub.allreduce(np.array([float(comm.rank)]))
            expect = sum(r for r in range(comm.size) if r % 2 == comm.rank % 2)
            assert s[0] == expect
            return True

        run(main, n_ranks=8, n_nodes=4)

    def test_split_key_ordering(self):
        def main(ctx):
            comm = ctx.world
            sub = comm.split(color=0, key=-comm.rank)  # reversed order
            assert sub.rank == comm.size - 1 - comm.rank
            return True

        run(main)

    def test_nested_split(self):
        def main(ctx):
            comm = ctx.world
            row = comm.split(color=comm.rank // 2)
            col = comm.split(color=comm.rank % 2)
            assert row.size == 2 and col.size == 2
            row.barrier()
            col.barrier()
            return True

        run(main)

    def test_children_are_numbered_once_per_split(self):
        """``split1``, ``split2``, ... — by the completing rank, not by how
        many ranks had called ``split`` when each one read the counter."""

        def main(ctx):
            comm = ctx.world
            return comm.split(color=comm.rank % 2).name, comm.split(color=0).name

        res = run(main, n_ranks=8, n_nodes=4)
        assert res.rank_results == {
            r: (f"job.world/split1.{r % 2}", "job.world/split2.0") for r in range(8)
        }


class TestVirtualTime:
    def test_compute_charges_core_speed(self):
        def main(ctx):
            ctx.compute(ctx.node.spec.flops_per_core)  # exactly 1s of work
            assert ctx.clock == pytest.approx(1.0)
            return True

        run(main, n_ranks=1, procs_per_node=1, n_nodes=1)

    def test_efficiency_scales_time(self):
        def main(ctx):
            ctx.compute(ctx.node.spec.flops_per_core, efficiency=0.5)
            assert ctx.clock == pytest.approx(2.0)
            return True

        run(main, n_ranks=1, procs_per_node=1, n_nodes=1)

    def test_negative_elapse_rejected(self):
        def main(ctx):
            with pytest.raises(ValueError):
                ctx.elapse(-1.0)
            return True

        run(main, n_ranks=1, procs_per_node=1, n_nodes=1)

    def test_non_finite_time_rejected(self):
        """A NaN or infinite charge would finish the job on a clock that
        is not a time."""

        def main(ctx):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="non-finite"):
                    ctx.elapse(bad)
                with pytest.raises(ValueError, match="finite"):
                    ctx.compute(bad)
            assert ctx.clock == 0.0
            return True

        res = run(main, n_ranks=1, procs_per_node=1, n_nodes=1)
        assert res.makespan == 0.0


def _reference_nbytes(obj):
    """The isinstance chain that prices every payload, without the
    exact-type fast path in front of it: the fast path's reference."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_reference_nbytes(x) for x in obj) or 64
    if isinstance(obj, dict):
        total = sum(_reference_nbytes(k) + _reference_nbytes(v) for k, v in obj.items())
        return total or 64
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    return 64


_Pair = namedtuple("_Pair", "a b")


class _Level(enum.IntEnum):
    LOW = 1


_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.binary(max_size=6).map(bytearray),
    st.binary(max_size=6).map(memoryview),
    st.just(_Level.LOW),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(0, 5).map(lambda n: np.zeros(n, dtype=np.float64)),
    st.integers(0, 5).map(lambda n: np.arange(n, dtype=np.uint8)),
)
_KEYS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.tuples(st.integers(), st.text(max_size=2)),
)
_PAYLOADS = st.recursive(
    _ATOMS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_KEYS, kids, max_size=3),
        st.tuples(kids, kids).map(lambda t: _Pair(*t)),
    ),
    max_leaves=12,
)


class TestPayloadNbytes:
    """Wire-size accounting, incl. the dict-key undercount fix."""

    def test_array_uses_nbytes(self):
        from repro.sim.mpi import _payload_nbytes

        assert _payload_nbytes(np.zeros(16, dtype=np.float64)) == 128

    def test_dict_charges_keys_and_values(self):
        from repro.sim.mpi import _payload_nbytes

        arr = np.zeros(8, dtype=np.float64)  # 64 bytes
        d = {"epoch": arr}
        # 5 bytes of key + 64 bytes of value — the key must be charged
        assert _payload_nbytes(d) == len("epoch") + arr.nbytes

    def test_metadata_heavy_dict_not_undercounted(self):
        from repro.sim.mpi import _payload_nbytes

        meta = {f"flag.{i:04d}": 0 for i in range(100)}
        only_values = 100 * 64  # _SMALL_OBJ_BYTES per int value
        assert _payload_nbytes(meta) > only_values

    def test_string_payload_charged_by_length(self):
        from repro.sim.mpi import _payload_nbytes

        assert _payload_nbytes("x" * 256) == 256

    def test_nested_containers(self):
        from repro.sim.mpi import _payload_nbytes

        inner = np.zeros(4, dtype=np.float64)  # 32 bytes
        assert _payload_nbytes([{"a": inner}, {"b": inner}]) == 2 * (1 + 32)

    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_fast_path_matches_the_isinstance_chain(self, obj):
        from repro.sim.mpi import _payload_nbytes

        assert _payload_nbytes(obj) == _reference_nbytes(obj)


class TestCopyPayload:
    """Value semantics without ``deepcopy``; ``deepcopy`` is the reference."""

    def test_equals_deepcopy_and_never_aliases_mutables(self):
        import copy
        from collections import OrderedDict

        from repro.sim.mpi import _copy_payload

        arr = np.arange(6.0).reshape(2, 3)
        payloads = [
            (True, 7, (1, 2, 3)),  # the status tuple of Checkpointer._exchange_status
            [arr, {"rows": (arr[0], [arr[1]])}, None, "s", b"b", 2.5],
            {"k": [1, [2, [3]]], ("t", 1): arr},
            OrderedDict(a=[arr]),  # not a plain dict: deepcopy's own
            np.float64(1.5),
        ]
        for obj in payloads:
            got, ref = _copy_payload(obj), copy.deepcopy(obj)
            assert type(got) is type(ref)
            assert repr(got) == repr(ref)

        nested = [arr, {"rows": (arr, [arr])}]
        got = _copy_payload(nested)
        got[0][:] = -1
        got[1]["rows"][1][0][:] = -2
        got[1]["rows"][1].append("extra")
        assert np.array_equal(arr, np.arange(6.0).reshape(2, 3))
        assert len(nested[1]["rows"][1]) == 1

    def test_immutable_tuples_are_shared_as_deepcopy_shares_them(self):
        import copy

        from repro.sim.mpi import _copy_payload

        status = (True, 7, (1, 2, (None, "s", b"b", 2.5)))
        assert _copy_payload(status) is status
        assert copy.deepcopy(status) is status
        statuses = [status, (False, 3, ())]
        got = _copy_payload(statuses)
        assert got is not statuses and got == statuses
        assert all(a is b for a, b in zip(got, statuses))

    def test_tuple_holding_a_list_or_an_array_is_still_copied(self):
        from repro.sim.mpi import _copy_payload

        arr = np.arange(3.0)
        for obj in [(1, [2, 3]), (1, arr), (1, (2, [3]))]:
            got = _copy_payload(obj)
            assert got is not obj
        got = _copy_payload((1, (2, [3]), arr))
        got[1][1].append(4)
        got[2][:] = -1
        assert np.array_equal(arr, np.arange(3.0))
