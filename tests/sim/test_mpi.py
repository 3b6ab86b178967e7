"""Tests for the MPI-like communicator: pt2pt, collectives, split, clocks."""

import numpy as np
import pytest

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


class TestCollectives:
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
