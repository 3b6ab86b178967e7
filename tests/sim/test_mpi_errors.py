"""Error-path and payload-variety tests for the communicator."""

import numpy as np
import pytest

from repro.sim import Cluster, Job, ReduceOp


def run(main, n_ranks=4, **kw):
    cl = Cluster(n_ranks)
    res = Job(cl, main, n_ranks, procs_per_node=1, **kw).run()
    return res


class TestErrorPaths:
    def test_cost_callback_error_reaches_every_rank(self):
        def main(ctx):
            comm = ctx.world
            with pytest.raises(ZeroDivisionError):
                comm.custom_collective(
                    comm.rank,
                    compute=lambda data: dict(data),
                    cost=lambda data: 1 / 0,
                )
            # the failed collective charged nothing and left the slot clean
            assert comm.allgather(comm.rank) == list(range(comm.size))
            return True

        assert run(main).completed

    def test_comm_use_outside_rank_thread_rejected(self):
        # job.world is the world's shared group: a rank, and with it send
        # and recv, belong to the handle each rank main gets as ctx.world
        cl = Cluster(1)
        job = Job(cl, lambda ctx: None, 1, procs_per_node=1)
        job.run()
        for name in ("rank", "send", "recv"):
            assert not hasattr(job.world, name)


class TestPayloadVariety:
    @pytest.mark.parametrize(
        "payload",
        [
            42,
            3.14,
            "string",
            b"bytes",
            None,
            {"nested": {"dict": [1, 2]}},
            (1, "two", 3.0),
            np.arange(6).reshape(2, 3),
            np.array([], dtype=np.float32),
            np.float32(1.5),
        ],
        ids=lambda p: type(p).__name__ + (str(getattr(p, "shape", "")) or ""),
    )
    def test_roundtrip_many_types(self, payload):
        def main(ctx):
            comm = ctx.world
            if comm.rank == 0:
                comm.send(payload, 1)
                return True
            got = comm.recv(0)
            if isinstance(payload, np.ndarray):
                np.testing.assert_array_equal(got, payload)
            elif isinstance(payload, np.floating):
                assert got == payload
            else:
                assert got == payload
            return True

        res = run(main, n_ranks=2)
        assert res.completed, res.rank_errors

    def test_fortran_order_array(self):
        def main(ctx):
            comm = ctx.world
            if comm.rank == 0:
                a = np.asfortranarray(np.arange(12).reshape(3, 4))
                comm.send(a, 1)
            else:
                got = comm.recv(0)
                np.testing.assert_array_equal(got, np.arange(12).reshape(3, 4))
            return True

        assert run(main, n_ranks=2).completed

    def test_reduce_preserves_dtype(self):
        def main(ctx):
            comm = ctx.world
            out = comm.allreduce(np.ones(4, dtype=np.int32), ReduceOp.SUM)
            assert out.dtype == np.int32
            assert np.all(out == comm.size)
            return True

        assert run(main).completed
