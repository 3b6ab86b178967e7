"""Tests for block-cyclic maps, the process grid, and matrix generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpl import BlockCyclicMap, HPLConfig, ProcessGrid
from repro.hpl.grid import swap_plan
from repro.hpl.matgen import dense_matrix, dense_rhs, generate_local_system
from repro.sim import Cluster, Job
from repro.util.rng import block_rng

#: one-word, word-boundary, two-word and three-word seeds
SEEDS = [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 1]


class TestConfig:
    def test_derived_quantities(self):
        cfg = HPLConfig(n=100, nb=16, p=2, q=3)
        assert cfg.n_ranks == 6
        assert cfg.n_blocks == 7
        assert cfg.flops == pytest.approx((2 / 3) * 100**3 + 1.5 * 100**2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "nb": 1, "p": 1, "q": 1},
            {"n": 4, "nb": 8, "p": 1, "q": 1},
            {"n": 4, "nb": 2, "p": 0, "q": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HPLConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 64.0), ("seed", 1.5), ("seed", float("nan")), ("p", True)],
        ids=["float-n", "float-seed", "nan-seed", "bool-p"],
    )
    def test_non_int_fields_are_refused_by_name(self, field, value):
        kwargs = dict(n=64, nb=8, p=2, q=2, seed=0)
        kwargs[field] = value
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            HPLConfig(**kwargs)


class TestBlockCyclicMap:
    def test_owner_round_robin_over_blocks(self):
        m = BlockCyclicMap(n=16, nb=4, nprocs=2)
        assert [m.owner(i) for i in (0, 3, 4, 7, 8, 12)] == [0, 0, 1, 1, 0, 1]

    def test_local_index_packing(self):
        m = BlockCyclicMap(n=16, nb=4, nprocs=2)
        # proc 0 owns globals 0-3 and 8-11 at locals 0-7
        assert [m.local_index(i) for i in (0, 3, 8, 11)] == [0, 3, 4, 7]

    def test_globals_inverse(self):
        m = BlockCyclicMap(n=37, nb=5, nprocs=3)
        for p in range(3):
            for li, g in enumerate(m.globals_of(p)):
                assert m.owner(g) == p
                assert m.local_index(g) == li

    def test_counts_partition(self):
        m = BlockCyclicMap(n=37, nb=5, nprocs=3)
        assert sum(m.local_count(p) for p in range(3)) == 37

    def test_local_start_is_suffix_boundary(self):
        m = BlockCyclicMap(n=32, nb=4, nprocs=2)
        for p in range(2):
            gl = m.globals_of(p)
            for cut in (0, 5, 16, 31, 32):
                s = m.local_start(p, cut)
                assert np.all(gl[s:] >= cut)
                assert np.all(gl[:s] < cut)

    @given(
        n=st.integers(min_value=1, max_value=200),
        nb=st.integers(min_value=1, max_value=16),
        nprocs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bijection_property(self, n, nb, nprocs):
        m = BlockCyclicMap(n, nb, nprocs)
        seen = set()
        for p in range(nprocs):
            for g in m.globals_of(p):
                seen.add(int(g))
        assert seen == set(range(n))

    @pytest.mark.parametrize(
        "args, name",
        [
            ((10, 2.5, 2), "nb"),
            ((10.0, 2, 2), "n"),
            ((10, 2, True), "nprocs"),
            ((10, 2, 2.0), "nprocs"),
        ],
        ids=["float-nb", "float-n", "bool-nprocs", "float-nprocs"],
    )
    def test_non_int_arguments_are_refused_by_name(self, args, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            BlockCyclicMap(*args)


class TestProcessGrid:
    def test_coords_and_subcomms(self):
        def main(ctx):
            grid = ProcessGrid(ctx.world, 2, 3)
            r = ctx.world.rank
            assert (grid.myrow, grid.mycol) == (r // 3, r % 3)
            assert grid.row_comm.size == 3
            assert grid.col_comm.size == 2
            assert grid.row_comm.rank == grid.mycol
            assert grid.col_comm.rank == grid.myrow
            assert grid.rank_of(grid.myrow, grid.mycol) == r
            return True

        cl = Cluster(6)
        res = Job(cl, main, 6, procs_per_node=1).run()
        assert res.completed, res.rank_errors

    @pytest.mark.parametrize(
        "p, q, name",
        [(2.0, 2, "p"), (2, True, "q"), (1, 4.0, "q")],
        ids=["float-p", "bool-q", "float-q"],
    )
    def test_non_int_dims_are_refused_by_name(self, p, q, name):
        def main(ctx):
            with pytest.raises(TypeError, match=f"^{name} must be an int"):
                ProcessGrid(ctx.world, p, q)
            return True

        assert Job(Cluster(4), main, 4, procs_per_node=1).run().completed

    def test_size_mismatch(self):
        def main(ctx):
            with pytest.raises(ValueError):
                ProcessGrid(ctx.world, 2, 3)
            return True

        cl = Cluster(4)
        assert Job(cl, main, 4, procs_per_node=1).run().completed


def generate_block(cfg, bi, bj):
    """Block (bi, bj) of A, cut from the whole matrix (edge blocks cropped)."""
    nb = cfg.nb
    return dense_matrix(cfg)[bi * nb : (bi + 1) * nb, bj * nb : (bj + 1) * nb]


class TestMatgen:
    def test_block_determinism(self):
        cfg = HPLConfig(n=32, nb=8, p=2, q=2)
        np.testing.assert_array_equal(
            generate_block(cfg, 1, 2), generate_block(cfg, 1, 2)
        )

    def test_blocks_differ(self):
        cfg = HPLConfig(n=32, nb=8, p=2, q=2)
        assert not np.array_equal(generate_block(cfg, 0, 1), generate_block(cfg, 1, 0))

    def test_seed_changes_matrix(self):
        a = generate_block(HPLConfig(n=16, nb=8, p=1, q=1, seed=1), 0, 0)
        b = generate_block(HPLConfig(n=16, nb=8, p=1, q=1, seed=2), 0, 0)
        assert not np.array_equal(a, b)

    def test_edge_blocks_are_cropped(self):
        cfg = HPLConfig(n=10, nb=4, p=1, q=1)
        assert generate_block(cfg, 2, 2).shape == (2, 2)
        assert generate_block(cfg, 2, 0).shape == (2, 4)

    def test_local_pieces_tile_the_dense_matrix(self):
        cfg = HPLConfig(n=37, nb=5, p=2, q=3)
        rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
        colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)
        dense = dense_matrix(cfg)
        for pr in range(cfg.p):
            for pc in range(cfg.q):
                loc, _ = generate_local_system(cfg, rowmap, colmap, pr, pc)
                ref = dense[np.ix_(rowmap.globals_of(pr), colmap.globals_of(pc))]
                np.testing.assert_array_equal(loc, ref)

    def test_local_rhs_tiles_dense_rhs(self):
        cfg = HPLConfig(n=23, nb=4, p=3, q=1)
        rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
        colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)
        dense = dense_rhs(cfg)
        for pr in range(cfg.p):
            _, loc = generate_local_system(cfg, rowmap, colmap, pr, 0)
            np.testing.assert_array_equal(loc, dense[rowmap.globals_of(pr)])

    def test_matrix_is_well_conditioned(self):
        cfg = HPLConfig(n=64, nb=8, p=1, q=1)
        cond = np.linalg.cond(dense_matrix(cfg))
        assert cond < 1e4

    def test_out_buffer_shape_check(self):
        cfg = HPLConfig(n=16, nb=4, p=2, q=2)
        rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
        colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)
        for out, name in (
            ((np.zeros((1, 1)), np.zeros(8)), "a"),
            ((np.zeros((8, 8)), np.zeros(3)), "b"),
        ):
            with pytest.raises(ValueError, match=f"^out {name} has shape"):
                generate_local_system(cfg, rowmap, colmap, 0, 0, out=out)


def _literal_block(cfg, bi, bj):
    """Block (bi, bj) of A spelled out with one numpy generator per block."""
    nb = cfg.nb
    h, w = min(nb, cfg.n - bi * nb), min(nb, cfg.n - bj * nb)
    block = block_rng(cfg.seed, bi, bj).uniform(-0.5, 0.5, size=(h, w))
    if bi == bj:
        np.fill_diagonal(block, block.diagonal() + 2.0)
    return block


def _literal_rhs(cfg):
    nb = cfg.nb
    return np.concatenate(
        [
            block_rng(cfg.seed, bi, cfg.n_blocks + 1).uniform(
                -0.5, 0.5, size=min(nb, cfg.n - bi * nb)
            )
            for bi in range(cfg.n_blocks)
        ]
    )


class TestBatchedGeneratorIsTheLiteralOne:
    """Every generator entry point, bit for bit against the per-block
    numpy spelling, with an edge block (n % nb != 0)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense(self, seed):
        cfg = HPLConfig(n=45, nb=8, p=2, q=3, seed=seed)
        nbl = cfg.n_blocks
        want = np.block(
            [[_literal_block(cfg, bi, bj) for bj in range(nbl)] for bi in range(nbl)]
        )
        assert dense_matrix(cfg).tobytes() == want.tobytes()
        assert dense_rhs(cfg).tobytes() == _literal_rhs(cfg).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_local(self, seed):
        cfg = HPLConfig(n=45, nb=8, p=2, q=3, seed=seed)
        rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
        colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)
        nbl = cfg.n_blocks
        dense = np.block(
            [[_literal_block(cfg, bi, bj) for bj in range(nbl)] for bi in range(nbl)]
        )
        rhs = _literal_rhs(cfg)
        for pr in range(cfg.p):
            rows = rowmap.globals_of(pr)
            for pc in range(cfg.q):
                want = dense[np.ix_(rows, colmap.globals_of(pc))]
                got_a, got_b = generate_local_system(cfg, rowmap, colmap, pr, pc)
                assert got_a.tobytes() == want.tobytes()
                assert got_b.tobytes() == rhs[rows].tobytes()


def _reference_plan(rowmap, piv, k0, myrow):
    """The per-pivot loop ``swap_plan`` replaced, recording its actions."""
    plan = []
    for j, r2 in enumerate(piv):
        r1 = k0 + j
        r2 = int(r2)
        if r1 == r2:
            continue
        o1, o2 = rowmap.owner(r1), rowmap.owner(r2)
        l1, l2 = rowmap.local_index(r1), rowmap.local_index(r2)
        if o1 == o2:
            if myrow == o1:
                plan.append((j, l1, None, l2))
        elif myrow == o1:
            plan.append((j, l1, o2, l2))
        elif myrow == o2:
            plan.append((j, l2, o1, l1))
    return plan


def _reference_participants(rowmap, piv, k0, nprocs):
    """The process rows with an exchange, by the reference loop."""
    return [
        myrow
        for myrow in range(nprocs)
        if any(partner is not None for _, _, partner, _ in _reference_plan(rowmap, piv, k0, myrow))
    ]


class TestPivotPlan:
    @pytest.mark.parametrize("nprocs", [1, 2, 3])
    def test_plan_is_the_per_pivot_loop(self, nprocs):
        n, nb = 70, 8
        rowmap = BlockCyclicMap(n, nb, nprocs)
        rng = np.random.default_rng(nprocs)
        for k in range(-(-n // nb)):
            k0 = k * nb
            nbk = min(nb, n - k0)
            for _ in range(5):
                # partial pivoting swaps row k0 + j with a row at or below it
                piv = np.array([rng.integers(k0 + j, n) for j in range(nbk)])
                stay = rng.random(nbk) < 0.3  # some pivots are already in place
                piv[stay] = k0 + np.flatnonzero(stay)
                participants = _reference_participants(rowmap, piv, k0, nprocs)
                for myrow in range(nprocs):
                    got = swap_plan(rowmap, piv, k0, myrow)
                    assert got == (_reference_plan(rowmap, piv, k0, myrow), participants)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_panel_is_the_per_pivot_loop(self, data):
        nprocs = data.draw(st.integers(1, 5), label="P")
        nb = data.draw(st.integers(1, 6), label="nb")
        n = data.draw(st.integers(1, 4 * nb * nprocs + 5), label="n")  # edge blocks too
        k = data.draw(st.integers(0, -(-n // nb) - 1), label="k")
        k0 = k * nb
        piv = np.array(
            [data.draw(st.integers(k0 + j, n - 1)) for j in range(min(nb, n - k0))],
            dtype=np.int64,
        )
        rowmap = BlockCyclicMap(n, nb, nprocs)
        participants = _reference_participants(rowmap, piv, k0, nprocs)
        for myrow in range(nprocs):
            steps, got = swap_plan(rowmap, piv, k0, myrow)
            assert steps == _reference_plan(rowmap, piv, k0, myrow)
            assert all(type(step) is tuple for step in steps)
            assert got == participants

