"""Correctness tests of the distributed HPL solver against serial numpy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpl import HPLConfig, hpl_main
from repro.hpl.core import (
    RESIDUAL_THRESHOLD,
    SingularMatrixError,
    _factor_panel,
    gemm_update,
    solve_triangular,
)
from repro.hpl.grid import BlockCyclicMap
from repro.hpl.matgen import dense_matrix, dense_rhs
from repro.sim import Cluster, Job


def run_hpl(cfg: HPLConfig):
    cl = Cluster(cfg.n_ranks)
    res = Job(
        cl, lambda ctx: hpl_main(ctx, cfg), cfg.n_ranks, procs_per_node=1
    ).run()
    assert res.completed, res.rank_errors
    return res


@pytest.mark.parametrize(
    "n,nb,p,q",
    [
        (16, 4, 1, 1),  # serial
        (32, 4, 2, 2),  # square grid
        (32, 4, 1, 4),  # row of processes
        (32, 4, 4, 1),  # column of processes
        (37, 5, 2, 3),  # n not divisible by nb, rectangular grid
        (64, 8, 2, 2),
        (60, 7, 3, 2),
        (48, 48, 2, 2),  # single panel spanning everything
    ],
)
def test_solution_matches_serial_reference(n, nb, p, q):
    cfg = HPLConfig(n=n, nb=nb, p=p, q=q)
    res = run_hpl(cfg)
    r0 = res.rank_results[0]
    x_ref = np.linalg.solve(dense_matrix(cfg), dense_rhs(cfg))
    assert r0.passed, r0.residual
    assert r0.residual < RESIDUAL_THRESHOLD
    np.testing.assert_allclose(r0.x, x_ref, rtol=1e-8, atol=1e-10)


def test_all_ranks_agree_on_solution():
    cfg = HPLConfig(n=32, nb=8, p=2, q=2)
    res = run_hpl(cfg)
    for r in range(1, cfg.n_ranks):
        np.testing.assert_array_equal(res.rank_results[0].x, res.rank_results[r].x)


def test_gflops_and_elapsed_positive():
    cfg = HPLConfig(n=32, nb=8, p=2, q=2)
    r0 = run_hpl(cfg).rank_results[0]
    assert r0.elapsed_s > 0
    assert r0.gflops > 0
    assert r0.timers.total() > 0
    assert r0.timers.update > 0  # GEMM dominates


def test_larger_problem_higher_efficiency():
    """The paper's section 4 premise: efficiency rises with problem size."""

    def eff(n):
        cfg = HPLConfig(n=n, nb=8, p=2, q=2)
        res = run_hpl(cfg)
        peak = 4 * Cluster(1).spec.flops_per_core
        return cfg.flops / res.makespan / peak

    assert eff(192) > eff(48)


class _Ctx:
    """The rank context ``_factor_panel`` charges its flops to."""

    clock = 0.0

    def compute(self, *a, **k):
        pass


def test_factor_panel_matches_lapack():
    """The unblocked getf2 against scipy's LU on a tall panel."""
    import scipy.linalg as sla

    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 4))
    panel = a.copy()
    piv = _factor_panel(_Ctx(), panel, k0=100)
    lu, piv_ref = sla.lu_factor(a)
    # same pivot choices (expressed as global rows offset by k0)
    np.testing.assert_array_equal(piv - 100, piv_ref[:4])
    np.testing.assert_allclose(panel[:4, :], lu[:4, :4], rtol=1e-12)


def _reference_getf2(panel, k0):
    """The textbook spelling of ``_factor_panel``: fancy-index row swaps
    and ``np.outer`` rank-1 updates on the panel as it is laid out."""
    m, nbk = panel.shape
    piv = np.zeros(nbk, dtype=np.int64)
    for j in range(nbk):
        rel = int(np.argmax(np.abs(panel[j:, j]))) + j
        piv[j] = k0 + rel
        if rel != j:
            panel[[j, rel], :] = panel[[rel, j], :]
        panel[j + 1 :, j] /= panel[j, j]
        if j + 1 < nbk:
            panel[j + 1 :, j + 1 :] -= np.outer(panel[j + 1 :, j], panel[j, j + 1 :])
    return piv


@pytest.mark.parametrize("m, nbk", [(1, 1), (7, 7), (40, 8), (300, 32), (33, 5)])
def test_factor_panel_is_bit_identical_to_the_textbook_loop(m, nbk):
    a = np.random.default_rng(m * nbk).uniform(-0.5, 0.5, (m, nbk))
    want = a.copy()
    want_piv = _reference_getf2(want, k0=64)
    got = a.copy()
    got_piv = _factor_panel(_Ctx(), got, k0=64)
    assert got_piv.tolist() == want_piv.tolist()
    assert got.tobytes() == want.tobytes()


def test_singular_matrix_detected():
    panel = np.zeros((4, 2))
    with pytest.raises(SingularMatrixError):
        _factor_panel(_Ctx(), panel, k0=0)


def test_deterministic_across_runs():
    cfg = HPLConfig(n=32, nb=4, p=2, q=2)
    x1 = run_hpl(cfg).rank_results[0].x
    x2 = run_hpl(cfg).rank_results[0].x
    np.testing.assert_array_equal(x1, x2)


def _triangular(m, lower, rng):
    a = rng.standard_normal((m, m)) + m * np.eye(m)
    return np.tril(a) if lower else np.triu(a)


def _layouts(a):
    """``a`` as a C-contiguous, an F-contiguous and a strided array."""
    m = len(a)
    wide = np.zeros((m, 2 * m))
    wide[:, ::2] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": wide[:, ::2]}


class TestSolveTriangular:
    """The direct LAPACK call, bit for bit against scipy's wrapper."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("rhs", ["vector", "matrix", "strided", "empty"])
    @pytest.mark.parametrize("lower, unit", [(True, True), (False, False)])
    def test_is_scipy_bit_for_bit(self, layout, rhs, lower, unit):
        import scipy.linalg as sla

        rng = np.random.default_rng(7)
        m = 9
        a = _layouts(_triangular(m, lower, rng))[layout]
        b = {
            "vector": rng.standard_normal(m),
            "matrix": rng.standard_normal((m, 4)),
            "strided": rng.standard_normal((m, 8))[:, 1::2],
            "empty": np.empty((m, 0)),
        }[rhs]
        kept = b.copy()
        got = solve_triangular(a, b, lower=lower, unit_diagonal=unit)
        want = sla.solve_triangular(a, b, lower=lower, unit_diagonal=unit)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert b.tobytes() == kept.tobytes()  # b is never overwritten

    @pytest.mark.parametrize("where", ["a", "b"])
    def test_nan_input_raises_like_scipy(self, where):
        import scipy.linalg as sla

        a, b = _triangular(4, True, np.random.default_rng(1)), np.ones(4)
        (a if where == "a" else b)[2, ...] = np.nan
        with pytest.raises(ValueError) as want:
            sla.solve_triangular(a, b, lower=True)
        with pytest.raises(ValueError) as got:
            solve_triangular(a, b, lower=True)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_singular_matrix_raises_like_scipy(self, layout):
        import scipy.linalg as sla

        a = _triangular(5, False, np.random.default_rng(2))
        a[3, 3] = 0.0
        a = _layouts(a)[layout]
        with pytest.raises(np.linalg.LinAlgError) as want:
            sla.solve_triangular(a, np.ones(5), lower=False)
        with pytest.raises(np.linalg.LinAlgError) as got:
            solve_triangular(a, np.ones(5), lower=False)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "singular matrix: resolution failed at diagonal 3"


def _trailing_blocks(cfg):
    """Every (rank, panel) trailing update of ``cfg`` as ``hpl_solve``
    runs it: ``(local rows, local cols, lr_trail, lc_trail, nbk)``."""
    rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
    colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)
    for myrow in range(cfg.p):
        for mycol in range(cfg.q):
            for k in range(cfg.n_blocks):
                k0 = k * cfg.nb
                nbk = min(cfg.nb, cfg.n - k0)
                yield (
                    rowmap.local_count(myrow),
                    colmap.local_count(mycol),
                    rowmap.local_start(myrow, k0 + nbk),
                    colmap.local_start(mycol, k0 + nbk),
                    nbk,
                )


def _check_update(rng, matrix, r0, c0, k, a_order="C", b_order="C"):
    """``gemm_update`` on the ``[r0:, c0:]`` view of a copy of ``matrix``
    against ``view -= a @ b``, bit for bit; everything outside the view is
    a sentinel that must not change."""
    base = matrix.copy()
    base[:r0, :] = 7.0
    base[:, :c0] = -7.0
    m, n = base.shape[0] - r0, base.shape[1] - c0
    a = np.asarray(rng.uniform(-0.5, 0.5, (m, k)), order=a_order)
    b = np.asarray(rng.uniform(-0.5, 0.5, (k, n)), order=b_order)
    want = base.copy()
    want[r0:, c0:] -= a @ b
    got = base
    gemm_update(got[r0:, c0:], a, b)
    bits = np.uint64
    assert np.array_equal(got.view(bits), want.view(bits)), (base.shape, r0, c0, k, a_order, b_order)
    assert (got[:r0, c0:] == 7.0).all() and (got[:, :c0] == -7.0).all()


class TestGemmUpdate:
    """The in-place trailing update, bit for bit against ``c -= a @ b``."""

    @pytest.mark.parametrize(
        "cfg",
        [HPLConfig(1024, 32, 2, 4), HPLConfig(97, 8, 3, 2)],
        ids=["skt_hpl", "edge-3x2"],
    )
    def test_every_trailing_block_of_a_run(self, cfg):
        """``skt_hpl``'s shape, and an edge shape (``n`` one past a
        multiple of ``nb``, a 3 x 2 grid) whose last block is one row and
        one column wide.  ``u12`` is F-ordered, as ``dtrtrs`` returns it
        and the broadcast copies it; ``l21`` is a C-ordered gather."""
        rng = np.random.default_rng(cfg.n)
        blocks = [blk for blk in _trailing_blocks(cfg) if blk[0] > blk[2] and blk[1] > blk[3]]
        assert len(blocks) >= (200 if cfg.n == 1024 else 40)
        matrices = {}
        for rows, cols, r0, c0, k in blocks:
            if (rows, cols) not in matrices:
                matrices[rows, cols] = rng.uniform(-0.5, 0.5, (rows, cols))
            _check_update(rng, matrices[rows, cols], r0, c0, k, b_order="F")
        if cfg.n == 97:
            assert {1} <= {rows - r0 for rows, _, r0, _, _ in blocks}
            assert {1} <= {cols - c0 for _, cols, _, c0, _ in blocks}

    @pytest.mark.parametrize("a_order", ["C", "F"])
    @pytest.mark.parametrize("b_order", ["C", "F"])
    @pytest.mark.parametrize(
        "m, n, k",
        [(1, 40, 32), (40, 1, 32), (1, 1, 32), (1, 40, 1), (40, 1, 1), (2, 2, 1), (37, 53, 0)],
    )
    def test_thin_blocks(self, m, n, k, a_order, b_order):
        """One-row and one-column blocks (numpy takes ``gemv`` / ``dot``
        there), a single-column panel and an empty one."""
        rng = np.random.default_rng(m * n + k)
        _check_update(rng, rng.uniform(-0.5, 0.5, (m + 3, n + 2)), 3, 2, k, a_order, b_order)

    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        k=st.integers(0, 34),
        r0=st.integers(0, 5),
        c0=st.integers(0, 5),
        a_order=st.sampled_from("CF"),
        b_order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_sweep(self, m, n, k, r0, c0, a_order, b_order, seed):
        rng = np.random.default_rng(seed)
        _check_update(rng, rng.uniform(-0.5, 0.5, (m + r0, n + c0)), r0, c0, k, a_order, b_order)

    def test_writes_in_place_without_a_temporary(self):
        """The product of a 256 x 256 update is 512 KiB; the call allocates
        none of it."""
        rng = np.random.default_rng(3)
        c = rng.uniform(size=(300, 300))
        a, b = rng.uniform(size=(256, 32)), np.asfortranarray(rng.uniform(size=(32, 256)))
        gemm_update(c[44:, 44:], a, b)  # bind BLAS before measuring
        tracemalloc.start()
        try:
            gemm_update(c[44:, 44:], a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    @pytest.mark.parametrize(
        "c, a, b",
        [
            (np.zeros((4, 4)), np.zeros((4, 3)), np.zeros((2, 4))),  # k disagrees
            (np.zeros((4, 4)), np.zeros((3, 2)), np.zeros((2, 4))),  # m disagrees
            (np.zeros((4, 8))[:, ::2], np.zeros((4, 2)), np.zeros((2, 4))),  # strided c
            (np.zeros((4, 4))[::-1], np.zeros((4, 2)), np.zeros((2, 4))),  # rows reversed
            (np.zeros((4, 4)), np.zeros((4, 4))[:, ::2], np.zeros((2, 4))),  # strided a
            (np.zeros((4, 4)), np.zeros((4, 2), np.float32), np.zeros((2, 4))),
        ],
        ids=["k", "m", "strided-c", "reversed-c", "strided-a", "float32"],
    )
    def test_refuses_what_blas_cannot_take(self, c, a, b):
        with pytest.raises(ValueError, match="gemm_update"):
            gemm_update(c, a, b)
