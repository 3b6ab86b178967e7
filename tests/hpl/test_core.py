"""Correctness tests of the distributed HPL solver against serial numpy."""

import numpy as np
import pytest

from repro.hpl import HPLConfig, hpl_main
from repro.hpl.core import RESIDUAL_THRESHOLD, SingularMatrixError, _factor_panel
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


def test_factor_panel_matches_lapack():
    """The unblocked getf2 against scipy's LU on a tall panel."""
    import scipy.linalg as sla

    class _Ctx:
        clock = 0.0

        def compute(self, *a, **k):
            pass

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
    class _Ctx:
        clock = 0.0

        def compute(self, *a, **k):
            pass

    a = np.random.default_rng(m * nbk).uniform(-0.5, 0.5, (m, nbk))
    want = a.copy()
    want_piv = _reference_getf2(want, k0=64)
    got = a.copy()
    got_piv = _factor_panel(_Ctx(), got, k0=64)
    assert got_piv.tolist() == want_piv.tolist()
    assert got.tobytes() == want.tobytes()


def test_singular_matrix_detected():
    class _Ctx:
        clock = 0.0

        def compute(self, *a, **k):
            pass

    panel = np.zeros((4, 2))
    with pytest.raises(SingularMatrixError):
        _factor_panel(_Ctx(), panel, k0=0)


def test_deterministic_across_runs():
    cfg = HPLConfig(n=32, nb=4, p=2, q=2)
    x1 = run_hpl(cfg).rank_results[0].x
    x2 = run_hpl(cfg).rank_results[0].x
    np.testing.assert_array_equal(x1, x2)
