"""Live-simulator sweeps behind Figs. 7 and 12: the measured efficiency of
the simulated HPL must follow the paper's E(N) = N/(aN+b) law."""

import pytest

from repro.analysis import fig7_model_fit, fig12_memory_vs_efficiency


class TestFig7:
    @pytest.fixture(scope="class")
    def fit(self):
        return fig7_model_fit(sizes=(96, 128, 192, 256))

    def test_fit_quality(self, fit):
        """'This model fits well with real experimental data' (§4)."""
        assert fit.r_squared > 0.9

    def test_efficiency_rises_with_problem_size(self, fit):
        assert fit.measured == sorted(fit.measured)

    def test_model_tracks_measurements(self, fit):
        for n, e in zip(fit.sizes, fit.measured):
            assert fit.model.efficiency(n) == pytest.approx(e, rel=0.2)


class TestFig12:
    @pytest.fixture(scope="class")
    def points(self):
        return fig12_memory_vs_efficiency(fractions=(0.125, 0.3, 0.5))

    def test_more_memory_more_efficiency(self, points):
        effs = [p.measured_norm_eff for p in points]
        assert effs == sorted(effs)

    def test_model_within_a_few_points_of_measurement(self, points):
        for p in points:
            assert abs(p.model_norm_eff - p.measured_norm_eff) < 0.08

    def test_self_memory_fraction_beats_double(self):
        """§6.5: the 44% of memory self-checkpoint leaves beats the 30% a
        double checkpoint leaves by more than 2 points of efficiency."""
        at_double, at_self = fig12_memory_vs_efficiency(fractions=(0.3, 0.44))
        assert at_self.measured_norm_eff > at_double.measured_norm_eff + 0.02

    def test_concave_shape(self, points):
        """Gains shrink as memory grows (sqrt(k) scaling): the marginal
        efficiency per memory fraction decreases."""
        slopes = []
        for a, b in zip(points, points[1:]):
            slopes.append(
                (b.measured_norm_eff - a.measured_norm_eff)
                / (b.memory_fraction - a.memory_fraction)
            )
        assert slopes == sorted(slopes, reverse=True)
