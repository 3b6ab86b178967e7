"""CLI smoke tests."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.analysis.report import CATALOGUE, build_report
from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig6", "table3", "ablations"):
            assert name in out

    @pytest.mark.parametrize(
        "target", ["fig6", "fig8", "fig11", "fig13", "table1", "table2"]
    )
    def test_fast_targets(self, target, capsys):
        assert main([target]) == 0
        out = capsys.readouterr().out
        assert "—" in out  # every renderer emits a titled table

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_check_all_smoke(self, capsys):
        """`repro check --all` runs every analysis and certifies clean."""
        assert main(["check", "--all"]) == 0
        out = capsys.readouterr().out
        assert "sancheck: 0 findings (analyses: simlint, flow, race)" in out

    def test_check_lint_clean_tree(self, capsys):
        assert main(["check", "lint"]) == 0
        assert "simlint" in capsys.readouterr().out

    def test_check_lint_nonzero_on_bad_file(self, tmp_path, capsys):
        """Acceptance: a file calling time.sleep outside the allowlist must
        make `repro check lint` exit non-zero."""
        bad = tmp_path / "offender.py"
        bad.write_text("import time\ntime.sleep(1)\n")
        assert main(["check", "lint", "--path", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "wallclock" in out and "time.sleep" in out

    def test_check_rejects_unknown_analysis(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "frobnicate"])
        # deadlock is no analysis: the runtime raises it, diagnosed
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "deadlock"])
        assert exit_info.value.code == 2
        assert "choose from lint, flow, races" in capsys.readouterr().err

    def test_targets_cover_every_table_and_figure(self, capsys):
        """`repro list` is the catalogue's targets plus `report` — nothing
        hand-listed beside it."""
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        expected = {
            "table1",
            "table2",
            "table3",
            "table3-live",
            "fig6",
            "fig7",
            "fig8",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "ablations",
            "apps",
            "endurance",
            "reliability",
            "report",
        }
        assert expected <= set(listed)
        assert sorted(listed) == sorted({a.target for a in CATALOGUE} | {"report"})
        assert len(listed) == len(set(listed))

    def test_all_prints_every_target_once_and_no_report(self, capsys, monkeypatch):
        """`all` used to iterate a table that contained `report`, printing
        every artifact twice.  Rendering is stubbed: the live rows take
        minutes and `test_report.py` already runs them."""
        import repro.analysis.report as report

        monkeypatch.setattr(report, "render_target", lambda name: f"<{name}>")
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        banners = [ln for ln in out.splitlines() if ln.startswith("== ")]
        assert banners == [f"== {t} ==" for t in report.targets()]
        assert "report" not in report.targets()
        assert "# Reproduction report" not in out

    def test_report_has_one_section_per_catalogue_row(self, monkeypatch):
        import repro.analysis.report as report

        stub = [
            report.Artifact(a.target, a.heading, lambda: None, lambda _: "x", a.live)
            for a in CATALOGUE
        ]
        monkeypatch.setattr(report, "CATALOGUE", stub)
        md = build_report(include_slow=True)
        headings = [ln[3:] for ln in md.splitlines() if ln.startswith("## ")]
        assert sorted(headings) == sorted(a.heading for a in CATALOGUE)
        assert len(set(headings)) == len(CATALOGUE)
        # analytic rows first, then the live ones
        live = {a.heading for a in CATALOGUE if a.live}
        flags = [h in live for h in headings]
        assert flags == sorted(flags)
        fast = build_report(include_slow=False)
        assert fast.count("## ") == len(CATALOGUE) - len(live)


class TestStartup:
    def test_no_package_or_entry_point_loads_scipy(self):
        """SciPy's only caller is HPL's triangular solve, which imports it
        on first use: importing any package and running ``repro list`` or
        ``repro chaos --help`` must leave it unloaded.  One fresh
        interpreter, since this process has long since loaded it."""
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            import repro.analysis.report, repro.chaos, repro.ckpt, repro.hpl
            import repro.obs, repro.par, repro.shard, repro.sim
            from repro.chaos import chaos_main
            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["list"]) == 0
                try:
                    chaos_main(["--help"])
                except SystemExit as exc:
                    assert exc.code == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines() == ["[]"]
