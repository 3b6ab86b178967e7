"""One campaign pipeline (repro.chaos.plan): plan -> execute -> merge.

The contract under test: the engine — inline, the pool, the shard queue —
changes wall-clock time and durability and nothing else.  One campaign
with kill matrices for two methods *and* random schedules must come out
of all three with the same ``BENCH_chaos.json`` bytes, report text and
trace-store content, equal to ``pipeline_golden.json`` — captured from
the three-walks implementation this pipeline replaced, so the collapse
is pinned as behaviour-preserving, not merely self-consistent.
"""

import json
import os

import pytest

from repro.chaos import (
    ChaosError,
    RandomCampaignConfig,
    chaos_main,
    enumerate_kill_points,
    probe_baseline,
    run_campaign,
    run_kill_matrix,
)
from repro.chaos.cli import DEFAULT_PPN, SCENARIOS, _build_scenario, parse_args
from repro.chaos.report import render_campaign
from repro.obs.store import (
    TraceStore,
    campaign_id_for,
    ingest_kill_matrix,
    ingest_schedules,
)
from repro.shard import run_sharded_campaign
from repro.shard.queue import queue_path_for
from tests.chaos.helpers import SilentCorruptRecover, bench_bytes, small_scenario, stripped_digest

SEED = 7
METHODS = ("self", "double")
OBS = "summary"
ENGINES = ("workers=1", "workers=2", "n_shards=2")

with open(os.path.join(os.path.dirname(__file__), "pipeline_golden.json")) as f:
    GOLDEN = json.load(f)


def scenarios():
    return [small_scenario(method=m) for m in METHODS]


def run_engine(engine, out_dir, scs=None, **campaign):
    """(plan, matrices, schedules) of one campaign on the named engine."""
    scs = scenarios() if scs is None else scs
    knob, n = engine.split("=")
    if knob == "workers":
        return run_campaign(scs, workers=int(n), **campaign)
    return run_sharded_campaign(scs, n_shards=int(n), out_dir=str(out_dir), **campaign)[:3]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """engine -> (bench bytes, report text, store digest, stripped digest)."""
    out = {}
    for engine in ENGINES:
        plan, matrices, schedules = run_engine(
            engine,
            tmp_path_factory.mktemp("shards"),
            seed=SEED,
            obs=OBS,
            max_occurrences=1,
            random_cfg=RandomCampaignConfig(n_schedules=3, seed=SEED),
        )
        scs = scenarios()
        cid = campaign_id_for(SEED, "selfckpt", list(METHODS))
        with TraceStore(":memory:") as store:
            ord_ = 0
            for sc, m, rep in zip(scs, plan.matrices, matrices):
                ord_ = ingest_kill_matrix(
                    store, cid, sc, rep,
                    seed=SEED, obs_mode=OBS, ord_base=ord_, probe=m.probe,
                )
            ingest_schedules(
                store, cid, scs[0], schedules,
                seed=SEED, obs_mode=OBS, ord_base=ord_,
            )
            out[engine] = (
                bench_bytes(matrices, schedules, SEED),
                render_campaign(matrices, schedules),
                store.digest(),
                stripped_digest(store),
            )
    return out


class TestThreeEngineIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_reproduces_the_parent_commit_golden(self, artifacts, engine):
        bench, report, _, stripped = artifacts[engine]
        assert bench == GOLDEN["bench"]
        assert report == GOLDEN["report"]
        assert stripped == GOLDEN["store_digest"]

    def test_store_digests_equal_across_engines(self, artifacts):
        assert len({digest for _, _, digest, _ in artifacts.values()}) == 1


class TestSpeclessScenario:
    """A custom-protocol scenario is its own wire form: run in process,
    every planned unit replays the very scenario that was passed in."""

    def test_runs_in_process(self):
        from repro.ckpt.self_ckpt import SelfCheckpoint

        sc = small_scenario(protocol_factory=SelfCheckpoint)
        plan, (report,), _ = run_campaign(
            [sc], phases=["ckpt.done"], max_occurrences=1
        )
        assert report.survived_all
        assert [u.spec.scenario for u in plan.units] == [sc] * plan.n_units


class TestCustomProtocolOnEveryEngine:
    """A scenario with a custom protocol is a value like any other: the
    broken-protocol matrix that proves the oracle bites runs, and is
    fingerprinted, on all three engines."""

    def test_mutant_matrix_is_engine_invariant(self, tmp_path):
        sc = small_scenario(protocol_factory=SilentCorruptRecover)
        results = {}
        for engine in ENGINES:
            _, (report,), _ = run_engine(engine, tmp_path / engine, scs=[sc])
            results[engine] = report.results
        first = results[ENGINES[0]]
        assert all(r == first for r in results.values())
        verdicts = [r.verdict for r in first]
        assert "wrong-answer" in verdicts and "survived" in verdicts


class TestMatrixFilters:
    def test_run_kill_matrix_filters_like_enumerate_kill_points(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        filt = dict(nodes=[1], phases=["ckpt.flush", "ckpt.done"], max_occurrences=1)
        want = enumerate_kill_points(probe, **filt)
        assert len(want) == 2
        report = run_kill_matrix(sc, probe=probe, **filt)
        assert [r.point for r in report.results] == want


CLI_FLAGS = [
    "--methods", "self", "--nodes", "2", "--ppn", "1", "--group-size", "2",
    "--no-progress",
]
ENGINE_FLAGS = {"workers=1": [], "workers=2": ["--workers", "2"],
                "n_shards=2": ["--shards", "2"]}


class TestEmptyCampaign:
    """A campaign that enumerates nothing is an error with one answer on
    every engine — never an empty artifact that looks like a run."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_api_raises_and_creates_nothing(self, tmp_path, engine):
        out = tmp_path / "out"
        with pytest.raises(ChaosError, match="campaign plan is empty"):
            run_engine(engine, out, max_occurrences=0)
        assert not os.path.exists(queue_path_for(str(out)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cli_exits_2_without_artifacts(self, tmp_path, capsys, engine):
        out = tmp_path / "out"
        # zero iterations: the baseline announces no phase to kill at
        rc = chaos_main(
            CLI_FLAGS + ENGINE_FLAGS[engine] + ["--iters", "0", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "repro chaos: campaign plan is empty" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flag, value",
        [("--max-occurrences", "0"), ("--random", "-1"), ("--ckpt-every", "0")],
    )
    def test_cli_rejects_below_minimum_knobs(
        self, tmp_path, capsys, engine, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            chaos_main(
                CLI_FLAGS + ENGINE_FLAGS[engine]
                + [flag, value, "--out", str(tmp_path / "out")]
            )
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestUnconstructibleProtocol:
    """A method that cannot be built on the requested configuration is a
    usage error — one ``repro chaos:`` line, exit 2, on every engine —
    not a traceback out of the baseline probe."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "method, group_size, why",
        [("self-rs", "2", "needs >= 4 members"), ("buddy", "4", "group size must be 2")],
    )
    def test_cli_exits_2_with_one_line(
        self, tmp_path, capsys, engine, method, group_size, why
    ):
        out = tmp_path / "out"
        rc = chaos_main(
            ["--methods", method, "--group-size", group_size, "--no-progress"]
            + ENGINE_FLAGS[engine] + ["--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro chaos: baseline run of scenario 'selfckpt'")
        assert method in line and why in line
        assert not out.exists()


class TestMisusedFlags:
    """A flag value no engine should run — ``--shards 0``, a method named
    twice — is an argparse error: exit 2, nothing written, never a
    silently different campaign."""

    @pytest.mark.parametrize(
        "flags, why",
        [
            (["--smoke", "--shards", "0"], "--shards must be >= 1, got 0"),
            (["--methods", "self,double,self"], "--methods names 'self' twice"),
        ],
        ids=["shards-0", "repeated-method"],
    )
    def test_cli_exits_2(self, tmp_path, capsys, flags, why):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            chaos_main(flags + ["--no-progress", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"repro chaos: error: {why}"
        assert not out.exists()


class TestDefaults:
    """``--ppn`` defaults by scenario, resolved without running a
    campaign: ``skt-hpl`` at its own defaults builds (one HPL rank per
    node), and ``--smoke`` and an explicit ``--ppn`` keep their value."""

    @pytest.mark.parametrize(
        "flags, ppn",
        [
            ([], 2),
            (["--scenario", "skt-hpl"], 1),
            (["--scenario", "skt-hpl", "--ppn", "2"], 2),
            (["--ppn", "3"], 3),
            (["--smoke"], 2),
            (["--smoke", "--scenario", "skt-hpl", "--ppn", "1"], 2),
        ],
        ids=["selfckpt", "skt-hpl", "skt-hpl-explicit", "explicit", "smoke",
             "smoke-overrides"],
    )
    def test_ppn_resolves_per_scenario(self, flags, ppn):
        _, args = parse_args(flags)
        assert args.ppn == ppn

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_each_scenario_builds_at_its_defaults(self, scenario):
        _, args = parse_args(["--scenario", scenario])
        assert args.ppn == DEFAULT_PPN[scenario]
        _build_scenario(args, "self")  # raises on a co-located group


class TestConfigurationErrors:
    """A shape no scenario can be built on is misuse — one ``repro chaos:``
    line, exit 2, no output directory, on every engine — not a traceback
    under exit 1, the code reserved for a run that did not survive."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flags, why",
        [
            (["--nodes", "0"], "n_nodes >= 1"),
            (["--ppn", "0"], "procs_per_node >= 1"),
            (["--scenario", "skt-hpl", "--grid", "0x2"], "grid dims must be >= 1"),
            (["--scenario", "skt-hpl", "--n", "0"], "n must be >= 1"),
            (["--scenario", "skt-hpl", "--nb", "0"], "nb must be in [1, n]"),
            (["--random", "2", "--mtbf-scale", "0"], "mtbf_scale must be > 0"),
            (["--random", "2", "--mtbf-scale", "nan"], "mtbf_scale must be > 0"),
            (["--random", "2", "--seed", "-1"], "seed must be >= 0"),
            (["--scenario", "skt-hpl", "--seed", "-1"], "seed must be >= 0"),
            (["--iters", "-1"], "iters must be >= 0"),
            (["--group-size", "3"], "not divisible"),
            (["--nodes", "1", "--ppn", "2"], "co-located"),
            (
                ["--scenario", "skt-hpl", "--ppn", "2", "--group-size", "4"],
                "co-located",
            ),
        ],
        ids=[
            "nodes", "ppn", "grid", "n", "nb", "mtbf-scale", "mtbf-scale-nan",
            "random-seed", "hpl-seed", "iters", "group-size", "co-located",
            "hpl-co-located",
        ],
    )
    def test_cli_exits_2_with_one_line(self, tmp_path, capsys, engine, flags, why):
        out = tmp_path / "out"
        rc = chaos_main(CLI_FLAGS + ENGINE_FLAGS[engine] + flags + ["--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro chaos: ") and why in line
        assert "crashed" not in line and "oracle" not in line
        assert not out.exists()
