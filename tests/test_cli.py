"""The ``python -m repro`` command-line interface."""

import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestElect:
    def test_oriented(self, capsys):
        code, out = run_cli(capsys, "elect", "--ids", "3,7,5,2")
        assert code == 0
        assert "leader       : 1" in out
        assert "exact match" in out

    def test_nonoriented_with_flips(self, capsys):
        code, out = run_cli(
            capsys, "elect", "--setting", "nonoriented",
            "--ids", "12,31,7", "--flips", "1,0,1",
        )
        assert code == 0
        assert "cw ports" in out

    def test_anonymous(self, capsys):
        code, out = run_cli(
            capsys, "elect", "--setting", "anonymous",
            "--n", "6", "--c", "2.0", "--seed", "3",
        )
        assert "setting      : anonymous" in out
        assert code in (0, 1)  # probabilistic; exit code reflects success

    def test_scheduler_selection(self, capsys):
        code, out = run_cli(
            capsys, "elect", "--ids", "3,7", "--scheduler", "lifo"
        )
        assert code == 0

    def test_unknown_scheduler_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["elect", "--ids", "3,7", "--scheduler", "bogus"])

    def test_missing_ids_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["elect"])

    def test_missing_ids_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["elect", "--scheduler", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert err.endswith(
            "repro: error: --ids is required for oriented/nonoriented elections\n"
        )


class TestCompute:
    def test_composed_sum(self, capsys):
        code, out = run_cli(
            capsys, "compute", "--ids", "14,3,27", "--inputs", "18,22,19",
            "--op", "sum",
        )
        assert code == 0
        assert "[59, 59, 59]" in out

    def test_rooted_max(self, capsys):
        code, out = run_cli(
            capsys, "compute", "--inputs", "4,9,2", "--op", "max", "--leader", "1",
        )
        assert code == 0
        assert "[9, 9, 9]" in out

    def test_unknown_op_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["compute", "--inputs", "1,2", "--op", "median"])


class TestSimulate:
    def test_chang_roberts_over_pulses(self, capsys):
        code, out = run_cli(capsys, "simulate", "--ids", "4,9,2")
        assert code == 0
        assert "('leader', 9)" in out

    def test_broadcast(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--ids", "4,9,2", "--algorithm", "broadcast",
            "--value", "33",
        )
        assert code == 0
        assert "[33, 33, 33]" in out

    def test_sum_with_inputs(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--ids", "4,9,2", "--algorithm", "sum",
            "--inputs", "1,2,3",
        )
        assert code == 0
        assert "[6, 6, 6]" in out

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--ids", "4,9,2", "--algorithm", "sum",
                  "--inputs", "1,2"])


class TestVerify:
    def test_terminating_instance_verified(self, capsys):
        code, out = run_cli(capsys, "verify", "--ids", "1,2,3")
        assert code == 0
        assert "VERIFIED (all schedules)" in out
        assert "confluent            : True" in out

    def test_warmup_algorithm_option(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--ids", "2,3", "--algorithm", "warmup"
        )
        assert code == 0


class TestVerifyStatistical:
    """The sampled checks behind ``verify --statistical``."""

    def test_printed_replay_line_reproduces_the_counterexample(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--statistical", "--samples", "16", "--n", "8",
            "--id-max", "100", "--block-size", "8", "--inject-drop", "3,2,7",
        )
        assert code == 1
        message = next(
            line for line in out.splitlines() if line.startswith("counterexample")
        )
        replay = next(
            line for line in out.splitlines() if line.startswith("  replay  ")
        ).split(" : ", 1)[1]
        assert replay.startswith("repro ") and "--samples 8" in replay
        code, out = run_cli(capsys, *shlex.split(replay)[1:])
        assert code == 1
        assert message in out.splitlines()

    def test_a_replay_with_another_message_does_not_reproduce(
        self, capsys, monkeypatch
    ):
        from repro.verification.statistical import Counterexample

        argv = (
            "verify", "--statistical", "--recovery", "--samples", "4",
            "--n", "4", "--id-max", "16", "--inject-drop-rate", "0.5",
        )
        code, out = run_cli(capsys, *argv)
        assert code == 0 and "  replay reproduces  : yes" in out.splitlines()
        monkeypatch.setattr(
            Counterexample, "replay", lambda self: "instance 0: another failure"
        )
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert "  replay reproduces  : NO" in out.splitlines()
        assert out.splitlines()[-1] == "FAILED"

    def test_confidence_label_keeps_its_digits(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--statistical", "--samples", "8", "--n", "4",
            "--id-max", "16", "--confidence", "0.999",
        )
        assert code == 0
        assert "(99.9% CP interval [" in out

    @pytest.mark.parametrize(
        "mode",
        [
            ["--topology", "theta:1,1,1"],
            ["--algorithm", "anonymous"],
        ],
        ids=["topology", "anonymous"],
    )
    def test_modes_reject_fault_flags_they_ignore(self, mode):
        with pytest.raises(SystemExit, match="ignores --inject-drop-rate, --recovery"):
            main([
                "verify", "--statistical", *mode, "--samples", "4",
                "--recovery", "--inject-drop-rate", "0.5",
            ])

    @pytest.mark.parametrize(
        "flag",
        [
            ["--fault-drop", "0.5"],
            ["--fault-duplicate", "0.1"],
            ["--fault-seed", "3"],
            ["--spill-threshold-mb", "1"],
            ["--compare-unreduced"],
            ["--invariants"],
            ["--reduction", "none"],
            ["--max-states", "5"],
        ],
        ids=lambda flag: flag[0],
    )
    @pytest.mark.parametrize(
        "label, mode",
        [
            ("--statistical", ["--n", "4", "--id-max", "20"]),
            ("--statistical --topology", ["--topology", "theta:1,1,1", "--id-max", "20"]),
            ("--statistical --algorithm anonymous", ["--algorithm", "anonymous", "--n", "4"]),
        ],
        ids=["ring", "topology", "anonymous"],
    )
    def test_statistical_rejects_exhaustive_only_flags(self, label, mode, flag):
        with pytest.raises(SystemExit, match=f"^verify {label} ignores {flag[0]};"):
            main(["verify", "--statistical", *mode, "--samples", "16", *flag])

    def test_recovery_rejects_inject_drop(self):
        with pytest.raises(SystemExit, match="ignores --inject-drop"):
            main([
                "verify", "--statistical", "--recovery", "--samples", "4",
                "--inject-drop", "3,2,1",
            ])


class TestSolitude:
    def test_pattern_table(self, capsys):
        code, out = run_cli(capsys, "solitude", "--max-id", "4")
        assert code == 0
        assert "011" in out
        assert "none (Lemma 22 holds)" in out


class TestCompare:
    def test_table_lists_all_algorithms(self, capsys):
        code, out = run_cli(capsys, "compare", "--n", "6", "--spread", "32")
        assert code == 0
        for name in (
            "content-oblivious",
            "chang_roberts",
            "lelann",
            "hirschberg_sinclair",
            "peterson",
            "dolev_klawe_rodeh",
            "theorem 4 floor",
        ):
            assert name in out


class TestTimeline:
    def test_diagram_and_summary(self, capsys):
        code, out = run_cli(capsys, "timeline", "--ids", "2,3")
        assert code == 0
        assert "id2" in out and "id3" in out
        assert "total sent: 14" in out  # 2*(2*3+1)


class TestParsing:
    def test_bad_int_list(self):
        with pytest.raises(SystemExit):
            main(["elect", "--ids", "3,x,5"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("elect --ids 3,3", "IDs are not unique: [3, 3]"),
            ("elect --ids 0,1", "ID 0 is not positive"),
            ("elect --setting nonoriented --ids 1,2,3 --flips 1",
             "got 1 flips for 3 nodes; need exactly one each"),
            ("elect --setting anonymous --n 0", "need at least one node, got n=0"),
            ("elect --topology theta --ids 1,2",
             "graph has 8 vertices but 2 IDs were given"),
            ("compute --ids 1,2 --inputs 1",
             "2 IDs but 1 inputs; need one input per node"),
            ("compute --inputs 1,2 --leader 5", "leader index 5 out of range for n=2"),
            ("simulate --ids 1,2",
             "the universal interpreter needs n >= 3 (distinct CW/CCW neighbors)"),
            ("verify --ids 1,2,3 --fault-drop 2", "drop_rate must be in [0, 1], got 2.0"),
            ("verify --ids 1,1,2", "IDs are not unique: [1, 1, 2]"),
            ("verify --ids 1,2,3 --spill-threshold-mb -1",
             "--spill-threshold-mb must be >= 0, got -1"),
            ("sweep --workload placements --trials 0", "need at least one trial, got 0"),
            ("sweep --workload placements --trials 0 --no-fleet",
             "need at least one trial, got 0"),
            ("compare --n 0", "need at least one node, got n=0"),
            ("farm collect --root unused --confidence 1.5",
             "confidence must be in (0, 1), got 1.5"),
            ("faults sweep --samples 8 --confidence 1.5",
             "confidence must be in (0, 1), got 1.5"),
            ("faults sweep --samples 8 --confidence 1.5 --farm unused",
             "confidence must be in (0, 1), got 1.5"),
            ("sweep --workload whp --n 1", "need a ring of at least 2 nodes, got n=1"),
            ("sweep --workload whp --n 6 --c 0 --no-fleet",
             "sampler exponent c must be > 0, got 0.0"),
            ("sweep --workload placements --no-fleet --farm unused",
             "the farm runs the fleet engine only: fleet=False "
             "(sweep --no-fleet) has no farm path"),
            ("sweep --workload whp --no-fleet --farm unused",
             "the farm runs the fleet engine only: fleet=False "
             "(sweep --no-fleet) has no farm path"),
        ],
    )
    def test_configuration_errors_exit_with_the_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == message

    def test_step_budget_exits_with_one_line_naming_the_error(self, monkeypatch):
        from repro.core import election

        real = election.elect_leader_oriented
        monkeypatch.setattr(
            election,
            "elect_leader_oriented",
            lambda ids, scheduler=None: real(ids, scheduler=scheduler, max_steps=3),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["elect", "--ids", "3,7,5,2"])
        assert excinfo.value.code == (
            "SimulationLimitExceeded: no quiescence after 3 scheduler steps "
            "(6 pulses delivered, 4 still in flight)"
        )

    def test_protocol_violation_keeps_its_traceback(self, monkeypatch):
        from repro.core import election
        from repro.exceptions import ProtocolViolation

        def broken(ids, scheduler=None):
            raise ProtocolViolation("two leaders")

        monkeypatch.setattr(election, "elect_leader_oriented", broken)
        with pytest.raises(ProtocolViolation, match="two leaders"):
            main(["elect", "--ids", "3,7"])

    @pytest.mark.parametrize(
        "verb", [["sweep"], ["verify", "--statistical"], ["faults", "sweep"],
                 ["farm", "submit", "--root", "unused"]],
        ids=["sweep", "verify", "faults-sweep", "farm-submit"],
    )
    def test_processes_names_the_accepted_forms(self, verb, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*verb, "--processes", "foo"])
        assert excinfo.value.code == 2
        assert (
            "argument --processes: expected an int or 'auto', got 'foo'"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--workload", "placements", "--n", "4", "--trials", "2",
             "--fleet", "--backend", "compiled"],
            ["verify", "--statistical", "--backend", "compiled"],
            ["verify", "--ids", "2,3,1", "--reduction", "por"],
            ["elections"],
        ],
        ids=["sweep-backend-compiled", "verify-backend-compiled",
             "reduction-por", "unknown-verb"],
    )
    def test_argparse_rejects_with_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestFarm:
    def _submit_args(self, root, *extra):
        return (
            "farm", "submit", "--root", str(root),
            "--workload", "placements", "--n", "5",
            "--total", "40", "--shard-size", "10", *extra,
        )

    def test_submit_status_collect_gc_round_trip(self, capsys, tmp_path):
        code, out = run_cli(capsys, *self._submit_args(tmp_path))
        assert code == 0
        assert "OK: campaign complete" in out
        assert "cache hits=0 computed=4" in out

        code, out = run_cli(
            capsys, "farm", "status", "--root", str(tmp_path)
        )
        assert code == 0
        assert '"complete": true' in out
        assert '"done": 4' in out

        code, first = run_cli(
            capsys, "farm", "collect", "--root", str(tmp_path)
        )
        assert code == 0
        assert first.startswith('{"campaign":')
        assert '"zero_spread":true' in first

        # Warm re-submit: every shard is a cache hit, collect identical.
        code, out = run_cli(
            capsys, *self._submit_args(tmp_path, "--min-hit-rate", "1.0")
        )
        assert code == 0
        assert "cache hits=4 computed=0" in out
        code, second = run_cli(
            capsys, "farm", "collect", "--root", str(tmp_path)
        )
        assert code == 0
        assert second == first

        out_file = tmp_path / "collect.json"
        code, _ = run_cli(
            capsys, "farm", "collect", "--root", str(tmp_path),
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text() == first

        code, out = run_cli(capsys, "farm", "gc", "--root", str(tmp_path))
        assert code == 0
        assert "farm gc: orphaned_entries=" in out

    def test_min_hit_rate_gate_fails_cold_submit(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, *self._submit_args(tmp_path, "--min-hit-rate", "1.0")
        )
        assert code == 1
        assert "FAIL: cache hit rate 0.0000" in out

    def test_injected_failure_then_resume(self, capsys, tmp_path, monkeypatch):
        from repro.farm.service import INJECT_FAIL_ENV

        monkeypatch.setenv(INJECT_FAIL_ENV, "0")
        code, out = run_cli(capsys, *self._submit_args(tmp_path))
        assert code == 1
        assert "shard 0 failed: injected failure" in out
        assert "FAIL: some shards failed" in out

        code, out = run_cli(
            capsys, "farm", "status", "--root", str(tmp_path)
        )
        assert code == 1  # incomplete campaigns exit nonzero
        assert '"failed": 1' in out

        monkeypatch.delenv(INJECT_FAIL_ENV)
        code, out = run_cli(capsys, *self._submit_args(tmp_path))
        assert code == 0
        assert "cache hits=3 computed=1" in out
        assert "OK: campaign complete" in out

    def test_unknown_campaign_exits_with_message(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["farm", "collect", "--root", str(tmp_path),
                 "--campaign", "last"]
            )

    def test_sweep_routes_through_farm(self, capsys, tmp_path):
        direct_args = (
            "sweep", "--workload", "placements", "--n", "5",
            "--trials", "30", "--seed", "3",
        )
        code, direct = run_cli(capsys, *direct_args)
        assert code == 0
        code, farmed = run_cli(
            capsys, *direct_args, "--farm", str(tmp_path)
        )
        assert code == 0
        assert farmed == direct  # same stats, same OK line
        code, warm = run_cli(
            capsys, *direct_args, "--farm", str(tmp_path)
        )
        assert code == 0
        assert warm == direct
        # The sweep left reusable shards behind.
        assert (tmp_path / "objects").is_dir()

    def test_faults_sweep_routes_through_farm(self, capsys, tmp_path):
        args = (
            "faults", "sweep", "--kind", "drop", "--rates", "0,0.05",
            "--n", "5", "--id-max", "40", "--samples", "24",
        )
        code, direct = run_cli(capsys, *args)
        assert code == 0
        code, farmed = run_cli(capsys, *args, "--farm", str(tmp_path))
        assert code == 0
        # Point-for-point identical curve through the cache.
        assert [
            line for line in farmed.splitlines() if "rate" in line
        ] == [line for line in direct.splitlines() if "rate" in line]


class TestTopology:
    """The --topology surface: ear election, refusal, verification."""

    def test_elect_theta(self, capsys):
        code, out = run_cli(capsys, "elect", "--topology", "theta")
        assert code == 0
        assert "ear (2-edge-connected election)" in out
        assert "leader       : 7" in out
        assert "exact match" in out

    def test_elect_bridge_refused_with_witness(self, capsys):
        code, out = run_cli(capsys, "elect", "--topology", "bridge")
        assert code == 1
        assert "REFUSED" in out
        assert "bridge edge (2, 3)" in out

    def test_elect_explicit_edges(self, capsys):
        code, out = run_cli(
            capsys, "elect", "--topology", "edges:0-1,1-2,2-3,3-0,0-2",
            "--ids", "5,2,9,4",
        )
        assert code == 0
        assert "leader       : 2" in out

    def test_elect_ring_spec(self, capsys):
        code, out = run_cli(capsys, "elect", "--topology", "ring:5")
        assert code == 0
        assert "stride C=1" in out

    def test_bad_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["elect", "--topology", "dodecahedron"])
        # A parseable-but-bridged spec is a refusal, not a parse error.
        code, out = run_cli(capsys, "elect", "--topology", "edges:0-1")
        assert code == 1
        assert "REFUSED" in out

    def test_verify_exhaustive_with_downgrade(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--topology", "theta:0,1,1",
            "--ids", "2,4,1,3", "--reduction", "full",
        )
        assert code == 0
        assert "downgrading to 'sleep' off-ring" in out
        assert "CERTIFIED (all schedules)" in out
        assert "L*IDmax*C" in out

    def test_verify_bridge_refused(self, capsys):
        code, out = run_cli(capsys, "verify", "--topology", "bridge")
        assert code == 1
        assert "witness" in out

    def test_verify_statistical_topology(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--statistical", "--topology", "theta:0,1,2",
            "--samples", "12", "--id-max", "64",
        )
        assert code == 0
        assert "PASSED (sampled topology battery)" in out

    def test_farm_submit_ear_workload(self, capsys, tmp_path):
        root = str(tmp_path / "farm")
        code, out = run_cli(
            capsys, "farm", "submit", "--root", root, "--workload", "ear",
            "--topology", "theta:0,1,2", "--total", "12",
            "--shard-size", "6", "--backend", "python",
        )
        assert code == 0
        assert "workload=ear" in out
        code, out = run_cli(
            capsys, "farm", "submit", "--root", root, "--workload", "ear",
            "--topology", "theta:0,1,2", "--total", "12",
            "--shard-size", "6", "--backend", "python",
            "--min-hit-rate", "1.0",
        )
        assert code == 0
        code, out = run_cli(capsys, "farm", "collect", "--root", root)
        assert code == 0
        assert '"clean":true' in out


def test_main_imports_only_the_named_verb():
    """The parser is built on demand: running one verb in a fresh process
    imports no other verb's module."""
    driver = textwrap.dedent(
        """
        import contextlib, io, sys
        from repro.cli import VERBS, main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["elect", "--ids", "3,7,5,2"]) == 0
        print(sorted(f"repro.cli.{verb}" for verb in [*VERBS, "reference"]
                     if f"repro.cli.{verb}" in sys.modules))
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", driver], capture_output=True, text=True,
        env=env, check=True,
    )
    assert proc.stdout.strip() == "['repro.cli.elect']"
