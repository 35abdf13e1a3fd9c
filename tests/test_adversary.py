"""Adversarial fault-plan search: plans, search loop, artifacts, farm,
and the Lemma 18 w.h.p. predicate.

The plan space, the optimizers, and the artifact format are all pure
functions of their seeds and coordinates, so the contracts here are
deterministic equalities: the same search seed walks the same
candidates, a plan's canonical dict round-trips through JSON and farm
params, and a saved artifact replays to bit-identical classification
counts in a fresh process.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings as hyp_settings

from repro.adversary import (
    ARTIFACT_VERSION,
    CRASH_COST,
    AdversaryPlan,
    EvalSettings,
    PlanSpace,
    artifact_dict,
    evaluate_plan,
    load_artifact,
    plan_from_canonical,
    random_baseline,
    replay_artifact,
    save_artifact,
    search_worst_plan,
)
from repro.analysis.whp import whp_target
from repro.exceptions import ConfigurationError
from repro.farm.campaign import Campaign, adversary_params, recovery_params
from repro.farm.keys import canonical_json
from repro.faults.model import GroupDrop
from repro.verification.statistical import (
    Report,
    WhpCheck,
    run_anonymous_whp_check,
)

from strategies import adversary_plans

#: Fast evaluation point shared across the executing tests.
SMALL = EvalSettings(n=4, id_max=24, samples=12, block_size=8)

#: Small search space: a handful of coordinates, budget 2.
SMALL_SPACE = PlanSpace(
    n=4,
    budget=2,
    rounds=(1, 2, 4),
    thresholds=(1, 2),
    offsets=(0, 1),
    restarts=(None, 1),
    drop_rates=(0.5,),
    max_drops=1,
    max_burst=2,
)


class TestPlanValidation:
    def test_cost_accounting(self):
        assert AdversaryPlan.trivial().cost == 0
        crash = AdversaryPlan(crash=True)
        assert crash.cost == CRASH_COST == 2
        loaded = AdversaryPlan(
            crash=True,
            restart_after=2,
            drops=(GroupDrop(), GroupDrop(offset=1)),
            burst_length=3,
            drop_rate=0.5,
        )
        assert loaded.cost == 2 + 2 + 3

    def test_burst_needs_a_rate(self):
        with pytest.raises(ConfigurationError, match="drop_rate"):
            AdversaryPlan(burst_length=2, drop_rate=0.0)

    def test_restart_requires_crash(self):
        with pytest.raises(ConfigurationError, match="nothing to restart"):
            AdversaryPlan(restart_after=2, drops=(GroupDrop(),))

    def test_trigger_validation(self):
        with pytest.raises(ConfigurationError, match="trigger_kind"):
            AdversaryPlan(trigger_kind="tau", crash=True)
        with pytest.raises(ConfigurationError, match="trigger_value"):
            AdversaryPlan(trigger_value=0, crash=True)

    def test_trivial_plans_canonicalize_to_one_spelling(self):
        """Member-free plans collapse to the trivial plan regardless of
        how their inert coordinates were spelled — the farm cache-key
        injectivity contract."""
        a = AdversaryPlan(anchor=3, trigger_kind="sigma", trigger_value=2)
        b = AdversaryPlan.trivial()
        assert a == b and a.to_canonical() == b.to_canonical()
        assert a.is_trivial and a.to_model().is_noop

    def test_burstless_drop_rate_is_inert(self):
        a = AdversaryPlan(crash=True, drop_rate=0.7)
        b = AdversaryPlan(crash=True)
        assert a == b

    def test_canonical_round_trip(self):
        plan = AdversaryPlan(
            anchor=2,
            trigger_kind="rho",
            trigger_value=2,
            crash=True,
            restart_after=1,
            drops=(GroupDrop(offset=1, node_offset=2, direction="ccw"),),
            burst_length=2,
            drop_rate=0.5,
            fault_seed=7,
        )
        data = json.loads(canonical_json(plan.to_canonical()))
        assert plan_from_canonical(data) == plan

    def test_compiles_to_a_single_group(self):
        plan = AdversaryPlan(
            anchor=1, trigger_kind="sigma", trigger_value=2,
            crash=True, burst_length=2, drop_rate=0.5,
        )
        model = plan.to_model()
        assert len(model.groups) == 1
        group = model.groups[0]
        assert group.trigger_field == "sigma" and group.trigger_threshold == 2
        assert group.crash and group.burst is not None
        assert model.drop_rate == 0.5
        absolute = AdversaryPlan(trigger_kind="round", trigger_value=3,
                                 crash=True).to_model().groups[0]
        assert absolute.at_round == 3 and absolute.trigger_field is None


class TestPlanSpace:
    def test_space_validation(self):
        with pytest.raises(ConfigurationError, match="budget"):
            PlanSpace(n=4, budget=-1)
        with pytest.raises(ConfigurationError, match="drop_rates"):
            PlanSpace(n=4, budget=2, drop_rates=(0.0,))
        with pytest.raises(ConfigurationError, match="ring"):
            PlanSpace(n=1, budget=2)

    def test_sampling_is_seed_deterministic(self):
        import random

        first = [SMALL_SPACE.sample(random.Random(5)) for _ in range(6)]
        second = [SMALL_SPACE.sample(random.Random(5)) for _ in range(6)]
        assert first == second

    @given(pair=adversary_plans())
    @hyp_settings(max_examples=60, deadline=None)
    def test_sampled_plans_respect_the_budget(self, pair):
        space, plan = pair
        assert plan.cost <= space.budget
        assert plan_from_canonical(plan.to_canonical()) == plan

    @given(pair=adversary_plans())
    @hyp_settings(max_examples=40, deadline=None)
    def test_mutation_stays_inside_the_budget(self, pair):
        import random

        space, plan = pair
        rng = random.Random(11)
        for _ in range(4):
            plan = space.mutate(plan, rng)
            assert plan.cost <= space.budget

    def test_zero_budget_samples_only_the_trivial_plan(self):
        import random

        space = PlanSpace(n=4, budget=0)
        assert space.sample(random.Random(0)) == AdversaryPlan.trivial()


class TestEvaluationAndSearch:
    def test_trivial_plan_recovers_everything(self):
        evaluation = evaluate_plan(AdversaryPlan.trivial(), SMALL)
        assert evaluation.recovered == SMALL.samples
        assert evaluation.success_rate == 1.0
        assert evaluation.fault_events == {}

    def test_search_is_seed_deterministic(self):
        runs = [
            search_worst_plan(
                SMALL_SPACE, SMALL, iterations=2, population=4, search_seed=3
            )
            for _ in range(2)
        ]
        assert runs[0].best.plan == runs[1].best.plan
        assert runs[0].best.objective == runs[1].best.objective
        assert runs[0].trace == runs[1].trace

    def test_zero_budget_short_circuits(self):
        space = PlanSpace(n=4, budget=0)
        result = search_worst_plan(space, SMALL, search_seed=9)
        assert result.best.plan.is_trivial
        assert result.iterations == 0 and result.evaluations == 1

    def test_memo_counts_distinct_plans_only(self):
        result = search_worst_plan(
            SMALL_SPACE, SMALL, iterations=3, population=4, search_seed=0
        )
        assert result.evaluations <= 3 * 4
        assert len(result.trace) == 3

    def test_epsilon_greedy_runs_and_improves_on_trivial(self):
        result = search_worst_plan(
            SMALL_SPACE,
            SMALL,
            strategy="epsilon-greedy",
            iterations=6,
            search_seed=1,
        )
        trivial = evaluate_plan(AdversaryPlan.trivial(), SMALL)
        assert result.best.objective <= trivial.objective
        assert not result.best.plan.is_trivial

    def test_search_never_loses_to_its_own_candidates(self):
        """The returned best is the minimum over everything evaluated —
        in particular no worse than a same-seed random baseline drawn
        from the identical stream (epsilon-greedy seeds its first sample
        from the same generator)."""
        result = search_worst_plan(
            SMALL_SPACE, SMALL, iterations=2, population=6, search_seed=4
        )
        baseline = random_baseline(SMALL_SPACE, SMALL, count=4, search_seed=104)
        assert result.best.objective[0] <= baseline.objective[0]

    def test_strategy_and_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            search_worst_plan(SMALL_SPACE, SMALL, strategy="anneal")
        with pytest.raises(ConfigurationError, match="iteration"):
            search_worst_plan(SMALL_SPACE, SMALL, iterations=0)
        with pytest.raises(ConfigurationError, match="baseline"):
            random_baseline(SMALL_SPACE, SMALL, count=0)


class TestArtifacts:
    def _result(self):
        return search_worst_plan(
            SMALL_SPACE, SMALL, iterations=2, population=4, search_seed=2
        )

    def test_round_trip_and_byte_identity(self, tmp_path):
        result = self._result()
        payload = artifact_dict(result, SMALL)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_artifact(first, payload)
        save_artifact(second, load_artifact(first))
        assert first.read_bytes() == second.read_bytes()
        assert load_artifact(first)["worst_plan"] == result.best.to_dict()

    def test_replay_matches_bit_for_bit(self, tmp_path):
        result = self._result()
        path = save_artifact(
            tmp_path / "plan.json", artifact_dict(result, SMALL)
        )
        outcome = replay_artifact(load_artifact(path))
        assert outcome.matches
        assert outcome.observed == outcome.expected

    def test_tampered_counts_are_detected(self, tmp_path):
        result = self._result()
        payload = artifact_dict(result, SMALL)
        payload["worst_plan"]["recovered"] += 1
        outcome = replay_artifact(payload)
        assert not outcome.matches

    def test_load_rejects_malformed_artifacts(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no artifact"):
            load_artifact(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_artifact(bad)
        wrong_kind = tmp_path / "kind.json"
        wrong_kind.write_text(json.dumps({"kind": "sweep"}))
        with pytest.raises(ConfigurationError, match="adversary-plan"):
            load_artifact(wrong_kind)
        wrong_version = tmp_path / "version.json"
        wrong_version.write_text(
            json.dumps({"kind": "adversary-plan", "version": ARTIFACT_VERSION + 1})
        )
        with pytest.raises(ConfigurationError, match="version"):
            load_artifact(wrong_version)

    def test_baseline_section_is_recorded(self):
        result = self._result()
        baseline = random_baseline(SMALL_SPACE, SMALL, count=2, search_seed=9)
        payload = artifact_dict(result, SMALL, baseline=baseline, baseline_count=2)
        assert payload["baseline"]["count"] == 2
        assert payload["baseline"]["best"]["plan"] == baseline.plan.to_canonical()


class TestFarmAdversaryWorkload:
    def _plan(self):
        return AdversaryPlan(
            anchor=1, trigger_kind="round", trigger_value=2,
            crash=True, restart_after=1,
        )

    def test_params_canonicalize_plan_spellings(self):
        """Two spellings of one plan (inert coordinates set or not) must
        produce identical campaign params — and hence identical keys."""
        sloppy = {
            "anchor": 3, "trigger_kind": "sigma", "trigger_value": 2,
            "crash": False, "restart_after": None, "drops": [],
            "burst_length": 0, "drop_rate": 0.0, "fault_seed": 0,
        }
        tidy = AdversaryPlan.trivial().to_canonical()
        assert adversary_params(plan=sloppy) == adversary_params(plan=tidy)

    def test_jobs_resolve_to_recovery_coordinates(self):
        plan = self._plan()
        campaign = Campaign(
            "adversary",
            total=12,
            params=adversary_params(plan=plan.to_canonical(), n=4, id_max=24),
        )
        assert campaign.job_workload == "recovery"
        (point,) = campaign.grid()
        direct = recovery_params(n=4, id_max=24, faults=plan.to_model())
        assert point == direct
        assert campaign.jobs()[0].workload == "recovery"

    def test_distinct_plans_key_distinct_campaigns(self):
        a = Campaign(
            "adversary", total=12,
            params=adversary_params(plan=self._plan().to_canonical()),
        )
        other = AdversaryPlan(
            anchor=2, trigger_kind="round", trigger_value=2,
            crash=True, restart_after=1,
        )
        b = Campaign(
            "adversary", total=12,
            params=adversary_params(plan=other.to_canonical()),
        )
        assert a.cid != b.cid
        assert a.jobs()[0].key != b.jobs()[0].key

    def test_farm_evaluation_matches_direct_and_hits_cache(self, tmp_path):
        plan = self._plan()
        direct = evaluate_plan(plan, SMALL)
        warm = evaluate_plan(plan, SMALL, farm_root=tmp_path)
        assert warm.to_dict() == direct.to_dict()
        # Second pass must be served from the content-addressed store.
        from repro.farm.campaign import Campaign as C
        from repro.farm.service import Farm

        farm = Farm(tmp_path)
        campaign = C(
            "adversary",
            total=SMALL.samples,
            params=adversary_params(
                plan=plan.to_canonical(), n=SMALL.n, id_max=SMALL.id_max,
            ),
        )
        outcome = farm.submit(campaign)
        assert outcome.complete and outcome.hits == len(campaign.jobs())


class TestLemma18Predicate:
    def test_whp_target_is_the_lemma_floor(self):
        assert whp_target(8, 2.0) == 1 - 8 ** (-2.0)
        assert whp_target(6, 1.0) == pytest.approx(1 - 1 / 6)

    def test_clean_check_holds_with_replayable_counterexamples(self):
        report = run_anonymous_whp_check(n=6, c=2.0, trials=60, seed=0)
        assert report.holds
        assert report.check.target == whp_target(6, 2.0)
        assert report.rate_high >= report.check.target
        assert report.passes + report.violations == 60
        for ce in report.counterexamples:
            assert ce.replay() is not None  # the seed alone reproduces it

    def test_failing_report_rejects(self):
        """The one-sided test rejects exactly when even the CP upper
        bound sits below the Lemma 18 floor."""
        report = Report(
            check=WhpCheck(n=8, c=2.0, seed=0, backend="python"),
            samples=100, counts={"succeeded": 80, "failed": 20},
            confidence=0.99, rate_low=0.70, rate_high=0.88,
        )
        assert report.check.target == whp_target(8, 2.0) > 0.88
        assert not report.holds
        assert report.pass_rate == 0.8

    def test_check_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            run_anonymous_whp_check(n=6, trials=0)
        with pytest.raises(ConfigurationError):
            run_anonymous_whp_check(n=1, trials=10)


class TestAdversaryCli:
    def test_budget_zero_exits_cleanly(self, capsys):
        from repro.cli import main

        code = main([
            "faults", "search", "--budget", "0", "--n", "4",
            "--id-max", "24", "--samples", "8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trivial" in out and "OK" in out

    def test_search_writes_artifact_replay_verifies(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "worst.json"
        code = main([
            "faults", "search", "--budget", "2", "--n", "4",
            "--id-max", "24", "--samples", "12", "--iterations", "2",
            "--population", "4", "--search-seed", "2",
            "--restarts", "1", "--drop-rates", "0.5",
            "--max-drops", "1", "--max-burst", "2",
            "--out", str(artifact),
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["faults", "replay", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out

    def test_statistical_anonymous_verify(self, capsys):
        from repro.cli import main

        code = main([
            "verify", "--statistical", "--algorithm", "anonymous",
            "--n", "6", "--samples", "40",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "lemma 18 target" in out
        assert "PASSED" in out

    def test_anonymous_requires_statistical(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="statistical"):
            main(["verify", "--algorithm", "anonymous"])
