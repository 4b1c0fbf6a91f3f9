"""Continuous benchmarking: snapshots, the comparator, the perf gate.

The load-bearing guarantees under test:

- a suite snapshot passes the schema validator, and for every engine
  tier the Sec III coordination categories sum *exactly* to that
  tier's ``host_cost`` (the attribution invariant);
- the cost model is deterministic: two clean runs of the same tree
  produce bit-identical snapshots, so the exact gate reports every
  metric flat and exits 0;
- the injector's ``extra-sync`` site works as a regression simulator
  end to end: the gate exits nonzero and attributes the damage to the
  ``coordination`` category, while guest behaviour (and therefore the
  soundness checker) is unaffected;
- the comparator handles schema drift: added/removed/skipped metrics,
  zero-valued baselines, and non-finite scalars each get the right
  verdict and gate at the right ``--fail-on`` level;
- the paper's claims hold on the committed baseline, a doctored figure
  violates exactly the claim it breaks and fails ``repro bench``, and
  claims of experiments that did not run are skipped.
"""

import json
import math
import pathlib

import pytest

from repro.__main__ import main
from repro.harness.experiments import CLAIMS
from repro.harness.runner import run_workload
from repro.observability.baseline import (DOWN, NEUTRAL, UP, iter_metrics,
                                          load_snapshot, next_snapshot_path,
                                          validate_snapshot, write_snapshot)
from repro.observability.bench import (CLAIM_HELD, CLAIM_SKIPPED,
                                       CLAIM_VIOLATED, QUICK_EXPERIMENTS,
                                       check_claims, run_suite)
from repro.observability.regress import (GATE_LEVELS, IncomparableSnapshots,
                                         VERDICT_ADDED, VERDICT_CHANGED,
                                         VERDICT_FLAT, VERDICT_IMPROVED,
                                         VERDICT_INVALID, VERDICT_REGRESSED,
                                         VERDICT_REMOVED, VERDICT_SKIPPED,
                                         compare_snapshots)
from repro.workloads import ALL_WORKLOADS

SWEEP = ("sjeng",)
INJECT = "seed=1,extra-sync=0.5"
BENCH_0 = pathlib.Path(__file__).parent.parent / "BENCH_0.json"


@pytest.fixture(scope="module")
def clean_snapshot():
    return run_suite(mode="custom", sweep_workloads=SWEEP, name="clean")


@pytest.fixture(scope="module")
def injected_snapshot():
    return run_suite(mode="custom", sweep_workloads=SWEEP,
                     name="injected", inject=INJECT)


# ---------------------------------------------------------------------------
# Snapshot schema + the attribution invariant.
# ---------------------------------------------------------------------------

def test_snapshot_is_schema_valid(clean_snapshot):
    assert validate_snapshot(clean_snapshot) == []


def test_coordination_categories_sum_to_host_cost(clean_snapshot):
    for engine, totals in clean_snapshot["tiers"].items():
        breakdown = clean_snapshot["coordination"][engine]
        category_sum = sum(value for key, value in breakdown.items()
                           if key != "total")
        assert category_sum == breakdown["total"] == totals["host_cost"], \
            engine


def test_snapshot_roundtrips_through_disk(tmp_path, clean_snapshot):
    path = write_snapshot(str(tmp_path / "snap.json"), clean_snapshot)
    assert load_snapshot(path) == clean_snapshot


def test_write_refuses_invalid_snapshot(tmp_path, clean_snapshot):
    broken = json.loads(json.dumps(clean_snapshot))
    broken["coordination"]["rules-full"]["mmu"] += 1.0  # breaks the sum
    with pytest.raises(ValueError, match="categories sum"):
        write_snapshot(str(tmp_path / "bad.json"), broken)
    assert not (tmp_path / "bad.json").exists()


def test_next_snapshot_path_skips_existing(tmp_path):
    assert next_snapshot_path(str(tmp_path)).endswith("BENCH_0.json")
    (tmp_path / "BENCH_0.json").write_text("{}")
    assert next_snapshot_path(str(tmp_path)).endswith("BENCH_1.json")


# ---------------------------------------------------------------------------
# Determinism: clean vs clean is flat everywhere and exits 0.
# ---------------------------------------------------------------------------

def test_clean_rerun_is_bit_identical(clean_snapshot):
    again = run_suite(mode="custom", sweep_workloads=SWEEP, name="again")
    report = compare_snapshots(clean_snapshot, again)
    non_flat = [v for v in report.verdicts if v.verdict != VERDICT_FLAT]
    assert non_flat == []
    assert report.exit_code("changed") == 0
    assert report.top_category is None


# ---------------------------------------------------------------------------
# The regression simulator (extra-sync) end to end.
# ---------------------------------------------------------------------------

def test_extra_sync_preserves_guest_behaviour():
    workload = ALL_WORKLOADS["sjeng"]
    clean = run_workload(workload, "rules-full")
    injected = run_workload(workload, "rules-full", inject=INJECT)
    assert injected.output == clean.output
    assert injected.exit_code == 0
    assert injected.host_cost > clean.host_cost


def test_injected_regression_is_caught_and_attributed(
        clean_snapshot, injected_snapshot):
    report = compare_snapshots(clean_snapshot, injected_snapshot)
    assert report.exit_code("regressed") == 1
    assert report.top_category == "coordination"
    # Only the coordination category grew: the simulator is surgical.
    grew = {category for category, delta
            in report.category_deltas.items() if delta > 0}
    assert grew == {"coordination"}
    regressed = report.gating_verdicts("regressed")
    assert regressed
    assert all(v.verdict == VERDICT_REGRESSED for v in regressed)
    for verdict in regressed:
        if not verdict.metric.startswith("coordination."):
            assert verdict.attribution == "coordination", verdict.metric
    # host_cost regressed on every rules tier; tcg is untouched
    # (extra-sync only fires on rules-tier TBs).
    regressed_ids = {v.metric for v in regressed}
    assert "tiers.rules-full.host_cost" in regressed_ids
    assert not any(m.startswith("tiers.tcg.") for m in regressed_ids)


def test_injected_snapshot_still_schema_valid(injected_snapshot):
    # The inserted sync insns are tagged and charged, so the category
    # sum invariant survives injection.
    assert validate_snapshot(injected_snapshot) == []


# ---------------------------------------------------------------------------
# Comparator edge cases (synthetic snapshots — no machine runs).
# ---------------------------------------------------------------------------

def _tiny_snapshot(host_cost=100.0, coordination=20.0, summary=None,
                   experiments=("figx",), sweep=("w",)):
    body = host_cost - coordination
    return {
        "schema": "repro-bench-snapshot", "schema_version": 1,
        "name": "tiny", "mode": "custom",
        "figures": {"figx": {"rows": [],
                             "summary": dict(summary or {"metric": 1.0})}},
        "tiers": {"rules-full": {"host_cost": host_cost}},
        "coordination": {"rules-full": {"body": body,
                                        "coordination": coordination,
                                        "total": host_cost}},
        "sync": {}, "coverage": {},
        "fingerprint": {"sweep_workloads": list(sweep),
                        "engines": ["rules-full"],
                        "experiments": list(experiments)},
    }


def _verdict_of(report, metric):
    return {v.metric: v for v in report.verdicts}[metric]


def test_added_metric_gates_on_changed_only():
    base = _tiny_snapshot(summary={"metric": 1.0})
    cur = _tiny_snapshot(summary={"metric": 1.0, "fresh": 2.0})
    report = compare_snapshots(base, cur)
    verdict = _verdict_of(report, "figures.figx.summary.fresh")
    assert verdict.verdict == VERDICT_ADDED
    assert report.exit_code("regressed") == 0
    assert report.exit_code("changed") == 1
    assert report.exit_code("never") == 0


def test_removed_metric_gates_on_changed_only():
    base = _tiny_snapshot(summary={"metric": 1.0, "gone": 2.0})
    cur = _tiny_snapshot(summary={"metric": 1.0})
    report = compare_snapshots(base, cur)
    verdict = _verdict_of(report, "figures.figx.summary.gone")
    assert verdict.verdict == VERDICT_REMOVED
    assert report.exit_code("regressed") == 0
    assert report.exit_code("changed") == 1


def test_skipped_section_never_gates():
    base = _tiny_snapshot(experiments=("figx",))
    cur = _tiny_snapshot(experiments=())
    del cur["figures"]["figx"]
    report = compare_snapshots(base, cur)
    verdict = _verdict_of(report, "figures.figx.summary.metric")
    assert verdict.verdict == VERDICT_SKIPPED
    assert report.exit_code("changed") == 0


def test_zero_valued_baseline_metric():
    base = _tiny_snapshot(coordination=0.0)
    cur = _tiny_snapshot(coordination=30.0)
    report = compare_snapshots(base, cur)
    verdict = _verdict_of(report, "coordination.rules-full.coordination")
    assert verdict.verdict == VERDICT_REGRESSED
    assert verdict.rel_change is None  # no finite ratio from zero
    assert report.exit_code("regressed") == 1


def test_non_finite_summary_scalar_is_invalid_and_gates():
    base = _tiny_snapshot(summary={"metric": 1.0})
    cur = _tiny_snapshot(summary={"metric": math.nan})
    report = compare_snapshots(base, cur)
    verdict = _verdict_of(report, "figures.figx.summary.metric")
    assert verdict.verdict == VERDICT_INVALID
    assert report.exit_code("regressed") == 1
    cur_none = _tiny_snapshot(summary={"metric": None})
    report = compare_snapshots(base, cur_none)
    assert _verdict_of(
        report, "figures.figx.summary.metric").verdict == VERDICT_INVALID


def test_neutral_direction_yields_changed():
    base = _tiny_snapshot()
    cur = _tiny_snapshot()
    cur["tiers"]["rules-full"]["guest_icount"] = 5.0
    base["tiers"]["rules-full"]["guest_icount"] = 4.0
    report = compare_snapshots(base, cur)
    verdict = _verdict_of(report, "tiers.rules-full.guest_icount")
    assert verdict.verdict == VERDICT_CHANGED
    assert report.exit_code("regressed") == 0
    assert report.exit_code("changed") == 1


def test_improvement_direction_up():
    base = _tiny_snapshot(summary={"metric": 1.0})
    cur = _tiny_snapshot(summary={"metric": 2.0})
    # figx is not in SUMMARY_DIRECTIONS, so its metrics are neutral;
    # patch in an UP direction via a known figure name instead.
    base["figures"]["fig16"] = {"rows": [], "summary": {"geomean": 1.0}}
    cur["figures"]["fig16"] = {"rows": [], "summary": {"geomean": 2.0}}
    base["fingerprint"]["experiments"].append("fig16")
    cur["fingerprint"]["experiments"].append("fig16")
    report = compare_snapshots(base, cur)
    verdict = _verdict_of(report, "figures.fig16.summary.geomean")
    assert verdict.direction == UP
    assert verdict.verdict == VERDICT_IMPROVED
    # Any move fails --fail-on changed, an improvement included.
    assert report.exit_code("regressed") == 0
    assert report.exit_code("changed") == 1


def test_incomparable_sweeps_raise():
    base = _tiny_snapshot(sweep=("w",))
    cur = _tiny_snapshot(sweep=("w", "v"))
    with pytest.raises(IncomparableSnapshots, match="sweep_workloads"):
        compare_snapshots(base, cur)


def test_gate_levels_are_nested():
    assert set(GATE_LEVELS["never"]) <= set(GATE_LEVELS["regressed"]) \
        <= set(GATE_LEVELS["changed"])


# ---------------------------------------------------------------------------
# Metric enumeration.
# ---------------------------------------------------------------------------

def test_iter_metrics_directions(clean_snapshot):
    metrics = {metric: direction for metric, _, direction
               in iter_metrics(clean_snapshot)}
    assert metrics["tiers.rules-full.host_cost"] == DOWN
    assert metrics["tiers.rules-full.guest_icount"] == NEUTRAL
    assert metrics["coordination.rules-full.coordination"] == DOWN
    assert metrics["sync.rules-full.sync_elisions_dyn"] == UP
    assert metrics["coverage.rules-full.covered_fraction"] == UP


# ---------------------------------------------------------------------------
# Figure schema.
# ---------------------------------------------------------------------------

def test_snapshot_validator_rejects_empty_and_nonfinite_figures():
    snapshot = load_snapshot(str(BENCH_0))
    name = sorted(snapshot["figures"])[0]

    def problems(figure):
        return validate_snapshot({**snapshot,
                                  "figures": {**snapshot["figures"],
                                              name: figure}})

    for figure in ({"rows": [], "summary": {}},
                   {"rows": [], "summary": {"a": math.inf}},
                   "not a dict",
                   {"rows": [{"v": [1, 2]}], "summary": {"a": 1.0}}):
        found = problems(figure)
        assert found and all(problem.startswith(f"figures.{name}: ")
                             for problem in found), figure
    assert problems({"rows": [{"v": 1}], "summary": {}}) == []
    assert problems({"rows": [], "summary": {"a": 1.0}}) == []


# ---------------------------------------------------------------------------
# The CLI verb (suite mode + the gate's exit codes).
# ---------------------------------------------------------------------------

def test_cli_bench_gate_catches_injected_regression(tmp_path, capsys):
    base = str(tmp_path / "base.json")
    code = main(["bench", "--workload", "sjeng",
                 "--out", base])
    assert code == 0
    assert validate_snapshot(load_snapshot(base)) == []

    code = main(["bench", "--workload", "sjeng",
                 "--inject", INJECT, "--out", str(tmp_path / "cur.json"),
                 "--compare", base, "--format", "json"])
    assert code == 1
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])  # the report is last
    assert report["top_category"] == "coordination"
    assert report["counts"][VERDICT_REGRESSED] > 0


def test_cli_bench_clean_compare_exits_zero(tmp_path):
    base = str(tmp_path / "base.json")
    assert main(["bench", "--workload", "sjeng", "--out", base]) == 0
    assert main(["bench", "--workload", "sjeng",
                 "--out", str(tmp_path / "cur.json"),
                 "--compare", base]) == 0


def test_cli_bench_usage_errors(tmp_path):
    assert main(["bench", "--workload", "nope",
                 "--out", str(tmp_path / "s.json")]) == 2
    assert main(["bench", "--workload", "sjeng",
                 "--out", str(tmp_path / "s.json"),
                 "--fail-on", "bogus"]) == 2
    assert main(["bench", "--workload", "sjeng",
                 "--out", str(tmp_path / "s2.json"),
                 "--compare", str(tmp_path / "missing.json")]) == 2


# ---------------------------------------------------------------------------
# The paper's claims (checked from snapshot figures alone, no runs).
# ---------------------------------------------------------------------------

def _verdicts(snapshot):
    return {(claim.experiment, claim.text): verdict
            for claim, verdict in check_claims(snapshot)}


def test_every_claim_holds_on_the_committed_baseline():
    verdicts = _verdicts(load_snapshot(str(BENCH_0)))
    assert len(verdicts) == len(CLAIMS) == 42
    assert set(verdicts.values()) == {CLAIM_HELD}


def _doctored_baseline():
    snapshot = load_snapshot(str(BENCH_0))
    snapshot["figures"]["fig16"]["summary"]["Base"] = 1.10
    return snapshot


def test_doctored_figure_violates_exactly_its_claim():
    verdicts = _verdicts(_doctored_baseline())
    violated = [key for key, verdict in verdicts.items()
                if verdict == CLAIM_VIOLATED]
    assert violated == [("fig16", "Base < 1.05")]


def test_cli_bench_exits_one_on_a_violated_claim(tmp_path, monkeypatch,
                                                 capsys):
    import repro.observability.bench

    monkeypatch.setattr(repro.observability.bench, "run_suite",
                        lambda **_kwargs: _doctored_baseline())
    assert main(["bench", "--out", str(tmp_path / "s.json")]) == 1
    # A violated claim fails the command whatever --fail-on says.
    assert main(["bench", "--out", str(tmp_path / "s2.json"),
                 "--compare", str(BENCH_0), "--fail-on", "never"]) == 1
    assert "paper claim VIOLATED: fig16: Base < 1.05" in \
        capsys.readouterr().err


def test_quick_snapshot_skips_full_only_claims():
    baseline = load_snapshot(str(BENCH_0))
    quick = {"figures": {name: baseline["figures"][name]
                         for name in QUICK_EXPERIMENTS}}
    for (experiment, text), verdict in _verdicts(quick).items():
        expected = CLAIM_SKIPPED if experiment in (
            "fig19", "footnote3", "ablation") else CLAIM_HELD
        assert verdict == expected, (experiment, text)
