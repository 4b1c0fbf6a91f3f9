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
- ``benchmarks/conftest.save_result`` refuses to persist metric-free
  or schema-invalid payloads.
"""

import importlib.util
import json
import math
import pathlib

import pytest

from repro.__main__ import main
from repro.harness import run_workload
from repro.observability import (IncomparableSnapshots, compare_snapshots,
                                 iter_metrics, load_snapshot,
                                 next_snapshot_path, run_suite,
                                 validate_result_payload,
                                 validate_snapshot, write_snapshot)
from repro.observability.baseline import DOWN, NEUTRAL, UP
from repro.observability.regress import (GATE_LEVELS, VERDICT_ADDED,
                                         VERDICT_CHANGED, VERDICT_FLAT,
                                         VERDICT_IMPROVED, VERDICT_INVALID,
                                         VERDICT_REGRESSED, VERDICT_REMOVED,
                                         VERDICT_SKIPPED,
                                         bootstrap_ratio_ci)
from repro.workloads import ALL_WORKLOADS

SWEEP = ("sjeng",)
INJECT = "seed=1,extra-sync=0.5"


@pytest.fixture(scope="module")
def clean_snapshot():
    return run_suite(mode="custom", sweep_workloads=SWEEP,
                     name="clean", wallclock_samples=2)


@pytest.fixture(scope="module")
def injected_snapshot():
    return run_suite(mode="custom", sweep_workloads=SWEEP,
                     name="injected", inject=INJECT, wallclock_samples=2)


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
    again = run_suite(mode="custom", sweep_workloads=SWEEP,
                      name="again", wallclock_samples=2)
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
    # Attribution is checked on what the gate acts on.  The ungated
    # ``wallclock.*`` verdicts measure host time and can read
    # "regressed" under load, so they are not part of this claim.
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
        "sync": {}, "coverage": {}, "wallclock": {},
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


def test_incomparable_sweeps_raise():
    base = _tiny_snapshot(sweep=("w",))
    cur = _tiny_snapshot(sweep=("w", "v"))
    with pytest.raises(IncomparableSnapshots, match="sweep_workloads"):
        compare_snapshots(base, cur)


def test_gate_levels_are_nested():
    assert set(GATE_LEVELS["never"]) <= set(GATE_LEVELS["regressed"]) \
        <= set(GATE_LEVELS["changed"])


def test_bootstrap_ci_is_deterministic_and_brackets_ratio():
    base = [1.0, 1.1, 0.9, 1.05, 0.95]
    cur = [2.0, 2.2, 1.8, 2.1, 1.9]
    lo, hi = bootstrap_ratio_ci(base, cur)
    assert (lo, hi) == bootstrap_ratio_ci(base, cur)
    assert lo <= 2.0 <= hi * 1.2
    assert lo > 1.5  # a genuine 2x slowdown is clearly outside noise


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
    assert not any(m.startswith("wallclock.") for m in metrics)


# ---------------------------------------------------------------------------
# Result-payload schema + benchmarks/conftest.save_result.
# ---------------------------------------------------------------------------

def test_validate_result_payload_rejects_empty_and_nonfinite():
    assert validate_result_payload(
        {"name": "x", "rows": [], "summary": {}})
    assert validate_result_payload(
        {"name": "x", "rows": [], "summary": {"a": math.inf}})
    assert validate_result_payload(
        {"name": "", "rows": [], "summary": {"a": 1.0}})
    assert validate_result_payload("not a dict")
    assert validate_result_payload(
        {"name": "x", "rows": [{"v": [1, 2]}], "summary": {"a": 1.0}})
    assert validate_result_payload(
        {"name": "x", "rows": [{"v": 1}], "summary": {}}) == []
    assert validate_result_payload(
        {"name": "x", "rows": [], "summary": {"a": 1.0}}) == []


@pytest.fixture
def save_result(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_conftest",
        pathlib.Path(__file__).parent.parent / "benchmarks" /
        "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    return module.save_result


def test_save_result_rejects_bare_string(save_result):
    with pytest.raises(TypeError, match="summary"):
        save_result("smoke", "just some rendered text")


def test_save_result_rejects_nonfinite_summary(save_result):
    with pytest.raises(ValueError, match="schema"):
        save_result("smoke", "text", summary={"metric": math.nan})


def test_save_result_accepts_string_with_summary(save_result, tmp_path):
    save_result("smoke", "rendered text", summary={"metric": 3.0})
    payload = json.loads((tmp_path / "smoke.json").read_text())
    assert payload["summary"] == {"metric": 3.0}
    assert (tmp_path / "smoke.txt").read_text() == "rendered text\n"


def test_save_result_accepts_experiment_result(save_result, tmp_path):
    from repro.harness import ExperimentResult

    result = ExperimentResult("smoke", rows=[{"w": "sjeng", "v": 1.5}],
                              summary={"geomean": 1.5}, text="tbl")
    save_result("smoke", result, config={"engine": "tcg"})
    payload = json.loads((tmp_path / "smoke.json").read_text())
    assert payload["rows"] == [{"w": "sjeng", "v": 1.5}]
    assert payload["config"] == {"engine": "tcg"}


# ---------------------------------------------------------------------------
# The CLI verb (suite mode + the gate's exit codes).
# ---------------------------------------------------------------------------

def test_cli_bench_gate_catches_injected_regression(tmp_path, capsys):
    base = str(tmp_path / "base.json")
    code = main(["bench", "--workload", "sjeng", "--samples", "2",
                 "--out", base])
    assert code == 0
    assert validate_snapshot(load_snapshot(base)) == []

    code = main(["bench", "--workload", "sjeng", "--samples", "2",
                 "--inject", INJECT, "--out", str(tmp_path / "cur.json"),
                 "--compare", base, "--format", "json"])
    assert code == 1
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])  # the report is last
    assert report["top_category"] == "coordination"
    assert report["counts"][VERDICT_REGRESSED] > 0


def test_cli_bench_clean_compare_exits_zero(tmp_path):
    base = str(tmp_path / "base.json")
    assert main(["bench", "--workload", "sjeng", "--samples", "2",
                 "--out", base]) == 0
    assert main(["bench", "--workload", "sjeng", "--samples", "2",
                 "--out", str(tmp_path / "cur.json"),
                 "--compare", base]) == 0


def test_cli_bench_usage_errors(tmp_path):
    assert main(["bench", "--workload", "nope",
                 "--out", str(tmp_path / "s.json")]) == 2
    assert main(["bench", "--workload", "sjeng", "--samples", "2",
                 "--out", str(tmp_path / "s.json"),
                 "--fail-on", "bogus"]) == 2
    assert main(["bench", "--workload", "sjeng", "--samples", "2",
                 "--out", str(tmp_path / "s2.json"),
                 "--compare", str(tmp_path / "missing.json")]) == 2
