"""Observability subsystem: tracer, profiler, exporters, stat namespaces.

The load-bearing guarantees under test:

- with tracing/profiling *disabled* every cost counter is bit-identical
  to a run without the subsystem (probes are zero-cost when off);
- the coordination-cost breakdown's category totals sum to
  ``engine.host_cost`` exactly (each executed host instruction and each
  modelled charge increments exactly one tag counter);
- per-TB attribution is lossless: attributed + unattributed cost equals
  ``engine.host_cost``;
- the Chrome trace export passes the trace-event schema validator;
- ``Machine.stats()`` keys are unique and namespaced on every engine.
"""

import json
import re

import pytest

from repro.common.errors import ReproError
from repro.harness.runner import make_machine, run_workload
from repro.observability.export import chrome_trace, validate_chrome_trace
from repro.observability.profile import (COORDINATION_CATEGORIES, Profiler,
                                         build_profile, coordination_breakdown,
                                         render_profile)
from repro.observability.stats import (STAT_NAMESPACES, merge_stats,
                                       namespace_group)
from repro.observability.trace import NULL_TRACER, TraceEvent, Tracer
from repro.workloads import ALL_WORKLOADS

WORKLOAD = ALL_WORKLOADS["sjeng"]  # the smallest SPEC analog
ENGINES = ("interp", "tcg", "rules-full")


def _stats_without_trace(stats):
    return {key: value for key, value in stats.items()
            if not key.startswith("trace.")}


# ---------------------------------------------------------------------------
# Zero cost when disabled.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_tracing_leaves_cost_counters_bit_identical(engine):
    plain = run_workload(WORKLOAD, engine)
    traced = run_workload(WORKLOAD, engine, tracer=Tracer(),
                          profiler=Profiler())
    assert traced.output == plain.output
    # Every non-trace counter — costs, tags, tiers, io — must match
    # exactly: probes never charge modelled cost.
    assert _stats_without_trace(traced.stats) == \
        _stats_without_trace(plain.stats)


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.emit("tb.enter", pc=0)      # safety-net no-op
    assert NULL_TRACER.events() == ()
    assert NULL_TRACER.tail() == ()
    assert NULL_TRACER.stats() == {}


#: Trace events per TB entry allowed on WORKLOAD (about 1.1 today: one
#: ``tb.enter`` per entry plus rare translate/helper/sync events).  The
#: tracer's cost is a fixed amount per event, so this bounds its
#: overhead without timing anything; a per-instruction probe would
#: push the ratio into the tens.
MAX_EVENTS_PER_TB_ENTRY = 2.0


def test_tracing_overhead_within_budget(monkeypatch):
    """Tracing costs a bounded number of events and changes no counter;
    with tracing off, no probe reaches the disabled tracer's emit."""
    tracer = Tracer()
    traced = run_workload(WORKLOAD, "rules-full", tracer=tracer)
    entries = tracer.counts_by_name()["tb.enter"]
    assert entries > 0
    assert tracer.emitted / entries <= MAX_EVENTS_PER_TB_ENTRY, \
        (tracer.emitted, entries)

    def unguarded_emit(self, name, **args):
        raise AssertionError(f"probe {name} emitted without checking "
                             "tracer.enabled")

    monkeypatch.setattr(type(NULL_TRACER), "emit", unguarded_emit)
    plain = run_workload(WORKLOAD, "rules-full")
    assert traced.output == plain.output
    assert _stats_without_trace(traced.stats) == \
        _stats_without_trace(plain.stats)


# ---------------------------------------------------------------------------
# Ring buffer mechanics.
# ---------------------------------------------------------------------------

def test_tracer_ring_drops_oldest_and_counts():
    tracer = Tracer(capacity=4)
    for index in range(7):
        tracer.emit("probe.fire", index=index)
    assert tracer.emitted == 7
    assert tracer.dropped == 3
    kept = [event.arg("index") for event in tracer.events()]
    assert kept == [3, 4, 5, 6]
    assert [event.arg("index") for event in tracer.tail(2)] == [5, 6]
    assert tracer.stats() == {"events": 7.0, "dropped": 3.0,
                              "buffered": 4.0}


def test_trace_event_rendering_and_args():
    event = TraceEvent(12.0, 3, "sync.save", (("mode", "packed"),
                                              ("insns", 3)))
    assert event.arg("mode") == "packed"
    assert event.arg("missing", 0) == 0
    assert str(event) == "[cost=12 ic=3] sync.save mode=packed insns=3"


# ---------------------------------------------------------------------------
# Stats namespacing.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_stats_keys_are_unique_and_namespaced(engine):
    result = run_workload(WORKLOAD, engine, tracer=Tracer())
    pattern = re.compile(
        r"^(%s)\.[^.]+$" % "|".join(STAT_NAMESPACES))
    for key in result.stats:
        assert pattern.match(key), f"bad stats key {key!r} on {engine}"
    # merge_stats would have raised on a duplicate; spot-check the
    # groups round-trip.
    engine_keys = namespace_group(result.stats, "engine")
    assert "host_cost" in engine_keys and "guest_icount" in engine_keys


def test_merge_stats_rejects_collisions_and_bad_namespaces():
    class TwiceMap(dict):
        """A mapping whose items() yields the same namespace twice."""
        def items(self):
            yield "engine", {"x": 1.0}
            yield "engine", {"x": 2.0}

    with pytest.raises(ReproError, match="duplicate"):
        merge_stats(TwiceMap())
    with pytest.raises(ReproError, match="must not contain"):
        merge_stats({"engine": {"a.b": 1.0}})
    with pytest.raises(ReproError, match="unknown stats namespace"):
        merge_stats({"bogus": {"x": 1.0}})


def test_merge_stats_merges_disjoint_groups():
    merged = merge_stats({"engine": {"x": 1.0}, "io": {"cost": 2.0}})
    assert merged == {"engine.x": 1.0, "io.cost": 2.0}


# ---------------------------------------------------------------------------
# Coordination-cost breakdown and per-TB attribution.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ("tcg", "rules-full"))
def test_breakdown_sums_exactly_to_host_cost(engine):
    result = run_workload(WORKLOAD, engine)
    breakdown = coordination_breakdown(result.stats)
    assert sum(breakdown.values()) == \
        pytest.approx(result.stats["engine.host_cost"], abs=1e-6)
    assert breakdown["body"] > 0
    assert set(breakdown) == set(COORDINATION_CATEGORIES) | {"other"}


def test_profiler_attribution_is_lossless():
    profiler = Profiler()
    machine = make_machine(WORKLOAD, "rules-full", profiler=profiler)
    machine.run(WORKLOAD.max_insns)
    host_cost = machine.stats()["engine.host_cost"]
    attributed = profiler.attributed_cost()
    unattributed = sum(profiler.unattributed.values())
    assert attributed + unattributed == pytest.approx(host_cost, abs=1e-6)
    assert attributed > 0
    rows = profiler.tb_rows()
    assert rows and rows[0]["cost"] >= rows[-1]["cost"]
    # Each row's category split sums to the row's cost.
    for row in rows:
        assert sum(row["by_category"].values()) == \
            pytest.approx(row["cost"], abs=1e-6)


def test_profile_document_and_report():
    tracer, profiler = Tracer(), Profiler()
    machine = make_machine(WORKLOAD, "rules-full", tracer=tracer,
                           profiler=profiler)
    machine.run(WORKLOAD.max_insns)
    profile = build_profile(machine, workload=WORKLOAD.name,
                            engine="rules-full")
    assert profile["totals"]["host_cost"] > 0
    assert profile["tbs"] and profile["per_pc"]
    assert profile["rules"], "rules-full run must attribute rule usage"
    json.dumps(profile, default=str)        # JSON-safe
    report = render_profile(profile, top=5)
    assert "coordination-cost breakdown" in report
    assert "hot TBs" in report
    assert "100.0%" in report               # breakdown total row
    # Per-rule table ranks by overlapping TB cost (documented caveat).
    assert "hottest rules" in report


# ---------------------------------------------------------------------------
# Chrome trace export.
# ---------------------------------------------------------------------------

def test_chrome_trace_exports_and_validates():
    tracer = Tracer()
    result = run_workload(WORKLOAD, "rules-full", tracer=tracer)
    assert result.stats["trace.events"] > 0
    trace = chrome_trace(tracer.events())
    assert validate_chrome_trace(trace) == []
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert "X" in phases                    # tb.enter spans
    assert "M" in phases                    # process/thread names
    names = {event["name"] for event in trace["traceEvents"]}
    assert "tb.enter" in names and "sync.save" in names


def test_validate_chrome_trace_rejects_malformed():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) != []
    bad = {"traceEvents": [
        {"ph": "I", "pid": 1, "tid": 1, "ts": 0},          # no name
        {"name": "x", "ph": "Q", "pid": 1, "tid": 1, "ts": 0},
        {"name": "x", "ph": "I", "pid": "1", "tid": 1, "ts": 0},
        {"name": "x", "ph": "I", "pid": 1, "tid": 1, "ts": -1},
        {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0},  # no dur
    ]}
    problems = validate_chrome_trace(bad)
    assert len(problems) == 5
    good = {"traceEvents": [
        {"name": "p", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "x"}},
        {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
         "dur": 1.0},
    ]}
    assert validate_chrome_trace(good) == []


# ---------------------------------------------------------------------------
# Flight recorder.
# ---------------------------------------------------------------------------

def test_errors_carry_recent_trace_events():
    tracer = Tracer()
    machine = make_machine(WORKLOAD, "rules-full", tracer=tracer)
    with pytest.raises(ReproError) as info:
        machine.run(50)                     # guest cannot halt in time
    context = info.value.context
    assert context is not None
    assert context.trace, "flight recorder must attach trailing events"
    assert "trace[" in str(info.value)


def test_errors_without_tracer_have_empty_flight_record():
    machine = make_machine(WORKLOAD, "rules-full")
    with pytest.raises(ReproError) as info:
        machine.run(50)
    assert info.value.context.trace == ()
