"""Tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import struct
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


# -- generators --------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    for seed in (0, 1, 12345):
        assert gen.cold_code_program(seed, 2) == \
            gen.cold_code_program(seed, 2)
        assert gen.memcached_requests(seed) == gen.memcached_requests(seed)
        assert gen.untar_archive(seed) == gen.untar_archive(seed)
    assert gen.cold_code_program(1, 0) != gen.cold_code_program(2, 0)
    assert gen.cold_code_program(1, 0) != gen.cold_code_program(1, 1)
    assert gen.memcached_requests(1) != gen.memcached_requests(2)
    assert gen.untar_archive(1) != gen.untar_archive(2)


def test_generated_input_sizes_do_not_depend_on_the_seed():
    for seed in range(5):
        packets = gen.memcached_requests(seed)
        assert len(packets) == gen.MEMCACHED_REQUESTS
        assert all(len(packet) == 4 and packet[0] in b"SG"
                   for packet in packets)
        program = gen.cold_code_program(seed, 0)
        assert program.count("\n    b") >= gen.N_BLOCKS
        assert program.count("\n") == gen.cold_code_program(seed + 7, 3) \
            .count("\n")


def test_untar_archive_parses_and_fits_the_staging_window():
    for seed in range(5):
        blob = gen.untar_archive(seed)
        assert len(blob) <= 16 * 512
        offset, sizes = 0, []
        while blob[offset] != 0:
            size = struct.unpack_from("<I", blob, offset + 16)[0]
            sizes.append(size)
            offset += 20 + size + (-size % 4)
        assert len(sizes) == gen.UNTAR_FILES
        assert sum(sizes) == gen.UNTAR_DATA_BYTES
        assert min(sizes) >= gen.UNTAR_MIN_FILE


# -- span arithmetic ---------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, amount):
        self.now += amount


class Layers:
    """A synthetic layer stack whose calls advance a fake clock."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.tick(1.0)
        self.inner()
        self.clock.tick(0.5)
        self.often()
        self.inner()
        self.clock.tick(2.0)

    def inner(self):
        self.clock.tick(3.0)

    def often(self):
        self.clock.tick(0.25)
        self.nested()

    def nested(self):
        self.clock.tick(0.125)


def test_self_time_of_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    layers = Layers(clock)
    tracer.wrap(layers, "outer", "outer")
    tracer.wrap(layers, "inner", "inner")
    tracer.wrap_aggregated(layers, "often", "often")
    tracer.wrap_aggregated(layers, "nested", "nested")
    tracer.begin_run()
    root = tracer.open("program")
    layers.outer()
    clock.tick(0.0625)
    tracer.close(root)

    totals = tracer.totals_by_run()[0]
    assert totals["program"] == {"calls": 1, "busy": 9.9375,
                                 "self": 0.0625}
    # outer: 9.875 long; children: two inner spans (6.0) and one
    # aggregated call (0.375, its nested call included once).
    assert totals["outer"] == {"calls": 1, "busy": 9.875, "self": 3.5}
    assert totals["inner"] == {"calls": 2, "busy": 6.0, "self": 6.0}
    assert totals["often"] == {"calls": 1, "busy": 0.375, "self": 0.25}
    assert totals["nested"] == {"calls": 1, "busy": 0.125, "self": 0.125}
    self_sum = sum(row["self"] for row in totals.values())
    assert self_sum == totals["program"]["busy"]
    assert {span.run for span in tracer.spans} == {0}


def test_recursive_spans_count_busy_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Recursive:
        def walk(self, depth):
            clock.tick(1.0)
            if depth:
                self.walk(depth - 1)

    obj = Recursive()
    tracer.wrap(obj, "walk", "walk")
    obj.walk(2)
    row = tracer.totals_by_run()[-1]["walk"]
    assert row == {"calls": 3, "busy": 3.0, "self": 3.0}


# -- failure accounting ------------------------------------------------------

_TINY = "main:\n    mov r0, #9\n    bl updec\n    mov r0, #0\n    bl uexit\n"


def _tiny_program(reference):
    from repro.workloads import Workload
    return run.Program("tiny", Workload("tiny", body=_TINY),
                       reference=reference)


def test_wrong_output_is_counted_as_failed():
    bench = run.Bench("hot-mix", seed=0, seconds=0, trace=False)
    good = bench.run_program(_tiny_program("9\n"), store=None)
    bad = bench.run_program(_tiny_program("10\n"), store=None)
    assert good.problems == []
    assert len(bad.problems) == 1 and "reference" in bad.problems[0]
    bench.samples = [[good], [bad]]
    assert bench.counts() == (2, 1)


def test_nonzero_exit_is_a_problem():
    sample = run.Sample("x")
    run.check_run(sample, "ok\n", 3, "ok\n")
    assert sample.problems == ["exit code 3"]


def test_warm_problems_flag_missed_revivals_and_changed_counters():
    cold = {"engine.guest_icount": 10.0, "engine.tag_rule": 4.0}
    warm = dict(cold, **{"cache.tb_loaded": 5.0, "cache.tb_fresh": 0.0})
    assert run.warm_problems(warm, cold, stored=5.0) == []
    assert run.warm_problems(warm, cold, stored=6.0)
    assert run.warm_problems(dict(warm, **{"cache.tb_stale": 1.0}),
                             cold, stored=5.0)
    changed = dict(warm, **{"engine.tag_rule": 5.0})
    assert run.warm_problems(changed, cold, stored=5.0) == \
        ["deterministic counters differ from the cold pass"]
