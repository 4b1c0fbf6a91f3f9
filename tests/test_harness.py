"""Unit tests for the harness: report rendering, runner, cost model."""

import pytest

from repro.common import costmodel
from repro.common.errors import ReproError
from repro.harness.report import format_table, geomean, percent
from repro.harness.runner import (ENGINE_SPECS, clear_cache, make_machine,
                                  run_cached, run_workload)
from repro.workloads import ALL_WORKLOADS
from repro.workloads.spec import Workload


def test_geomean_basics():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([1.0]) == 1.0
    assert geomean([]) == 0.0
    assert geomean([0.0, 4.0]) == 4.0  # zeros are skipped


def test_percent():
    assert percent(1, 4) == 25.0
    assert percent(1, 0) == 0.0


def test_format_table_alignment():
    text = format_table(["A", "Blong"], [["x", 1.234], ["yy", 10.0]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.23" in text and "10.00" in text
    # Columns align: every row has the same separator positions.
    assert lines[2].startswith("-")


def test_run_workload_rejects_wrong_output():
    bad = Workload("bad", body="""
main:
    mov r0, #1
    bl updec
    mov r0, #0
    bl uexit
""", expected_output="2\n")
    with pytest.raises(ReproError):
        run_workload(bad, "interp")


def test_run_workload_rejects_nonzero_exit():
    bad = Workload("bad-exit", body="""
main:
    mov r0, #3
    bl uexit
""")
    with pytest.raises(ReproError):
        run_workload(bad, "tcg")


def test_run_cached_reuses_results():
    clear_cache()
    workload = ALL_WORKLOADS["sjeng"]
    first = run_cached(workload, "interp")
    second = run_cached(workload, "interp")
    assert first is second
    clear_cache()


def test_make_machine_applies_device_setup():
    workload = Workload("devcheck", body="""
main:
    mov r0, #0
    bl uexit
""", disk_image=b"HELLO", nic_packets=[b"\x01\x02"])
    machine = make_machine(workload, "tcg")
    assert bytes(machine.blockdev.image[:5]) == b"HELLO"
    assert len(machine.nic.rx_queue) == 1


def test_unknown_engine_rejected():
    workload = ALL_WORKLOADS["sjeng"]
    with pytest.raises(ValueError):
        make_machine(workload, "jit-9000")


def test_engine_specs_all_construct():
    workload = Workload("tiny", body="""
main:
    mov r0, #0
    bl uexit
""")
    for engine in ENGINE_SPECS:
        result = run_workload(workload, engine)
        assert result.exit_code == 0


def test_cost_model_sanity():
    """Constants the experiments rely on keep their documented ordering."""
    assert costmodel.COST_LAZY_FLAGS_PARSE < costmodel.COST_PAGE_WALK
    assert costmodel.COST_SOFTFLOAT > costmodel.HELPER_CALL_OVERHEAD
    assert costmodel.COST_BLOCK_SECTOR_IO > 10 * costmodel.COST_MMIO_ACCESS
    assert costmodel.COST_TRANSLATE_PER_INSN > costmodel.COST_TB_LOOKUP
