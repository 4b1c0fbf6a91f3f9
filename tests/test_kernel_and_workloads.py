"""Kernel behaviour tests + differential workload checks."""

import pytest

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from repro.harness.runner import make_machine, run_workload
from repro.workloads.realworld import REALWORLD_WORKLOADS
from repro.workloads.spec import SPEC_WORKLOADS
from tests.support import run_workload as run_body


# ---------------------------------------------------------------------------
# Kernel services.
# ---------------------------------------------------------------------------

def test_kernel_pdec_prints_edge_values():
    code, text, _ = run_body(r"""
main:
    mov r0, #0
    bl updec
    ldr r0, =4294967295
    bl updec
    ldr r0, =1000000
    bl updec
    mov r0, #0
    bl uexit
""")
    assert text == "0\n4294967295\n1000000\n"


def test_kernel_phex_prints_all_digits():
    code, text, _ = run_body(r"""
main:
    ldr r0, =0xDEADBEEF
    bl uphex
    mov r0, #0
    bl uphex
    mov r0, #0
    bl uexit
""")
    assert text == "deadbeef\n00000000\n"


def test_user_cannot_touch_kernel_memory():
    """A user-mode store to a privileged page must be killed (exit 127)."""
    code, text, _ = run_body(r"""
main:
    ldr r0, =0x8000      @ kernel code page (privileged L2 mapping)
    mov r1, #1
    str r1, [r0]
    bl uexit
""")
    assert code == 127
    assert "D" in text  # the kernel's abort handler marker


def test_user_cannot_touch_devices_directly():
    code, text, _ = run_body(r"""
main:
    ldr r0, =0x10000000  @ the UART is mapped privileged-only
    mov r1, #65
    str r1, [r0]
    mov r0, #0
    bl uexit
""")
    assert code == 127


def test_undefined_instruction_is_trapped():
    code, text, _ = run_body(r"""
main:
    .word 0xFFFFFFFF     @ not a valid instruction
    mov r0, #0
    bl uexit
""")
    assert code == 126
    assert "U" in text


def test_block_device_syscalls_roundtrip():
    code, text, _ = run_body(r"""
main:
    ldr r4, =USER_HEAP
    mov r0, #0
fill:
    add r1, r0, #7
    strb r1, [r4, r0]
    add r0, r0, #1
    cmp r0, #512
    blt fill
    mov r0, #5           @ write sector 5
    mov r1, r4
    bl ubwrite
    add r1, r4, #0x400   @ read it back elsewhere
    mov r0, #5
    bl ubread
    mov r5, #0
    mov r0, #0
check:
    ldrb r1, [r4, r0]
    add r2, r4, #0x400
    ldrb r3, [r2, r0]
    cmp r1, r3
    addne r5, r5, #1
    add r0, r0, #1
    cmp r0, #512
    blt check
    mov r0, r5
    bl updec
    mov r0, #0
    bl uexit
""")
    assert text == "0\n"  # zero mismatches


# ---------------------------------------------------------------------------
# Workload differential checks (a representative subset per engine; the
# benchmarks exercise the full matrix).
# ---------------------------------------------------------------------------

DIFF_SPEC = ["mcf", "sjeng", "xalancbmk", "h264ref"]


@pytest.mark.parametrize("name", DIFF_SPEC)
@pytest.mark.parametrize("engine", ["tcg", "rules-base", "rules-full"])
def test_spec_analog_matches_reference(name, engine):
    workload = SPEC_WORKLOADS[name]
    result = run_workload(workload, engine)
    assert result.output == workload.expected_output
    assert result.exit_code == 0


@pytest.mark.parametrize("name", sorted(REALWORLD_WORKLOADS))
def test_realworld_agree_across_engines(name):
    workload = REALWORLD_WORKLOADS[name]
    outputs = {}
    for engine in ("interp", "tcg", "rules-full"):
        result = run_workload(workload, engine)
        outputs[engine] = result.output
    assert outputs["interp"] == outputs["tcg"] == outputs["rules-full"]


def test_memcached_serves_responses():
    workload = REALWORLD_WORKLOADS["memcached"]
    machine = make_machine(workload, "rules-full")
    machine.run(workload.max_insns)
    # One response per request packet.
    assert len(machine.nic.tx_packets) == len(workload.nic_packets)
    statuses = {packet[0:1] for packet in machine.nic.tx_packets}
    assert statuses <= {b"O", b"V"}


def test_fileio_is_io_bound():
    workload = REALWORLD_WORKLOADS["fileio"]
    result = run_workload(workload, "tcg")
    assert result.io_cost > result.host_cost  # the paper's 1.08x story


def test_all_spec_expected_outputs_are_recorded():
    for workload in SPEC_WORKLOADS.values():
        assert workload.expected_output, workload.name
        assert workload.expected_output.endswith("\n")
