"""Unit tests for the device models."""

import pytest

from repro.common.errors import GuestHalt
from repro.devices.blockdev import BlockDevice, SECTOR_SIZE
from repro.devices.intc import IRQ_BLOCK, IRQ_TIMER, InterruptController
from repro.devices.nic import Nic
from repro.devices.syscon import SystemController
from repro.devices.timer import Timer
from repro.devices.uart import Uart
from repro.guest.cpu import GuestCpu
from repro.softmmu.memory import PhysicalMemoryMap


@pytest.fixture
def cpu():
    return GuestCpu()


@pytest.fixture
def intc(cpu):
    return InterruptController(cpu)


# ---------------------------------------------------------------------------
# Interrupt controller.
# ---------------------------------------------------------------------------

def test_intc_gates_by_enable(intc, cpu):
    intc.raise_irq(IRQ_TIMER)
    assert not cpu.irq_line          # not enabled yet
    intc.mmio_write(0x08, 4, 1 << IRQ_TIMER)
    assert cpu.irq_line
    assert intc.mmio_read(0x00, 4) == 1 << IRQ_TIMER
    intc.lower_irq(IRQ_TIMER)
    assert not cpu.irq_line


def test_intc_disable_register(intc, cpu):
    intc.mmio_write(0x08, 4, 0xFF)
    intc.raise_irq(IRQ_BLOCK)
    assert cpu.irq_line
    intc.mmio_write(0x0C, 4, 1 << IRQ_BLOCK)
    assert not cpu.irq_line
    assert intc.mmio_read(0x04, 4) == 1 << IRQ_BLOCK  # raw status remains


def test_intc_wakes_halted_cpu(intc, cpu):
    cpu.halted = True
    intc.mmio_write(0x08, 4, 1)
    intc.raise_irq(IRQ_TIMER)
    assert not cpu.halted


# ---------------------------------------------------------------------------
# Timer.
# ---------------------------------------------------------------------------

def test_timer_fires_and_reloads(intc, cpu):
    intc.mmio_write(0x08, 4, 1 << IRQ_TIMER)
    timer = Timer(intc)
    timer.mmio_write(0x00, 4, 100)
    timer.mmio_write(0x08, 4, 1)
    timer.advance(99)
    assert not cpu.irq_line
    timer.advance(1)
    assert cpu.irq_line
    assert timer.ticks == 1
    timer.mmio_write(0x0C, 4, 1)  # ack
    assert not cpu.irq_line
    timer.advance(250)            # catches up across multiple periods
    assert timer.ticks == 3
    assert timer.mmio_read(0x10, 4) == 3


def test_timer_disabled_does_nothing(intc, cpu):
    timer = Timer(intc)
    timer.mmio_write(0x00, 4, 10)
    timer.advance(1000)
    assert timer.ticks == 0


# ---------------------------------------------------------------------------
# UART.
# ---------------------------------------------------------------------------

def test_uart_output_and_input():
    uart = Uart()
    for byte in b"hi":
        uart.mmio_write(0x00, 4, byte)
    assert uart.text == "hi"
    assert uart.mmio_read(0x04, 4) == 0
    uart.feed(b"xy")
    assert uart.mmio_read(0x04, 4) == 1
    assert uart.mmio_read(0x00, 4) == ord("x")
    assert uart.mmio_read(0x00, 4) == ord("y")
    assert uart.mmio_read(0x04, 4) == 0


# ---------------------------------------------------------------------------
# Block device.
# ---------------------------------------------------------------------------

def test_blockdev_dma_roundtrip(intc, cpu):
    memory = PhysicalMemoryMap()
    memory.add_ram(0, 1 << 16)
    intc.mmio_write(0x08, 4, 1 << IRQ_BLOCK)
    dev = BlockDevice(intc, memory, sectors=8)
    payload = bytes(range(256)) * 2
    memory.write_bytes(0x1000, payload)
    # Write sector 3 from RAM.
    dev.mmio_write(0x00, 4, 3)
    dev.mmio_write(0x04, 4, 0x1000)
    dev.mmio_write(0x08, 4, 2)
    assert dev.image[3 * SECTOR_SIZE:4 * SECTOR_SIZE] == payload
    assert cpu.irq_line and dev.mmio_read(0x0C, 4) == 1
    dev.mmio_write(0x10, 4, 1)  # ack
    assert not cpu.irq_line
    # Read it back into a different buffer.
    dev.mmio_write(0x04, 4, 0x2000)
    dev.mmio_write(0x08, 4, 1)
    assert memory.read_bytes(0x2000, SECTOR_SIZE) == payload
    assert dev.mmio_read(0x14, 4) == 2


# ---------------------------------------------------------------------------
# NIC.
# ---------------------------------------------------------------------------

def test_nic_rx_tx(intc, cpu):
    nic = Nic(intc)
    nic.queue_rx(b"ab")
    nic.queue_rx(b"c")
    assert nic.mmio_read(0x00, 4) == 2
    assert nic.mmio_read(0x04, 4) == ord("a")
    assert nic.mmio_read(0x04, 4) == ord("b")
    nic.mmio_write(0x08, 4, 1)  # pop
    assert nic.mmio_read(0x00, 4) == 1
    nic.mmio_write(0x08, 4, 1)
    assert nic.mmio_read(0x00, 4) == 0
    nic.mmio_write(0x0C, 4, ord("z"))
    nic.mmio_write(0x10, 4, 1)
    assert nic.tx_packets == [b"z"]


# ---------------------------------------------------------------------------
# System controller.
# ---------------------------------------------------------------------------

def test_syscon_halts():
    with pytest.raises(GuestHalt) as excinfo:
        SystemController().mmio_write(0x00, 4, 42)
    assert excinfo.value.exit_code == 42
