"""A DMA block device (the fileIO / untar workloads' storage).

The device owns an in-memory disk image of 512-byte sectors.  The guest
programs a sector number and a physical DMA address, then kicks a read or
write; the transfer completes immediately (deterministically) and raises
the block interrupt.  Each transfer is charged the modelled I/O cost, which
is what makes the I/O-bound real-world analogs I/O-bound.

MMIO register map:
  +0x00 SECTOR (RW)   sector index
  +0x04 ADDR   (RW)   DMA target/source guest physical address
  +0x08 CMD    (WO)   1 = read sector into ADDR, 2 = write sector from ADDR
  +0x0C STATUS (RO)   bit0 = done (cleared by ACK)
  +0x10 ACK    (WO)   clear done + lower interrupt
  +0x14 COUNT  (RO)   total sectors transferred
"""

from __future__ import annotations

from ..common.costmodel import COST_BLOCK_SECTOR_IO
from .intc import IRQ_BLOCK

SECTOR_SIZE = 512


class BlockDevice:
    def __init__(self, intc, memory, machine=None, sectors: int = 4096):
        self.intc = intc
        self.memory = memory
        self.machine = machine
        self.image = bytearray(sectors * SECTOR_SIZE)
        self.sector = 0
        self.dma_addr = 0
        self.done = False
        self.count = 0

    def load_image(self, data: bytes, sector: int = 0) -> None:
        offset = sector * SECTOR_SIZE
        self.image[offset:offset + len(data)] = data

    def _transfer(self, command: int) -> None:
        offset = self.sector * SECTOR_SIZE
        if command == 1:  # disk -> RAM
            self.memory.write_bytes(self.dma_addr,
                                    bytes(self.image[offset:offset +
                                                     SECTOR_SIZE]))
        elif command == 2:  # RAM -> disk
            self.image[offset:offset + SECTOR_SIZE] = \
                self.memory.read_bytes(self.dma_addr, SECTOR_SIZE)
        self.done = True
        self.count += 1
        if self.machine is not None:
            self.machine.charge_io(COST_BLOCK_SECTOR_IO)
        self.intc.raise_irq(IRQ_BLOCK)

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == 0x00:
            return self.sector
        if offset == 0x04:
            return self.dma_addr
        if offset == 0x0C:
            return int(self.done)
        if offset == 0x14:
            return self.count
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == 0x00:
            self.sector = value
        elif offset == 0x04:
            self.dma_addr = value
        elif offset == 0x08:
            self._transfer(value)
        elif offset == 0x10:
            self.done = False
            self.intc.lower_irq(IRQ_BLOCK)
