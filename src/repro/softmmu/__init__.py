"""Softmmu: physical memory map, TLB, page walker, guest bus."""
