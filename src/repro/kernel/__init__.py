"""The mini guest OS (boot, page tables, syscalls, IRQ handling)."""
