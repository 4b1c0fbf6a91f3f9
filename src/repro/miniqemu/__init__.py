"""MiniQEMU: the baseline system emulator (ARM -> TCG IR -> x86)."""
