"""ARMv7-A guest ISA: model, assembler, codecs, CPU state, interpreter."""
