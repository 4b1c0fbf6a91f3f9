"""x86-32 host: instruction model, CPU/memory state, interpreter, builder."""
