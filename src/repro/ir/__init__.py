"""TCG-like IR: instruction set, builder, optimizer."""
