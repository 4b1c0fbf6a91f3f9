"""Device models: interrupt controller, timer, UART, block device, NIC."""
