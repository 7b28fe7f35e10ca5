"""Command-line surface; see `vexspaces --help`."""
