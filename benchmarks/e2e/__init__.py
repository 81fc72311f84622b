"""End-to-end, per-layer benchmark of the sharded TCP fleet (see README.md)."""
