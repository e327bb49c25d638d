"""A benchmark of the LDPRecover reproduction; see run.py."""
