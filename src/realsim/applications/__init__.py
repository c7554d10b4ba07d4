"""Worked demonstrations built on the real encoding."""
