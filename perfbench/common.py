"""Helpers shared by the workloads."""

from __future__ import annotations

import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(condition, *context) -> None:
    if not condition:
        raise CheckError(" ".join(str(c) for c in context) or "check failed")


def stable_seed(*parts) -> int:
    """A 31-bit seed from the parts' text, the same in every process
    (unlike ``hash()``, which ``PYTHONHASHSEED`` changes)."""
    return zlib.crc32("/".join(str(p) for p in parts).encode()) & 0x7FFFFFFF
