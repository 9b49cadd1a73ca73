"""Deterministic seed derivation for reproducible simulations.

A component that needs its own random stream seeds it with
:func:`derive_seed` from one experiment seed and a stream name, so re-running
with the same seed reproduces the same draws regardless of how many streams
exist or in which order they are first used.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``master_seed`` and a stream ``name``.

    The derivation is a SHA-256 hash of the pair, so streams are statistically
    independent and stable across Python versions (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
