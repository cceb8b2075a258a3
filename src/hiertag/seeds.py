"""Deterministic substream derivation for seeded cells of random work."""
from __future__ import annotations

import hashlib


def derive_seed(seed: int, *parts: object) -> int:
    """Derive an independent 64-bit substream seed from a master seed.

    Stable across platforms and processes (no reliance on hash randomization).
    Work split into seeded cells, each drawing from the stream of its own
    label, gives the same result whatever other cells run or in what order.
    """
    label = f"{seed}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
