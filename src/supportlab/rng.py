"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
(master_seed, kind, index).  Philox is counter-based, so a stream is a pure
function of its key: draws are reproducible regardless of generation order,
chunking, or worker count.  ``kind`` separates design-matrix entries, noise
vectors, and pattern draws; ``index`` is the trial number.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1

# Stream kinds.  Packed into the high bits of the second key word so that the
# per-trial index (low 48 bits) can never collide across kinds.
KIND_DESIGN = 1
KIND_NOISE = 2
KIND_PATTERN = 3

_INDEX_BITS = 48
_INDEX_MASK = (1 << _INDEX_BITS) - 1


def check_seed(master_seed: int) -> None:
    """Reject master seeds outside [0, 2**64): reducing them instead would make
    two seeds replay the same draws."""
    if not 0 <= master_seed <= _MASK64:
        raise ValidationError(f"master seed must be in [0, 2**64), got {master_seed}")


def stream(master_seed: int, kind: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream (master_seed, kind, index)."""
    check_seed(master_seed)
    if index < 0 or index > _INDEX_MASK:
        raise ValidationError(f"stream index out of range: {index}")
    word1 = ((kind << _INDEX_BITS) | index) & _MASK64
    key = np.array([master_seed, word1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def design_stream(master_seed: int, index: int = 0) -> np.random.Generator:
    return stream(master_seed, KIND_DESIGN, index)


def noise_stream(master_seed: int, index: int = 0) -> np.random.Generator:
    return stream(master_seed, KIND_NOISE, index)


def pattern_stream(master_seed: int, index: int = 0) -> np.random.Generator:
    return stream(master_seed, KIND_PATTERN, index)
