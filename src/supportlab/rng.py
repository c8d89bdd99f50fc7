"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
(master_seed, kind, index).  Philox is counter-based, so a stream is a pure
function of its key: draws are reproducible regardless of generation order,
chunking, or worker count.  ``kind`` separates design-matrix entries, noise
vectors, and pattern draws; ``index`` is the trial number.

``stream`` builds the generator of one key.  ``streams`` serves a range of
trials of one kind, as the Monte Carlo trial blocks draw them: it re-keys a
single generator from trial to trial, which yields the same draws as
``stream`` for every trial without building a generator per trial.  A re-key
is one assignment of ``Philox.state``: with numpy 2.4 it takes about 1 us when
the state words are Python ints and 2.4 us when they are uint64 arrays,
against ~28 us to build a generator, and it is a visible share of a pairwise
trial.
"""

from __future__ import annotations

from typing import Iterator

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


def _key_word(kind: int, index: int) -> int:
    return ((kind << _INDEX_BITS) | index) & _MASK64


def stream(master_seed: int, kind: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream (master_seed, kind, index)."""
    check_seed(master_seed)
    if index < 0 or index > _INDEX_MASK:
        raise ValidationError(f"stream index out of range: {index}")
    key = np.array([master_seed, _key_word(kind, index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def streams(
    master_seed: int, kind: int, start: int, stop: int
) -> Iterator[np.random.Generator]:
    """Yield the generator of stream (master_seed, kind, i) for each i in [start, stop).

    One generator serves the whole range.  Before each trial its Philox state
    is set to that of a fresh ``stream(master_seed, kind, i)``: counter 0, key
    [master_seed, kind << 48 | i], empty output buffer.  Every ``Generator``
    method then draws exactly what the fresh generator would, at a fraction of
    the cost of building one (``Philox`` draws OS entropy even when keyed).

    The state dict is built once per call and only its second key word
    changes between trials.  Its counter, key and buffer words are Python
    ints, not uint64 arrays, because numpy's state setter reads each word by
    indexing, which takes less than half the time on a list.  Each call has
    its own dict, so iterators over overlapping ranges or different kinds
    never share a key.

    The same object is yielded at every step, so finish drawing from it before
    advancing.  Seed and range are checked before the first draw.
    """
    if stop < start or stop - 1 > _INDEX_MASK:
        raise ValidationError(f"stream range [{start}, {stop}) is not inside [0, 2**48]")
    gen = stream(master_seed, kind, start)
    return _rekeyed(gen, master_seed, kind, start, stop)


def _rekeyed(
    gen: np.random.Generator, master_seed: int, kind: int, start: int, stop: int
) -> Iterator[np.random.Generator]:
    bit_generator = gen.bit_generator
    key = [master_seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in range(start, stop):
        key[1] = _key_word(kind, index)
        bit_generator.state = state
        yield gen
