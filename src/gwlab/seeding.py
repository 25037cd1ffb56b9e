"""Deterministic seeding.

Every realization is drawn from a Philox4x64 counter generator keyed with a
64-bit seed.  Replication streams for an experiment are derived as
``stream_seed(base_seed, run_index)`` via a splitmix64 chain, so any run can
be reproduced from the (base_seed, run_index) pair recorded in the outputs.
The algorithm identifier below is pinned into run manifests.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ValidationError

RNG_ALGORITHM = "philox4x64(key=splitmix64-stream(base_seed,run_index))/v1"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: bijective uint64 mix with good avalanche."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def check_seed(name: str, seed) -> None:
    """ValidationError unless seed is an integer in [0, 2**64): the
    generators read any other modulo 2**64, as another seed."""
    if (isinstance(seed, bool) or not isinstance(seed, int)
            or not 0 <= seed <= _MASK64):
        raise ValidationError(
            f"{name} must be an integer in [0, 2**64), got {seed!r}")


def stream_seed(base_seed: int, run_index: int) -> int:
    """64-bit seed for replication `run_index` of an experiment."""
    if run_index < 0:
        raise ValueError("run_index must be non-negative")
    return splitmix64(splitmix64(base_seed & _MASK64) ^ run_index)


_local = threading.local()
_ZEROS = (0, 0, 0, 0)


def make_generator(seed: int) -> np.random.Generator:
    """This thread's Philox-backed Generator, keyed with a 64-bit seed;
    streams are platform-stable.

    The state is set whole, as Philox(key=seed) starts: key [seed, 0], a
    zero counter and an empty buffer.  That skips the entropy SeedSequence
    a new Philox draws and its key then overrides.  Each thread has one
    generator, so the next call on the same thread re-keys the one this
    call returned.
    """
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed & _MASK64, 0)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng
