"""Counter-based random streams shared by the whole package.

All randomness flows through numpy's Philox generator, keyed as
``key = [seed, domain]`` with a distinct 64-bit ``domain`` constant per
consumer so different subsystems seeded with the same integer never share a
stream. Philox is counter-based: ``counter = [block, 0, 0, 0]`` addresses the
``block``-th group of four 64-bit output words, which lets the sampler
generate any slice of a stream independently of chunking (point ``i`` always
reads words ``4i .. 4i+3``).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from ._validate import as_int

_MASK64 = (1 << 64) - 1

# Domain separation constants (arbitrary odd 64-bit values, golden-ratio mixes).
DOMAIN_MODEL = 0x9E3779B97F4A7C15
DOMAIN_KMEANS = 0xC2B2AE3D27D4EB4F
DOMAIN_TRIPLES = 0x165667B19E3779F9
DOMAIN_ASSIGN = 0x27D4EB2F165667C5
DOMAIN_MC = 0x85EBCA77C2B2AE63
DOMAIN_EIG = 0x61C8864680B583EB

WORDS_PER_BLOCK = 4


def _check_seed(seed: int) -> int:
    return as_int(seed, "seed") & _MASK64


def generator(seed: int, domain: int) -> Generator:
    """A freshly keyed Generator for one (seed, domain) stream."""
    return Generator(Philox(key=np.array([_check_seed(seed), domain], dtype=np.uint64)))


def block_words(seed: int, domain: int, start_block: int, n_blocks: int) -> np.ndarray:
    """Raw 64-bit words for blocks [start_block, start_block + n_blocks).

    Returns an (n_blocks, 4) uint64 array. Because the counter addresses
    whole blocks, concatenating calls over adjacent ranges is bit-identical
    to one large call.
    """
    bg = Philox(
        key=np.array([_check_seed(seed), domain], dtype=np.uint64),
        counter=np.array([start_block, 0, 0, 0], dtype=np.uint64),
    )
    words = Generator(bg).integers(0, 1 << 64, size=n_blocks * WORDS_PER_BLOCK, dtype=np.uint64)
    return words.reshape(n_blocks, WORDS_PER_BLOCK)


def uniform_from_word(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 uniforms on [0, 1) (53-bit resolution)."""
    return (words >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def uniform_open_closed(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 uniforms on (0, 1] (safe for log)."""
    return ((words >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * (2.0**-53)
