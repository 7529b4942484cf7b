"""The one builder of the PCG64 streams isofield draws, seeded in batches.

A stream is NumPy's SeedSequence of its entropy words; PCG64 seeds itself
from that sequence's generate_state(4, np.uint64), a fixed hash of its 4-word
pool that NumPy's stream-compatibility policy keeps stable (NEP 19). This
module hashes those words for a whole batch in one vectorised pass. Defining
a SeedSequence subclass imports numpy.random, so isofield.simulate imports
this module on first use, as numpy itself loads numpy.random.
"""

from __future__ import annotations

import numpy as np

# NumPy's SeedSequence.generate_state hash: word i is x ^ x >> 16 for x = (pool[i % 4] ^ h[i])
# * h[i + 1] in uint32 arithmetic, with h[i] = 0x8b51f9dd * 0x58f38ded**i; the 8 words of a
# uint64 request, as two cycles of the pool
_HASH = [0x8B51F9DD * 0x58F38DED**i % 2**32 for i in range(9)]
_XOR, _MUL = np.array([_HASH[:8], _HASH[1:]], np.uint32).reshape(2, 2, 4)


class _Seeded(np.random.SeedSequence):
    """A SeedSequence whose first generate_state(4, np.uint64), the request of PCG64 seeding,
    returns its words hashed in advance; every other request and every child is NumPy's."""

    _state = None

    def generate_state(self, n_words, dtype=np.uint32):
        if self._state is not None and n_words == 4 and dtype is np.uint64:
            state, self._state = self._state, None
            return state
        return super().generate_state(n_words, dtype)


def _seed_words(pools: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of every (4,) uint32 pool of the (S, 4) stack, as one
    C-order (S, 4) uint64 array: PCG64 reads a row's memory as its four words."""
    x = (pools[:, None] ^ _XOR) * _MUL
    x ^= x >> 16
    return x.astype("<u4", copy=False).view("<u8").reshape(-1, 4).astype(np.uint64, copy=False)


def _generators(datas) -> list[np.random.Generator]:
    """The PCG64 stream of each SeedSequence whose entropy words are one of datas, every seed
    hashed in one pass; states, draws and spawned children equal NumPy's."""
    seqs = [_Seeded(np.frombuffer(data, "<u4")) for data in datas]
    for seq, state in zip(seqs, _seed_words(np.array([seq.pool for seq in seqs]))):
        seq._state = state
    return [np.random.Generator(np.random.PCG64(seq)) for seq in seqs]
