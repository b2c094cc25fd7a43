"""Deterministic random-stream derivation.

Every randomized operation draws from a generator derived from the master
seed plus a string key naming the operation and entity.  Streams are
independent of iteration order, so per-entity work can be re-chunked without
changing a single draw.

`derive_rng` builds one stream: `SeedSequence(seed, spawn_key=key words)`
seeding a `PCG64`.  `derive_choices` draws the same stream for a block of
keys that differ only in a trailing replicate number.  Building a
`SeedSequence` and a `PCG64` per replicate costs more than the draw it
seeds, so it runs both seeding algorithms itself, as published in NumPy's
NEP 19 and the PCG paper: the SeedSequence pool mix and `generate_state`
as uint32 array arithmetic over the whole block, and the 128-bit PCG64
seeding in Python integers.  It then sets each row's state on one reused
generator.  Every row equals the `derive_rng(...).choice(...)` draw, which
the tests keep as its oracle.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_digest(parts: tuple) -> bytes:
    # Stable across platforms and Python hash randomization.
    return hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()


def _key_words(parts: tuple) -> list[int]:
    """The key's four 32-bit spawn words: the digest's first 16 bytes, little-endian."""
    digest = _key_digest(parts)
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def derive_rng(seed: int, *parts) -> np.random.Generator:
    """Generator for stream (seed, *parts); same key always yields same draws."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_key_words(parts)))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *parts) -> int:
    """A 63-bit integer sub-seed for code that wants a plain seed value."""
    words = _key_words(parts)
    return ((words[0] << 32) ^ (words[1] << 16) ^ words[2] ^ int(seed)) & (2**63 - 1)


# numpy.random.SeedSequence with its default pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64: the 128-bit LCG multiplier; states are taken modulo 2**128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """init * mult**t mod 2**32 for t = 0..count: hash step t xors entry t and multiplies by entry t + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _xorshift(x):
    return x ^ (x >> 16)


def _mix(x, y):
    # Python ints are masked; uint32 arrays wrap by themselves.
    return _xorshift((_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32)


def _pcg64_states(seed: int, spawn_words: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) seeded by SeedSequence(seed, spawn_key=row) for each row of uint32 words."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    run = [seed & _MASK32]
    rest = seed >> 32
    while rest:
        run.append(rest & _MASK32)
        rest >>= 32
    # With a spawn key, the run entropy is zero-padded to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    tail = np.concatenate(
        (np.tile(np.array(run[_POOL_SIZE:], dtype=np.uint32), (len(spawn_words), 1)),
         spawn_words.astype(np.uint32)), axis=1)

    # The pool mix, in the order SeedSequence.mix_entropy takes its hash steps.
    a = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * tail.shape[1])
    step = iter(range(len(a) - 1))

    def hashmix(value: int) -> int:
        t = next(step)
        return _xorshift((value ^ a[t]) * a[t + 1] & _MASK32)

    # The run words fill the pool; they are the same for every row.
    pool = [hashmix(w) for w in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Each further word is hashed once per pool word, then mixed into it.
    t0 = _POOL_SIZE * _POOL_SIZE
    const = np.array(a, dtype=np.uint32)
    xor = const[t0:-1].reshape(-1, _POOL_SIZE)
    mul = const[t0 + 1:].reshape(-1, _POOL_SIZE)
    hashed = _xorshift((tail[:, :, None] ^ xor) * mul)
    block = np.tile(np.array(pool, dtype=np.uint32), (len(tail), 1))
    for j in range(tail.shape[1]):
        block = _mix(block, hashed[:, j])

    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    b = np.array(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint32)
    words = _xorshift((np.tile(block, 2) ^ b[:-1]) * b[1:]).astype(np.uint64)
    seeds = (words[:, 0::2] | (words[:, 1::2] << np.uint64(32))).tolist()

    # pcg64_set_seed: state = (seed high, low), inc = (inc high, low) * 2 + 1,
    # then one LCG step from zero, the add, and one more step.
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeds:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def derive_choices(seed: int, name, lo: int, hi: int, n: int, m: int) -> np.ndarray:
    """Rows derive_rng(seed, name, r).choice(n, size=m, replace=False) for r in [lo, hi), as int64."""
    digests = b"".join(_key_digest((name, r)) for r in range(lo, hi))
    keys = np.frombuffer(digests, dtype="<u4").reshape(-1, 8)[:, :4]
    gen = np.random.Generator(np.random.PCG64(0))
    out = np.empty((hi - lo, m), dtype=np.int64)
    for row, (state, inc) in enumerate(_pcg64_states(seed, keys)):
        gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        out[row] = gen.choice(n, size=m, replace=False)
    return out
