"""Long xoshiro256** draws stepped in numpy lanes, word for word the scalar stream.

The state update A of xoshiro256** is linear over GF(2)^256, so a lane can
start n steps ahead without taking them: the idea of the generator's own
``jump()`` (Blackman & Vigna, arXiv 1805.01407).  By Cayley-Hamilton, A^n s
is the XOR of the states A^i s, i < 256, at the set bits of
x^n mod ``_CHARPOLY``.  :func:`draw` starts lane j at A^(j*K) s, steps all
lanes K times together in ``uint64`` arrays, and reads their words lane by
lane: the words that :meth:`singopt.rng.Xoshiro256._words` draws, in order.

:mod:`singopt.rng` imports this module on its first long draw, and the jump
tables are built on first use, so ``import singopt`` pays for neither.
"""

from __future__ import annotations

import numpy as np

__all__ = ["draw"]

_MASK64 = (1 << 64) - 1
# the characteristic polynomial of A, bit i the coefficient of x^i
_CHARPOLY = 0x1_0003C03C_3F3ECB19_04B4EDCF_26259F85_0280002B_CEFD1A5E_9D116F2B_B0F0F001
# words per pass (1 MiB): bounds the lane count, and so the jump tables
_MAX_WORDS = 1 << 17
# steps per lane -> (32, lanes) bytes of each lane's jump; see _jump_bytes
_JUMPS: dict[int, np.ndarray] = {}
_U = np.uint64


def draw(state: list[int], count: int) -> tuple[np.ndarray, list[int]]:
    """The ``count`` words that follow ``state``, as uint64, and the state after them."""
    passes = []
    for start in range(0, count, _MAX_WORDS):
        words, state = _one_pass(state, min(_MAX_WORDS, count - start))
        passes.append(words)
    return (passes[0] if len(passes) == 1 else np.concatenate(passes)), state


def _one_pass(state: list[int], count: int) -> tuple[np.ndarray, list[int]]:
    """:func:`draw` for at most ``_MAX_WORDS`` words.

    Lane j starts at the XOR of the orbit states A^i s that its jump selects,
    looked up a byte of the jump at a time in 32 tables of 256 XORs.  The
    state returned is the last lane's, after its last needed word.
    """
    steps = _lane_steps(count)
    lanes = -(-count // steps)
    s0, s1, s2, s3 = state
    mask = _MASK64
    orbit = []
    for _ in range(256):  # the state update of Xoshiro256._words, without the output
        orbit += (s0, s1, s2, s3)
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask
    orbit = np.array(orbit, dtype=np.uint64).reshape(32, 8, 4)
    # tables[b, m]: the XOR of the states A^(8m + i) s at the set bits i of b
    tables = np.zeros((256, 32, 4), dtype=np.uint64)
    for bit in range(8):
        np.bitwise_xor(tables[: 1 << bit], orbit[:, bit], out=tables[1 << bit : 2 << bit])
    index = _jump_bytes(steps, lanes).astype(np.intp) * 32 + np.arange(32)[:, None]
    picked = tables.reshape(-1, 4).take(index, axis=0)  # (32, lanes, 4): one entry per jump byte
    for half in (16, 8, 4, 2, 1):
        picked[:half] ^= picked[half : 2 * half]
    a0, a1, a2, a3 = picked[0].T.copy()
    out = np.empty((steps, lanes), dtype=np.uint64)
    t = np.empty(lanes, dtype=np.uint64)
    last = count - (lanes - 1) * steps - 1  # the step of the last lane's last needed word
    for k, w in enumerate(out):
        np.multiply(a1, _U(5), out=t)
        np.left_shift(t, _U(7), out=w)
        t >>= _U(57)
        w |= t
        w *= _U(9)
        np.left_shift(a1, _U(17), out=t)
        a2 ^= a0
        a3 ^= a1
        a1 ^= a2
        a0 ^= a3
        a2 ^= t
        np.left_shift(a3, _U(45), out=t)
        a3 >>= _U(19)
        a3 |= t
        if k == last:
            state = [int(a[-1]) for a in (a0, a1, a2, a3)]
    return out.T.ravel()[:count], state


def _lane_steps(count: int) -> int:
    """Steps per lane for a ``count``-word pass: a power of two near sqrt(count / 8), 8 to 64."""
    return 1 << min(6, max(3, (count.bit_length() - 3) // 2))


def _jump_bytes(steps: int, lanes: int) -> np.ndarray:
    """(32, lanes) uint8: byte m of x^(j*steps) mod _CHARPOLY, for lane j, in row m.

    Built on first use for each ``steps``, and rebuilt at least twice as
    long when a pass needs more lanes; ``_MAX_WORDS`` bounds them.
    ``steps`` must be a multiple of 8.
    """
    jumps = _JUMPS.get(steps)
    if jumps is None or jumps.shape[1] < lanes:
        size = lanes if jumps is None else max(lanes, 2 * jumps.shape[1])
        # reduce[b] = b(x) * _CHARPOLY: its bits from 256 up are b, the rest its remainder
        reduce = [0] * 256
        for bit in range(8):
            for b in range(1 << bit):
                reduce[b | 1 << bit] = reduce[b] ^ (_CHARPOLY << bit)
        polys, r = [], 1
        for _ in range(size):
            polys.append(r.to_bytes(32, "little"))
            r <<= steps
            for shift in range(steps - 8, -8, -8):
                r ^= reduce[r >> (256 + shift)] << shift
        raw = np.frombuffer(b"".join(polys), dtype=np.uint8).reshape(size, 32)
        jumps = _JUMPS[steps] = raw.T.copy()
    return jumps[:, :lanes]
