"""Known-answer tests pinning the PRNG stream.

Every dataset, initialization and minibatch order comes from this stream,
so a change to any value below changes every trace.  The SplitMix64 and
xoshiro256** words agree with the reference C of Blackman & Vigna
(arXiv 1805.01407) for these seeds.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from singopt import lanes, rng
from singopt.rng import SplitMix64, Xoshiro256, derive_seed

MAX = 2**64 - 1
SEEDS = [0, 1, MAX]

SPLITMIX = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B],
    MAX: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9, 0x6D1DB36CCBA982D2],
}

XOSHIRO = {
    0: [
        0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C,
        0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA, 0x6C160DEED2F54C98, 0x8920AD648FC30A3F,
    ],
    1: [
        0xB3F2AF6D0FC710C5, 0x853B559647364CEA, 0x92F89756082A4514, 0x642E1C7BC266A3A7,
        0xB27A48E29A233673, 0x24C123126FFDA722, 0x123004EF8DF510E6, 0x61954DCC47B1E89D,
    ],
    MAX: [
        0x8F5520D52A7EAD08, 0xC476A018CAA1802D, 0x81DE31C0D260469E, 0xBF658D7E065F3C2F,
        0x913593FDA1BCA32A, 0xBB535E93941BA525, 0x5ECDA415C3C6DFDE, 0xC487398FC9DE9AE2,
    ],
}

# the draws that follow the 8 words above: one uniform, then 5 normals
UNIFORM = {0: 0.8555171516848772, 1: 0.8671524847686004, MAX: 0.6265758787535428}
NORMALS = {
    0: [-1.5326453130590387, 1.363837132398845, 0.3823408085833364, 1.239944706546516, 0.7978937764462462],
    1: [0.6784862500619759, 0.36891641340340176, -1.2406864118417138, 1.3612830106486298, 1.588097624356183],
    MAX: [-1.2802266841332939, -0.6555289061141076, 0.8300286309910598, -0.8776900691242693, 1.654853950781468],
}

# permutation(n) from a fresh generator
PERMUTATIONS = {
    0: {0: [], 1: [0], 2: [1, 0], 7: [1, 5, 6, 0, 3, 2, 4]},
    1: {0: [], 1: [0], 2: [0, 1], 7: [1, 5, 2, 6, 0, 4, 3]},
    MAX: {0: [], 1: [0], 2: [1, 0], 7: [2, 4, 0, 3, 1, 6, 5]},
}

# permutation(2000) from a fresh generator: sha256 of its little-endian
# int64 bytes, its first five entries, the state it leaves and the next word
PERMUTATION_2000 = {
    0: (
        "35b6e4f99225d44ee2c9e3659ee9356e88a4d0a98e3d0160b5e84082118fa874",
        [1826, 625, 996, 1414, 256],
        [0x0820B87FA703CB12, 0xA9C9010B4C171E7A, 0x634601D61EB6D61B, 0x1B00C40BF0832120],
        0x2A977E30082DBA68,
    ),
    1: (
        "f5c31d467137df637a014a29b27c9e9015a2895f33f0d20d64068366760eb290",
        [848, 1380, 1800, 1475, 1085],
        [0xC6FD5086FC9B15F9, 0xC64BA4324A22638C, 0x6B8B00BF11C12590, 0xE03B0CC812F3E6BB],
        0xA5EE6B8405BFD1E7,
    ),
    MAX: (
        "5939573a5f75fb08cda2832acb57935990dcebc477803cccde7054be7e498a9b",
        [1419, 570, 864, 1020, 1385],
        [0x80B46671A5319EDD, 0x67FC010DB92D6DDC, 0xBED8B26A0D02B100, 0x1C15AD7E7B8AA3B4],
        0xA617B4C67E27D61B,
    ),
}

# normals(4000) from a fresh generator: sha256 of its float64 bytes
NORMALS_4000 = {
    0: "cb59813c687a5bbaf34feb7cc8079b9cf658ce3ce7094c12c95918755fbf444c",
    MAX: "4154b7832986e4ff117df48562c04ad886ef226c868b22c43231903bde190496",
}

# derive_seed(s), derive_seed(s, 0xBA7C4), derive_seed(s, 1, 2**64-1), derive_seed(s, -1)
DERIVED = {
    0: [0xE220A8397B1DCDAF, 0x347579B1EE66C8E8, 0x96779FB4B69B576A, 0x2DD82C88FA32B270],
    1: [0x910A2DEC89025CC1, 0x510A3621D0A4D268, 0xE8CE452EC8A5BD3A, 0xA562DF66C82C649A],
    MAX: [0xE4D971771B652C20, 0x848DDAFD1D806616, 0x2CA362DD8F0ADD68, 0x6309143E67A47936],
}


@pytest.mark.parametrize("seed", SEEDS)
def test_splitmix64_words(seed):
    sm = SplitMix64(seed)
    assert [sm.next_u64() for _ in range(4)] == SPLITMIX[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_xoshiro_words_uniform_and_normals(seed):
    gen = Xoshiro256(seed)
    assert [gen.next_u64() for _ in range(8)] == XOSHIRO[seed]
    assert gen.uniform() == UNIFORM[seed]
    normals = gen.normals(5)
    assert normals.dtype == np.float64
    assert normals.tolist() == NORMALS[seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_small_permutations(seed, n):
    perm = Xoshiro256(seed).permutation(n)
    assert perm.dtype == np.int64
    assert perm.shape == (n,)
    assert perm.tolist() == PERMUTATIONS[seed][n]


@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_2000_and_the_state_it_leaves(seed):
    digest, head, state, following = PERMUTATION_2000[seed]
    gen = Xoshiro256(seed)
    perm = gen.permutation(2000)
    assert perm.dtype == np.int64
    assert hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest() == digest
    assert perm[:5].tolist() == head
    assert sorted(perm.tolist()) == list(range(2000))
    assert gen.s == state
    assert gen.next_u64() == following


def test_permutation_draws_the_next_u64_stream():
    # Fisher-Yates takes j = next_u64() % (i + 1) for i = n-1 down to 1; from
    # n - 1 = 1024 words on, the words come from lanes
    for n in (50, 1024, 1025, 1026, 5000):
        words = Xoshiro256(1)
        expected = list(range(n))
        for i in range(n - 1, 0, -1):
            j = words.next_u64() % (i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        gen = Xoshiro256(1)
        assert gen.permutation(n).tolist() == expected
        assert gen.s == words.s


@pytest.mark.parametrize("seed", SEEDS)
def test_derive_seed(seed):
    got = [derive_seed(seed), derive_seed(seed, 0xBA7C4), derive_seed(seed, 1, MAX), derive_seed(seed, -1)]
    assert got == DERIVED[seed]


@pytest.mark.parametrize("seed", sorted(NORMALS_4000))
def test_normals_4000_bytes(seed):
    normals = Xoshiro256(seed).normals(4000)
    assert normals.dtype == np.float64
    assert hashlib.sha256(normals.astype("<f8").tobytes()).hexdigest() == NORMALS_4000[seed]


# 85 normals are 1020 words and take the scalar loop, 86 take lanes, and
# more than _NORMALS_BLOCK rows take two blocks
@pytest.mark.parametrize("count", [1, 7, 85, 86, 4000, rng._NORMALS_BLOCK + 5])
def test_normals_equal_scalar_normal_draws(count):
    scalar, vector = Xoshiro256(2), Xoshiro256(2)
    expected = np.array([scalar.normal() for _ in range(count)])
    got = vector.normals(count)
    assert got.tobytes() == expected.tobytes()
    assert vector.s == scalar.s


def test_normals_of_zero_draws_nothing():
    gen = Xoshiro256(0)
    empty = gen.normals(0)
    assert empty.dtype == np.float64
    assert empty.shape == (0,)
    assert gen.next_u64() == XOSHIRO[0][0]


# -- the lane path: long draws step many generators at once, same stream -------

LANE_MIN = rng._LANE_MIN_WORDS


@pytest.mark.parametrize("seed", [0, 1, 12, MAX])
def test_charpoly_annihilates_the_state_update(seed):
    # Cayley-Hamilton: the XOR of the states A^i s at the set bits i of the
    # characteristic polynomial is zero, for every state s
    assert lanes._CHARPOLY.bit_length() - 1 == 256
    gen, acc = Xoshiro256(seed), [0, 0, 0, 0]
    for i in range(257):
        if lanes._CHARPOLY >> i & 1:
            acc = [a ^ b for a, b in zip(acc, gen.s)]
        gen._words(1)
    assert acc == [0, 0, 0, 0]


# one lane; around the lane threshold; counts that are not a multiple of the
# lane length; the shuffle of mlp-readme; each change of lane length; and
# draws longer than one lane pass
LANE_COUNTS = [1, 5, 8, 9, 257, LANE_MIN - 1, LANE_MIN, LANE_MIN + 1, 1999, 2047, 2048, 8191, 8192, 131072, 200003]


@pytest.mark.parametrize("seed", [0, MAX])
@pytest.mark.parametrize("count", LANE_COUNTS)
def test_lane_words_equal_the_scalar_loop(seed, count):
    scalar = Xoshiro256(seed)
    expected = scalar._words(count)
    words, state = lanes.draw(list(Xoshiro256(seed).s), count)
    assert words.dtype == np.uint64 and words.tolist() == expected
    assert state == scalar.s
    gen = Xoshiro256(seed)  # through the size switch
    assert gen._word_array(count).tolist() == expected
    assert gen.s == scalar.s
    assert gen.next_u64() == scalar.next_u64()


def test_a_longer_draw_extends_the_jump_tables_without_changing_words():
    # passes below 1024 words take 8 steps a lane; the tables grow at least twofold
    lanes._JUMPS.pop(8, None)
    for count, built in [(75, 10), (88, 20), (160, 20), (328, 41)]:
        scalar = Xoshiro256(4)
        words, state = lanes.draw(list(Xoshiro256(4).s), count)
        assert words.tolist() == scalar._words(count) and state == scalar.s
        assert lanes._JUMPS[8].shape == (32, built)


def test_importing_the_package_leaves_the_lanes_unloaded():
    # check-all's set-up is the import alone: the lane module and its tables wait for a long draw
    probe = "import sys, singopt.verify; print('singopt.lanes' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
