"""Check the sampler's array seeding against numpy on many (seed, index) pairs.

Usage, from anywhere:

    python tools/check_streams.py

For every pair, the PCG64 (state, inc) that ``twomode.bounds`` computes in
its array pass must equal the state of
``default_rng(SeedSequence(entropy=seed, spawn_key=(index,)))``, and the
first index of every window must draw the same doubles: its first 8, and 8
at a random offset up to the sampler's attempt limit (log-uniform, so both
short and long ``advance`` jumps are checked).  The seeds span one to six
uint32 words (word-count edges such as 2**32 - 1, 2**32, 2**128 - 1 and
2**128, then random ones); the windows of 256 indices sit at 0, at the top
of the index range (2**32 - 256) and at random starts.  It prints the pair
count and the mismatch count, and exits 1 on any mismatch.  At
PAIRS = 1,000,000 it takes about 20 s on a 2-core x86_64 host, most of it
in numpy's per-pair construction.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twomode import bounds  # noqa: E402

EDGE_SEEDS = [0, 1, 11, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1, 2**64, 2**70 + 3, 2**96,
              2**128 - 1, 2**128, 2**128 + 12345, 2**140 + 7, 2**160 - 1, 2**192 - 1]
RANDOM_SEEDS = 24
PAIRS = 1_000_000
WINDOW = bounds._BLOCK
INDEX_TOP = bounds.COUNT_LIMIT - WINDOW
#: The furthest a sample's walk draws into its stream.
LAST_OFFSET = bounds._WIDTH * bounds._MAX_REJECTIONS


def _seeds(rng: np.random.Generator) -> list[int]:
    drawn = [int.from_bytes(rng.bytes(4 * words), "little")
             for words in rng.integers(1, 7, RANDOM_SEEDS).tolist()]
    return EDGE_SEEDS + drawn


def _window_starts(rng: np.random.Generator, count: int) -> list[int]:
    return ([0, INDEX_TOP] + rng.integers(0, INDEX_TOP, max(count - 2, 0)).tolist())[:count]


def main() -> int:
    rng = np.random.default_rng(20261018)
    seeds = _seeds(rng)
    windows_per_seed = -(-PAIRS // (WINDOW * len(seeds)))
    generator = np.random.Generator(np.random.PCG64(0))
    pairs = mismatches = 0
    for seed in seeds:
        prefix = bounds._seed_prefix(seed)
        for start in _window_starts(rng, windows_per_seed):
            indices = range(start, start + WINDOW)
            got = bounds._pcg64_states(prefix, indices)
            for index, (state, inc) in zip(indices, got):
                reference = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
                want = reference.bit_generator.state
                pairs += 1
                if (state, inc) != (want["state"]["state"], want["state"]["inc"]):
                    mismatches += 1
                    print(f"state mismatch: seed {seed}, index {index}")
                elif index == start:
                    stream = bounds._streams(prefix, range(index, index + 1), generator)[0]
                    offset = int(LAST_OFFSET ** rng.random())  # at least 1
                    doubles = reference.random(offset + 8)
                    if (stream.draw(0, 8).tolist() != doubles[:8].tolist()
                            or stream.draw(offset, 8).tolist() != doubles[offset:].tolist()):
                        mismatches += 1
                        print(f"draw mismatch: seed {seed}, index {index}, offset {offset}")
    print(f"pairs {pairs}  seeds {len(seeds)}  mismatches {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
