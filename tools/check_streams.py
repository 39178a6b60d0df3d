"""Check the sampler's array seeding and rows against numpy on many (seed, index) pairs.

Usage, from anywhere:

    python tools/check_streams.py

For every pair, the PCG64 (state, inc) that ``twomode.bounds`` computes in
its array pass must equal the state of
``default_rng(SeedSequence(entropy=seed, spawn_key=(index,)))``, and the
first 8 doubles that the sampler's array pass draws for the index must be
numpy's.  The first index of every window must also draw numpy's 8 doubles
at a random offset up to the sampler's attempt limit (log-uniform, so both
short and long walks are checked), reached as the sampler reaches it: one
jump of the carried state per row drawn, each at most a full row.  The
seeds span one to six uint32 words (word-count edges such as 2**32 - 1,
2**32, 2**128 - 1 and 2**128, then random ones); the windows of 256 indices
sit at 0, at the top of the index range (2**32 - 256) and at random starts.
It prints the pair count and the mismatch count, and exits 1 on any
mismatch.  At PAIRS = 1,000,000 it takes about 45 s on a 2-core x86_64
host: about 30 s in numpy's per-pair construction, most of the rest in the
walks.
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
#: The longest row, and so the longest jump, of a sampler round.
FULL_ROW = bounds._LONGEST_WALK


def _seeds(rng: np.random.Generator) -> list[int]:
    drawn = [int.from_bytes(rng.bytes(4 * words), "little")
             for words in rng.integers(1, 7, RANDOM_SEEDS).tolist()]
    return EDGE_SEEDS + drawn


def _window_starts(rng: np.random.Generator, count: int) -> list[int]:
    return ([0, INDEX_TOP] + rng.integers(0, INDEX_TOP, max(count - 2, 0)).tolist())[:count]


def _ints(words: np.ndarray) -> list[int]:
    return [hi << 64 | lo for hi, lo in zip(*words.tolist())]


def _walked_rows(streams: bounds._Streams, offsets: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` doubles of each row of ``streams`` at its offset, reached
    as the sampler reaches it: a row of at most FULL_ROW doubles drawn and
    walked at a time."""
    left = offsets.copy()
    while (rows := np.flatnonzero(left)).size:
        streams.draw(rows, FULL_ROW)
        step = np.minimum(left[rows], FULL_ROW)
        streams.walk(np.arange(len(rows)), step)
        left[rows] -= step
    return streams.draw(np.arange(len(offsets)), n)


def main() -> int:
    rng = np.random.default_rng(20261018)
    seeds = _seeds(rng)
    windows_per_seed = -(-PAIRS // (WINDOW * len(seeds)))
    pairs = mismatches = 0
    for seed in seeds:
        prefix = bounds._seed_prefix(seed)
        # each window's first stream: its words, offset and numpy's doubles there
        states, incs, offsets, firsts, wanted = [], [], [], [], []
        for start in _window_starts(rng, windows_per_seed):
            indices = range(start, start + WINDOW)
            streams = bounds._Streams(prefix, indices)
            got = zip(indices, _ints(streams.state), _ints(streams.inc),
                      streams.draw(np.arange(WINDOW), 8).tolist())
            offset = int(LAST_OFFSET ** rng.random())  # at least 1
            for index, state, inc, row in got:
                reference = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
                want = reference.bit_generator.state
                pairs += 1
                doubles = reference.random(offset + 8 if index == start else 8)
                if (state, inc) != (want["state"]["state"], want["state"]["inc"]):
                    mismatches += 1
                    print(f"state mismatch: seed {seed}, index {index}")
                elif row != doubles[:8].tolist():
                    mismatches += 1
                    print(f"row mismatch: seed {seed}, index {index}")
                elif index == start:
                    states.append(streams.state[:, :1])
                    incs.append(streams.inc[:, :1])
                    offsets.append(offset)
                    firsts.append(index)
                    wanted.append(doubles[offset:].tolist())
        # every window's first stream walks to its offset in one set of rows
        streams = bounds._Streams(prefix, range(len(firsts)))
        streams.state, streams.inc = np.hstack(states), np.hstack(incs)
        got = _walked_rows(streams, np.array(offsets), 8).tolist()
        for index, offset, row, want in zip(firsts, offsets, got, wanted):
            if row != want:
                mismatches += 1
                print(f"draw mismatch: seed {seed}, index {index}, offset {offset}")
    print(f"pairs {pairs}  seeds {len(seeds)}  mismatches {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
