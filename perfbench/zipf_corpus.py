"""Deterministic Zipf-distributed corpus for the zipf-tensor workload.

Content words are ``w<rank>`` tokens whose frequencies follow a Zipf law
over a fixed vocabulary; roster prepositions are interleaved at a fixed
rate with their own Zipf law over the roster order, so every slice of
the tensor is populated but a few dominate. The same seed and size give
byte-identical text. Run from the repository root:

    python3 perfbench/zipf_corpus.py --seed 0 --bytes 1500000 --out corpus.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

VOCAB_SIZE = 30_000
WORD_EXPONENT = 1.07
PREP_EXPONENT = 1.0
PREP_RATE = 0.12
MIN_LEN, MAX_LEN = 6, 24
DEFAULT_BYTES = 1_500_000


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def generate(seed: int, target_bytes: int, roster: list[str]) -> str:
    """Sentences of ``MIN_LEN..MAX_LEN`` tokens until at least
    ``target_bytes`` characters have been written."""
    rng = np.random.default_rng(seed)
    words = [f"w{rank}" for rank in range(VOCAB_SIZE)]
    word_cdf = _zipf_cdf(VOCAB_SIZE, WORD_EXPONENT)
    prep_cdf = _zipf_cdf(len(roster), PREP_EXPONENT)
    sentences: list[str] = []
    size = 0
    while size < target_bytes:
        lengths = rng.integers(MIN_LEN, MAX_LEN + 1, 4096)
        n_tokens = int(lengths.sum())
        word_ids = np.searchsorted(word_cdf, rng.random(n_tokens), side="right")
        prep_ids = np.searchsorted(prep_cdf, rng.random(n_tokens), side="right")
        is_prep = rng.random(n_tokens) < PREP_RATE
        tokens = [roster[p] if flag else words[w]
                  for w, p, flag in zip(word_ids.tolist(), prep_ids.tolist(),
                                        is_prep.tolist())]
        start = 0
        for length in lengths.tolist():
            sentence = " ".join(tokens[start:start + length]) + ". "
            start += length
            sentences.append(sentence)
            size += len(sentence)
            if size >= target_bytes:
                break
    return "".join(sentences).rstrip() + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bytes", type=int, default=DEFAULT_BYTES)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    from preptensor.select import default_roster

    text = generate(args.seed, args.bytes, default_roster())
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"{args.out}: {len(text)} bytes sha256 {sha256_text(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
