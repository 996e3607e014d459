"""Seeded input files for the toy-corpus workloads.

The bundled toy corpus gives every roster preposition two signature
head words (``act<k>a``/``act<k>b``) and two signature object words
(``obj<k>a``/``obj<k>b``) plus twenty fillers. The selection and
attachment sets below use the same vocabulary, drawn the way the
end-to-end acceptance check draws them, so models trained on the toy
embeddings beat the always-keep and nearest-head baselines.

``_signatures``, ``write_selection_set`` and ``write_attachment_set``
copy the recipe of ``toy_signatures``, ``make_selection_tsv`` and
``make_attachment_tsv`` in ``tests/test_acceptance.py`` (which imports
pytest and the test helpers, so the benchmark does not import it). If
the toy corpus or that recipe changes, change both.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_FILLERS = 20
NEAREST_GOLD_SHARE = 6  # of every 10 attachment instances


def _signatures(roster):
    heads = {p: [f"act{k}{s}" for s in "ab"] for k, p in enumerate(roster)}
    comps = {p: [f"obj{k}{s}" for s in "ab"] for k, p in enumerate(roster)}
    fillers = [f"fill{i}" for i in range(N_FILLERS)]
    return heads, comps, fillers


def write_selection_set(rng, n, roster, path, error_rate=0.3) -> None:
    """``tokens<TAB>2<TAB>observed<TAB>gold`` rows; a share of
    ``error_rate`` observe a wrong preposition."""
    heads, comps, fillers = _signatures(roster)
    lines = []
    for _ in range(n):
        k = int(rng.integers(len(roster)))
        gold = roster[k]
        observed = gold
        if rng.random() < error_rate:
            observed = roster[(k + 1 + int(rng.integers(len(roster) - 1))) % len(roster)]
        toks = [fillers[int(rng.integers(N_FILLERS))],
                heads[gold][int(rng.integers(2))], observed,
                comps[gold][int(rng.integers(2))],
                fillers[int(rng.integers(N_FILLERS))]]
        lines.append(f"{' '.join(toks)}\t2\t{observed}\t{gold}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_attachment_set(rng, n, roster, path) -> None:
    """Two candidate heads per instance; the gold head is the nearer one
    in exactly 6 of every 10 instances, so the nearest-head baseline
    scores 0.6 whenever ``n`` is a multiple of 10."""
    heads, comps, _ = _signatures(roster)
    lines = []
    for m in range(n):
        k = int(rng.integers(len(roster)))
        prep = roster[k]
        other = roster[(k + 1 + int(rng.integers(len(roster) - 1))) % len(roster)]
        gold = heads[prep][int(rng.integers(2))]
        distractor = heads[other][int(rng.integers(2))]
        child = comps[prep][int(rng.integers(2))]
        if m % 10 < NEAREST_GOLD_SHARE:
            cands, gold_index = [(gold, 1), (distractor, 3)], 0
        else:
            cands, gold_index = [(distractor, 2), (gold, 4)], 1
        fields = ";".join(f"{tok}:VB:NN:{dist}" for tok, dist in cands)
        lines.append(f"{prep}\t{child}\t{gold_index}\t{fields}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_roster_pairs(roster, path) -> int:
    """Every unordered pair of distinct roster prepositions."""
    pairs = [f"{a} {b}" for i, a in enumerate(roster) for b in roster[i + 1:]]
    Path(path).write_text("\n".join(pairs) + "\n", encoding="utf-8")
    return len(pairs)


def write_paraphrase_candidates(roster, path) -> list[str]:
    """All signature head words; returns them in file order."""
    heads, _, _ = _signatures(roster)
    verbs = [tok for p in roster for tok in heads[p]]
    Path(path).write_text("\n".join(verbs) + "\n", encoding="utf-8")
    return verbs


def paraphrase_queries(roster) -> list[tuple[str, str]]:
    """One (head, preposition) query per roster preposition."""
    heads, _, _ = _signatures(roster)
    return [(heads[p][0], p) for p in roster]
