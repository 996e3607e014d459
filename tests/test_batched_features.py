"""The batched feature builders and queries against the per-candidate
scalar composition in ``scalar_features``, bit for bit."""

import numpy as np
import pytest

import scalar_features as scalar
from conftest import assembled, make_store
from preptensor.attach import AttachmentInstance, Candidate, TagSet, attachment_features
from preptensor.embeddings import (
    UndefinedSimilarityError,
    paraphrase_phrasal_verb,
    preposition_similarity_table,
    rank_preposition,
)
from preptensor.select import (
    SelectionInstance,
    build_confusion_table,
    correction_features,
    detection_features,
)

STOPLIST = frozenset({"the", "it"})
# "by" repeats "on" (tied cosines), "near" is twice "on", "at" is a zero
# vector and "upon" has none. The 3-norm of "tiny" and both norms of
# "tinier" underflow to 0.
ROSTER = ["on", "in", "to", "by", "near", "at", "tiny", "tinier", "upon"]
DECIDABLE_ROSTER = ["on", "in", "to", "by", "near", "tiny", "upon"]
SENTENCES = [
    ["sat", "ran", "on", "mat", "box"],  # both sides
    ["the", "on", "mat", "box"],         # right side only
    ["sat", "ran", "on", "it", "zzz"],   # left side only, right OOV
    ["up", "on", "down"],                # cancelling context
    ["zzz", "on", "qqq"],                # no context vector
    ["up", "on", "up", "at"],            # a zero vector in the context
]


@pytest.fixture(params=[3, 200])
def store(request):
    dim = request.param
    rng = np.random.default_rng(dim)
    vectors = {w: rng.standard_normal(dim)
               for w in ["on", "in", "to", "sat", "ran", "mat", "box", "up",
                         "ate", "fork", "pizza", "with"]}
    vectors.update(by=vectors["on"].copy(), near=2.0 * vectors["on"],
                   at=np.zeros(dim), down=-vectors["up"],
                   hat=vectors["ate"].copy(), tiny=1e-120 * vectors["in"],
                   tinier=1e-170 * vectors["in"])
    return make_store(vectors, q_const=rng.uniform(0.5, 1.5, dim))


def instances(observed="on"):
    return [SelectionInstance([observed if t == "on" else t for t in tokens],
                              tokens.index("on"), observed, gold)
            for tokens in SENTENCES for gold in ("in", "on")]


@pytest.mark.parametrize("roster", [ROSTER, DECIDABLE_ROSTER])
def test_rank_and_detection(store, roster):
    decided = 0
    for observed in roster:
        data = instances(observed)
        table = build_confusion_table(data, roster)
        for inst in data:
            got = detection_features(inst, store, table, window=3, stoplist=STOPLIST)
            want = scalar.detection_features(inst, store, table, window=3,
                                             stoplist=STOPLIST)
            assert (got is None) == (want is None)
            if got is not None:
                decided += 1
                assert np.array_equal(got, want)
    # The zero roster vector leaves every instance undecidable.
    assert (decided > 0) == (roster is DECIDABLE_ROSTER)


def test_rank_ties_go_to_roster_order(store):
    context = [store.rows(["on"])[0]]
    assert rank_preposition(context, "on", store, DECIDABLE_ROSTER)[0] == 1
    for observed in ("by", "near"):
        got = rank_preposition(context, observed, store, DECIDABLE_ROSTER)
        assert got == scalar.rank_preposition(context, observed, store,
                                              DECIDABLE_ROSTER)
    assert rank_preposition(context, "by", store, DECIDABLE_ROSTER)[0] == 2


def test_rank_undefined_cases(store):
    up = store.rows(["up"])[0]
    for context in ([up, -up], [np.zeros(store.dim)], []):
        for fn in (rank_preposition, scalar.rank_preposition):
            with pytest.raises(UndefinedSimilarityError):
                fn(context, "on", store, DECIDABLE_ROSTER)


def test_correction(store):
    """One builder call over several instances, one instance and none
    gives the factors of the per-instance rows; an instance without
    context fails the call."""
    data = instances()
    table = build_confusion_table(data, ROSTER)
    usable = []
    for inst in data:
        try:
            scalar.instance_correction_rows(inst, store, table, window=3,
                                            stoplist=STOPLIST)
        except ValueError:
            with pytest.raises(ValueError, match="context"):
                correction_features([inst], store, table, window=3, stoplist=STOPLIST)
            continue
        usable.append(inst)
    assert len(usable) == 10
    for batch in (usable, usable[:1], []):
        got = assembled(correction_features(batch, store, table, window=3,
                                            stoplist=STOPLIST))
        assert got.shape == (len(batch) * len(ROSTER), 3 * store.dim + 3)
        assert np.array_equal(got, scalar.correction_features(
            batch, store, table, window=3, stoplist=STOPLIST))


def attachment_instances():
    cands = [Candidate("ate", "VB", "NN", 3), Candidate("zzz", "NN", "IN", 1),
             Candidate("at", "XX", "NN", 12), Candidate("hat", "NN", "JJ", 2),
             Candidate("pizza", "NN", "IN", 1), Candidate("tiny", "NN", "IN", 4),
             Candidate("tinier", "NN", "IN", 4)]
    return [AttachmentInstance(cands, prep, child, 0)
            for prep, child in [("with", "fork"), ("with", "qqq"),
                                ("zzz", "fork"), ("at", "fork"), ("tiny", "fork")]] + [
        # One candidate, an out-of-vocabulary head with unknown tags.
        AttachmentInstance([Candidate("zzz", "XX", "YY", 30)], "with", "fork", 0)]


def test_attachment(store):
    """One builder call over several instances, one instance and none
    stacks the per-instance rows: out-of-vocabulary heads and words,
    zero and underflowing vectors, unknown tags and capped distances."""
    tagset = TagSet(["NN", "VB", "IN"])
    data = attachment_instances()
    width = 3 * store.dim + 3 + 2 * 4 + 1
    for batch in (data, data[-1:], []):
        got = attachment_features(batch, store, tagset)
        assert got.shape == (sum(len(inst.candidates) for inst in batch), width)
        assert np.array_equal(got, scalar.attachment_features(batch, store, tagset))


@pytest.mark.parametrize("centered", [True, False])
def test_similarity_table(store, centered):
    members = ["on", "in", "to", "by", "near", "tiny"] + (
        ["at", "tinier"] if centered else [])
    pairs = [(a, b) for a in members for b in members]
    got = preposition_similarity_table(store, pairs, ROSTER, centered=centered)
    assert got == scalar.preposition_similarity_table(store, pairs, ROSTER, centered)
    assert got[1][2] == got[3 * len(members) + 1][2]  # "by" ties "on"


def test_similarity_table_zero_vector_rejected(store):
    for fn in (preposition_similarity_table, scalar.preposition_similarity_table):
        with pytest.raises(UndefinedSimilarityError):
            fn(store, [("on", "at")], ROSTER, centered=False)


def test_paraphrase(store):
    candidates = ["ate", "hat", "fork", "ate", "pizza", "on", "by", "near"]
    for head, prep in [("ate", "with"), ("fork", "on"), ("up", "at")]:
        got = paraphrase_phrasal_verb(head, prep, candidates, store)
        assert got == scalar.paraphrase_phrasal_verb(head, prep, candidates, store)
    # "ate", "hat" and the second "ate" tie, and keep candidate order.
    ranked = paraphrase_phrasal_verb("up", "with", candidates, store)
    tied = [pos for pos, (verb, _) in enumerate(ranked) if verb in ("ate", "hat")]
    assert [ranked[pos][0] for pos in tied] == ["ate", "hat", "ate"]
    assert tied == list(range(tied[0], tied[0] + 3))
