"""The batched feature builders and queries against the per-candidate
scalar composition in ``scalar_features``, bit for bit."""

import numpy as np
import pytest

import scalar_features as scalar
from conftest import assembled, make_store
from scalar_features import UndefinedSimilarityError
from preptensor.attach import AttachmentInstance, Candidate, TagSet, attachment_features
from preptensor.embeddings import (
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


def context_mean(context, dim):
    """The mean of the nonzero context vectors, or a zero vector."""
    rows = [v for v in context if np.linalg.norm(v) > 0.0]
    return np.mean(rows, axis=0) if rows else np.zeros(dim)


def assert_same_detection(data, store, table):
    got = detection_features(data, store, table, window=3, stoplist=STOPLIST)
    want = scalar.detect(data, store, table, window=3, stoplist=STOPLIST)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    return got


@pytest.mark.parametrize("roster", [ROSTER, DECIDABLE_ROSTER])
def test_rank_and_detection(store, roster):
    decided = 0
    for observed in roster:
        data = instances(observed)
        decidable, _ = assert_same_detection(data, store,
                                             build_confusion_table(data, roster))
        decided += len(decidable)
    # The zero roster vector leaves every instance undecidable.
    assert (decided > 0) == (roster is DECIDABLE_ROSTER)


def test_mixed_dataset_in_one_call(store):
    """One call over a dataset that mixes the undecidable cases (an
    observed preposition without a vector; an empty, an out-of-vocabulary
    and a cancelling context; a zero roster vector) with decidable and
    tied instances gives the per-instance rows and positions."""
    observed = ["on", "by", "near", "in", "upon"]
    data = [inst for prep in observed for inst in instances(prep)]
    data.append(SelectionInstance(["the", "on", "it"], 1, "on", "in"))
    # The zero roster vector leaves every instance undecidable.
    assert assert_same_detection(data, store, build_confusion_table(data, ROSTER))[0] == []
    decidable, rows = assert_same_detection(data, store,
                                            build_confusion_table(data, DECIDABLE_ROSTER))
    per_prep = len(SENTENCES) * 2
    assert 0 < len(decidable) < len(data)
    assert not any(pos >= 4 * per_prep for pos in decidable)  # "upon", empty
    # "by" ties "on" and comes after it in the roster.
    rank = dict(zip(decidable, rows[:, 1]))
    on = [pos for pos in decidable if pos < per_prep]
    assert on and all(rank[pos + per_prep] == rank[pos] + 1 for pos in on)


def test_rank_ties_go_to_roster_order(store):
    context = [store.rows(["on"])[0]]
    observed = ["on", "by", "near"]
    means = np.array([context_mean(context, store.dim)] * len(observed))
    ranks, cosines, defined = rank_preposition(means, observed, store, DECIDABLE_ROSTER)
    assert defined.all() and ranks[0] == 1 and ranks[1] == 2
    for pos, prep in enumerate(observed):
        assert (ranks[pos], cosines[pos]) == scalar.rank_preposition(
            context, prep, store, DECIDABLE_ROSTER)


def test_rank_undefined_cases(store):
    up = store.rows(["up"])[0]
    contexts = ([up, -up], [np.zeros(store.dim)], [])
    for context in contexts:
        with pytest.raises(UndefinedSimilarityError):
            scalar.rank_preposition(context, "on", store, DECIDABLE_ROSTER)
    means = np.array([context_mean(context, store.dim) for context in contexts])
    ranks, cosines, defined = rank_preposition(means, ["on"] * 3, store,
                                               DECIDABLE_ROSTER)
    assert not defined.any() and not ranks.any() and not cosines.any()
    # An observed preposition without a vector, and a zero roster vector.
    means = np.array([up, up])
    assert not rank_preposition(means, ["upon", "on"], store, DECIDABLE_ROSTER)[2][0]
    assert not rank_preposition(means, ["on", "in"], store, ROSTER)[2].any()


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
    with pytest.raises(ValueError, match="^cosine similarity undefined for zero-norm vector$"):
        preposition_similarity_table(store, [("on", "at")], ROSTER, centered=False)
    with pytest.raises(UndefinedSimilarityError):
        scalar.preposition_similarity_table(store, [("on", "at")], ROSTER, centered=False)


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
