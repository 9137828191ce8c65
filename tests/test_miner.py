import gc
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from crossseg import miner
from crossseg.errors import DecodeError
from crossseg.miner import (MinerConfig, WordCollection, _runs,
                            collect_stats, lexicon_to_tsv, load_lexicon, mine,
                            save_lexicon, score_candidates)

import toylang
from helpers import (OracleStats, RefStats, by_text, collect_stats_ref,
                     entropy_ref, run_splitter, score_candidates_ref)
from test_acceptance import MINE_CFG


def _scored(corpus, cfg=MinerConfig(min_frequency=0)) -> dict:
    """The candidate scores of a corpus by text."""
    return {c.text: c for c in score_candidates(collect_stats(corpus, cfg))}


def test_probability_and_undefined():
    # p(xy) = 10/10 and p(x) = 10/30 show in tfidf and MIS; 'xy' occurs in
    # half of the documents
    scored = _scored(["xy"] * 10 + ["z"] * 10)
    assert scored["xy"].tfidf == pytest.approx(1.0 * math.log(2.0))
    assert scored["xy"].mis == pytest.approx(1.0 / (1 / 3 * 1 / 3))
    # single characters and unseen grams are not scored
    assert set(scored) == {"xy"}


def test_mis_pinned_values():
    # p(xy)=1, p(x)=p(y)=1/2 -> 1 / (1/2 * 1/2)
    assert _scored(["xy"] * 10)["xy"].mis == pytest.approx(4.0)
    # p(xy)=1/2, p(x)=1/2, p(y)=1/4
    mixed = _scored(["xy"] * 5 + ["xz"] * 5)
    assert mixed["xy"].mis == pytest.approx(4.0)


def test_mis_takes_worst_split():
    corpus = ["abc"] * 4 + ["ab"] * 4 + ["zbc"] * 4
    stats = collect_stats(corpus, MinerConfig(min_frequency=0))

    def p(t):
        return stats.counts[t] / stats.total_per_length[len(t)]

    splits = [p("abc") / (p("a") * p("bc")), p("abc") / (p("ab") * p("c"))]
    assert _scored(corpus)["abc"].mis == pytest.approx(min(splits))


def test_mis_reads_only_recorded_splits():
    # MIS reads the counts of both sides of every split of a candidate;
    # collect_stats records each of them, with the oracle's count
    rng = random.Random(13)
    splits = 0
    for floor in (0, 0, 2, 2, 4, 4):
        corpus = ["".join(rng.choice("aaabbc,") for _ in range(40))
                  for _ in range(20)]
        stats = collect_stats(corpus, MinerConfig(n_max=5,
                                                  min_frequency=floor))
        oracle = OracleStats(corpus, n_max=5)
        for c in score_candidates(stats):
            for j in range(1, len(c.text)):
                for part in (c.text[:j], c.text[j:]):
                    assert stats.counts[part] == oracle.counts[part]
                    splits += 1
    assert splits > 0


def test_entropy_score_pinned():
    # each side sees two distinct neighbors once
    assert _scored(["axyb", "cxyd"])["xy"].es == pytest.approx(math.log(2.0))
    # run edges contribute no neighbors: empty side scores zero
    assert _scored(["xya", "xyb"])["xy"].es == 0.0


def test_tfidf_pinned():
    # 'ab' is 10 of the 500 bigrams, in 10 of the 100 documents
    scored = _scored(["abcdef"] * 10 + ["cdefgh"] * 90)
    assert scored["ab"].tfidf == 0.02 * math.log(10.0)


def test_gram_in_every_document_has_no_importance():
    scored = _scored(["xab", "aby"])
    assert scored["ab"].frequency == 2
    assert scored["ab"].tfidf == 0.0
    assert scored["xa"].tfidf > 0.0


def test_candidates_on_the_deepest_counted_level_have_no_flexibility():
    # 'cde' occurs, but neither its prefix nor its suffix clears the
    # floor: level 3 counts nothing, so 'ab' has no neighbours to read
    stats = collect_stats(["ab", "ab", "ab", "cde"],
                          MinerConfig(min_frequency=2))
    assert len(stats.levels) == 2
    [ab] = score_candidates(stats)
    assert (ab.text, ab.es) == ("ab", 0.0)
    # every run ends with 'ab'
    stats = collect_stats(["ab"] * 5, MinerConfig(min_frequency=0))
    assert len(stats.levels) == 2
    assert [c.es for c in score_candidates(stats)] == [0.0]


def _entropy_in_order(neigh: list[tuple[str, int]]) -> float:
    total = sum(k for _, k in neigh)
    h = 0.0
    for _, k in neigh:
        h -= k / total * math.log(k / total)
    return h


def test_left_neighbours_sum_in_code_point_order():
    # 'xy' has five left neighbours, first seen in reverse code point
    # order. Its entropy's last bit depends on the order of the terms:
    # by code point, U+FFE0 comes before the characters outside the BMP,
    # by UTF-16 code unit after them
    left = {"a": 1, "\uffe0": 1, "\U0001F600": 1, "\U00020000": 3,
            "\ud800": 2}
    rights = iter("bcdefghijk")
    corpus = [c + "xy" + next(rights)
              for c in sorted(left, reverse=True) for _ in range(left[c])]
    assert OracleStats(corpus, n_max=3).left["xy"] == left
    want = _entropy_in_order(sorted(left.items()))
    assert want == entropy_ref(left)
    assert want != _entropy_in_order(sorted(
        left.items(), key=lambda kv: kv[0].encode("utf-16-be",
                                                  "surrogatepass")))
    assert want != _entropy_in_order(sorted(left.items(), reverse=True))
    assert _scored(corpus)["xy"].es == want  # the right side has ln 8


def test_neighbors_stay_within_runs():
    # 'xy' has two left neighbours; its right ones lie across a boundary
    corpus = ["cxy,a", "dxy.b"]
    stats = collect_stats(corpus, MinerConfig(min_frequency=0))
    assert _scored(corpus)["xy"].es == 0.0
    assert stats.counts.get("ya") is None
    assert stats.counts.get("xya") is None
    assert stats.counts["xy"] == 2
    assert _scored(["cxya", "dxyb"])["xy"].es == pytest.approx(math.log(2.0))


def test_stop_words_split_runs():
    cfg = MinerConfig(stop_words=frozenset({"x"}))
    stats = collect_stats(["axb"] * 3, cfg)
    assert "x" not in stats.counts
    assert stats.counts.get("ax") is None
    assert stats.counts["a"] == 3


def _runs_per_sentence(corpus: list[str], cfg: MinerConfig):
    """The runs the one pass over the corpus finds, sentence by sentence."""
    text, lengths, doc, _, _ = _runs(corpus, cfg)
    out, start = [[] for _ in corpus], 0
    for n in lengths.tolist():
        out[doc[start]].append(text[start:start + n])
        start += n
    return out


def test_overlapping_stop_words_split_leftmost_then_longest():
    corpus = ["xabcdy", "zbcdef", "q,abcde bcde", "abc"]
    assert _runs_per_sentence(corpus, MinerConfig(
        stop_words=frozenset({"ab", "abc", "bc", "cde"}))) == [
        ["x", "dy"],        # 'abc' beats 'ab' at one start
        ["z", "def"],       # 'bc' starts before 'cde'
        ["q", "de", "de"],
        []]


# letters that build overlapping stop words, whitespace (the newline and
# \x1c among it), punctuation, two characters outside the BMP and a lone
# surrogate
SPLIT_ALPHABET = "aaabbbcccd \n\x1c\t,.\U0001F600\U00020000\ud800"
SPLIT_STOP_WORDS = ["ab", "abc", "bc", "cab", "a", "a b", "c,", "\n",
                    "b\x1cc", "\U0001F600a", "\ud800b"]


def test_one_pass_runs_match_reference_splitter():
    rng = random.Random(27)
    corpora = [[], [""]] + [
        ["".join(rng.choice(SPLIT_ALPHABET) for _ in range(rng.randint(0, 20)))
         for _ in range(rng.randint(1, 8))]
        for _ in range(400)]
    for corpus in corpora:
        cfg = MinerConfig(stop_words=frozenset(rng.sample(
            SPLIT_STOP_WORDS, rng.randint(0, 4))))
        split = run_splitter(corpus, cfg)
        runs, doc = [], []
        for d, sentence in enumerate(corpus):
            for run in split(sentence):
                runs.append(run)
                doc += [d] * len(run)
        text = "".join(runs)
        got_text, lengths, got_doc, _, _ = _runs(corpus, cfg)
        assert got_text == text
        assert lengths.tolist() == list(map(len, runs))
        assert got_doc.tolist() == doc
        # level 1 numbers the characters of the runs in code point order
        chars = collect_stats(corpus, cfg).levels[0]
        alphabet = sorted(set(text))
        assert [text[p] for p in chars.at.tolist()] == alphabet
        assert chars.count.tolist() == [text.count(c) for c in alphabet]


def test_neighbour_maps_match_oracle_on_random_corpora():
    rng = random.Random(11)
    alphabet = "abcdefgx,. "
    stop_words = frozenset({"x", "fg"})  # no two occurrences can overlap
    edge_candidates = 0
    for _ in range(10):
        corpus = ["".join(rng.choice(alphabet)
                          for _ in range(rng.randint(1, 30)))
                  for _ in range(rng.randint(2, 40))]
        cfg = MinerConfig(n_min=2, n_max=4, min_frequency=0,
                          stop_words=stop_words)
        stats = collect_stats(corpus, cfg)
        oracle = OracleStats(corpus, n_max=4, stop_words=stop_words)
        scored = score_candidates(stats)
        assert sorted(c.text for c in scored) == sorted(
            g for g in oracle.counts if 2 <= len(g) <= 4)
        for c in scored:
            g = c.text
            left, right = oracle.left.get(g, {}), oracle.right.get(g, {})
            assert c.es == min(entropy_ref(left), entropy_ref(right))
            if len(g) == 4 and oracle.counts[g] > sum(right.values()):
                edge_candidates += 1
    assert edge_candidates > 0


@pytest.mark.parametrize("floor", [0, 1, 2, 3])
def test_pruned_counts_match_oracle_at_floors(floor):
    # three letters carry most of the text, so 3- and 4-grams clear the
    # floor and the deep levels run; at floor 0 nothing is pruned
    rng = random.Random(23 + floor)
    alphabet = "aaabbbcfgx,. "
    stop_words = frozenset({"x", "fg"})
    cfg = MinerConfig(n_min=2, n_max=4, min_frequency=floor,
                      stop_words=stop_words)
    long_candidates = pruned = 0
    for _ in range(10):
        corpus = ["".join(rng.choice(alphabet)
                          for _ in range(rng.randint(1, 30)))
                  for _ in range(rng.randint(2, 40))]
        stats = collect_stats(corpus, cfg)
        oracle = OracleStats(corpus, n_max=5, stop_words=stop_words)
        if floor == 0:
            assert stats.counts == oracle.counts
        for g, k in stats.counts.items():
            assert k == oracle.counts[g]
        pruned += len(oracle.counts) - len(stats.counts)
        scored = score_candidates(stats)
        cand = [c.text for c in scored]
        assert cand == sorted(g for g, k in oracle.counts.items()
                              if 2 <= len(g) <= 4 and k > floor)
        for c in scored:
            g = c.text
            assert c.frequency == oracle.counts[g]
            assert c.mis == pytest.approx(oracle.mis(g), abs=1e-9)
            assert c.es == pytest.approx(oracle.es(g), abs=1e-9)
            assert c.tfidf == pytest.approx(oracle.tfidf(g), abs=1e-9)
            assert c.es == min(entropy_ref(oracle.left.get(g, {})),
                               entropy_ref(oracle.right.get(g, {})))
            long_candidates += len(g) == 4
    assert long_candidates > 0
    assert (pruned > 0) == (floor > 0)


@pytest.mark.parametrize("floor", [0, 1, 2, 3])
def test_scores_equal_string_scorer_on_random_corpora(floor):
    # 100 corpora a floor over a skewed alphabet with boundaries, characters
    # outside the BMP and a lone surrogate: every score equal bit for bit
    rng = random.Random(61 + floor)
    stop_words = ["x", "c\U0001F600", "ab", "\ud800b", "\U00020000"]
    deepest = scored = 0
    for _ in range(100):
        n_max = rng.randint(2, 6)
        cfg = MinerConfig(n_min=rng.randint(2, n_max), n_max=n_max,
                          min_frequency=floor, stop_words=frozenset(
                              rng.sample(stop_words, rng.randint(0, 2))))
        corpus = ["".join(rng.choice(WIDE_ALPHABET)
                          for _ in range(rng.randint(0, 60)))
                  for _ in range(rng.randint(1, 40))]
        got = score_candidates(collect_stats(corpus, cfg))
        assert got == score_candidates_ref(collect_stats_ref(corpus, cfg))
        deepest = max(deepest, *(len(c.text) for c in got), 0)
        scored += len(got)
    assert deepest == 6 and scored > 1000


def test_scores_equal_string_scorer_on_mining_corpus_at_floor_3(
        mining_corpus):
    stats = collect_stats(mining_corpus, MinerConfig(min_frequency=3))
    got = score_candidates(stats)
    assert len(got) == 128_050
    assert got == score_candidates_ref(by_text(stats))


def test_scoring_leaves_the_counts_map_unbuilt(mining_corpus):
    stats = collect_stats(mining_corpus, MinerConfig())
    assert len(score_candidates(stats)) == 2_874
    assert "counts" not in vars(stats)
    assert len(stats.counts) == 60_325  # built on first read


# a skewed alphabet so the deep levels run, with boundaries, a stop-word
# letter, two characters outside the BMP and a lone surrogate
WIDE_ALPHABET = "aaaaaabbbbbcx\U0001F600\U00020000\ud800,. "


@pytest.mark.parametrize("floor", [0, 1, 2, 3])
def test_counts_match_level_by_level_reference(floor):
    rng = random.Random(41 + floor)
    deepest = 0
    for n_max in range(2, 7):
        for stop_words in (frozenset(), frozenset({"x", "c\U0001F600"})):
            cfg = MinerConfig(n_min=rng.randint(2, n_max), n_max=n_max,
                              min_frequency=floor, stop_words=stop_words)
            for _ in range(4):
                corpus = ["".join(rng.choice(WIDE_ALPHABET)
                                  for _ in range(rng.randint(0, 60)))
                          for _ in range(rng.randint(1, 40))]
                want = collect_stats_ref(corpus, cfg)
                assert by_text(collect_stats(corpus, cfg)) == want
                deepest = max(deepest, *map(len, want.counts))
    assert deepest >= 6  # grams of six characters or more were counted


@pytest.mark.parametrize("floor", [0, 1, 2, 3])
def test_counts_match_reference_on_one_long_line(floor):
    rng = random.Random(7)
    line = "".join(rng.choice("aab\U0001F600") for _ in range(20_000))
    cfg = MinerConfig(n_max=5, min_frequency=floor)
    stats = collect_stats([line], cfg)
    assert by_text(stats) == collect_stats_ref([line], cfg)
    assert stats.total_per_length[1] == 20_000


@pytest.mark.parametrize("corpus", [
    [], [""], ["，。！", " ,. ", "\t"], ["xx x", "x"]])
def test_counts_of_corpora_without_runs(corpus):
    cfg = MinerConfig(min_frequency=0, stop_words=frozenset({"x"}))
    stats = collect_stats(corpus, cfg)
    assert by_text(stats) == collect_stats_ref(corpus, cfg)
    assert by_text(stats) == RefStats({}, {}, {}, len(corpus))


def _mine_peak(corpus: list[str], cfg: MinerConfig) -> int:
    """The tracemalloc peak of one mine() call, in bytes."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mine(corpus, cfg)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_mine_memory_peak_stays_bounded(mining_corpus):
    # tracemalloc peak of mine() at the defaults on the acceptance mining
    # corpus: 15.4 MB when the miner counted strings in Counters, before it
    # counted integer ids in numpy (19.3 MB while every level sorted, 13.8
    # MB since dense levels count without sorting, 11.6 MB since scoring
    # reads the ids and slices only the candidates); it may not grow back
    # to 13 MB
    assert _mine_peak(mining_corpus, MinerConfig()) < 13e6


def test_sparse_code_points_stay_cheap():
    # a few letters beside U+10FFFF, an astral ideograph and a lone
    # surrogate: the code points span 0x110000 but the corpus holds 299
    # characters, so no table may be sized to the largest code point. The
    # peak is 0.05 MB; tables over every code point took 10 MB
    corpus = ["ab\U0010ffffcd\U00020000ab\ud800cd"] * 30
    assert _mine_peak(corpus, MinerConfig(min_frequency=0)) < 1e6


def test_mine_scores_once(monkeypatch):
    # the tracer times miner.collect_stats and miner.score_candidates and
    # counts the candidates and the kept share from them, so mine() must
    # run both, once each
    calls = []

    def spy(name):
        real = getattr(miner, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(miner, name, counted)

    spy("collect_stats")
    spy("score_candidates")
    collection = mine(build_cohesion_corpus(), MinerConfig(n_max=4))
    assert calls == ["collect_stats", "score_candidates"]
    assert set(collection.entries) == {"qzj"}


@pytest.fixture
def sorts(monkeypatch):
    """One entry per np.unique call: the length of the keys it numbers (a
    sorted level, or the code points)."""
    calls, unique = [], np.unique

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls


def test_counting_sorts_only_where_the_key_space_is_sparse(mining_corpus,
                                                           sorts):
    # at the defaults the code points (21,020 of them over 259,679
    # characters) and levels 1 and 2 (the same 21,020 and 188**2 keys over
    # 254,680 and 249,520 live positions) count densely; levels 3 and 4
    # sort their 69,592 and 9,600 live positions; the (document, gram)
    # pairs of levels 2 to 4 are sorted, not numbered
    collect_stats(mining_corpus, MinerConfig())
    assert sorts == [69_592, 9_600]


def test_sorted_and_dense_levels_match_reference(sorts):
    rng = random.Random(5)
    # 100 letters over 2,000 characters: level 2's 100**2 keys outnumber
    # its positions, so it sorts
    letters = [chr(0x100 + i) for i in range(100)]
    corpus = ["".join(rng.choices(letters, k=20)) for _ in range(100)]
    cfg = MinerConfig(n_max=3, min_frequency=0)
    stats = collect_stats(corpus, cfg)
    assert stats.total_per_length[2] in sorts
    assert by_text(stats) == collect_stats_ref(corpus, cfg)
    # two letters: every level's key space is smaller than its positions
    sorts.clear()
    corpus = ["".join(rng.choices("ab", k=50)) for _ in range(100)]
    cfg = MinerConfig(n_max=6, min_frequency=1)
    stats = collect_stats(corpus, cfg)
    assert sorts == []
    assert max(map(len, stats.counts)) == 7
    assert by_text(stats) == collect_stats_ref(corpus, cfg)


def test_infrequent_grams_are_unrecorded_or_neighbours_only():
    # at the default floor only q, x, y, z and their grams are frequent
    corpus = ["qxyz"] * 11 + ["vwqx", "uwqy"]
    stats = collect_stats(corpus, MinerConfig())
    assert "vw" not in stats.counts
    scored = {c.text for c in score_candidates(stats)}
    assert "vw" not in scored
    # 'wq' is recorded exactly as the left neighbour of 'q...' grams, but
    # its own neighbours 'vwq', 'uwq' and 'wqy' are not: the full count
    # gives it ln 2 on both sides, the recorded grams would give 0
    assert stats.counts["wq"] == 2
    assert "wqx" in stats.counts and "wqy" not in stats.counts
    assert OracleStats(corpus, n_max=3).es("wq") == pytest.approx(
        math.log(2.0))
    assert "wq" not in scored


def test_longest_counted_grams_are_only_neighbours():
    cfg = MinerConfig(n_min=2, n_max=3, min_frequency=0)
    stats = collect_stats(["abcdab"] * 5, cfg)
    assert stats.counts["abcd"] == 5
    assert "abcda" not in stats.counts
    doc_freq = by_text(stats).doc_freq
    assert max(map(len, doc_freq)) == 3
    assert "abcd" not in doc_freq
    scored = {c.text for c in score_candidates(stats)}
    assert max(map(len, scored)) == 3
    assert "abcd" not in scored


def test_scores_match_oracle_on_random_corpora():
    rng = random.Random(5)
    alphabet = "abcdefg,.x"
    for _ in range(10):
        corpus = ["".join(rng.choice(alphabet)
                          for _ in range(rng.randint(1, 30)))
                  for _ in range(rng.randint(2, 40))]
        corpus = [s for s in corpus if s.strip(",.")] or ["ab"]
        cfg = MinerConfig(n_min=2, n_max=4, min_frequency=0)
        stats = collect_stats(corpus, cfg)
        oracle = OracleStats(corpus, n_max=4)
        assert stats.num_docs == oracle.num_docs
        for cand in score_candidates(stats):
            g = cand.text
            assert cand.frequency == oracle.counts[g]
            assert cand.mis == pytest.approx(oracle.mis(g), abs=1e-9)
            assert cand.es == pytest.approx(oracle.es(g), abs=1e-9)
            assert cand.tfidf == pytest.approx(oracle.tfidf(g), abs=1e-9)
            assert 0.5 <= cand.p_val <= 1 / (1 + math.exp(-3.0))


def test_scores_invariant_to_sentence_order():
    rng = random.Random(6)
    corpus = ["".join(rng.choice("abcde") for _ in range(12))
              for _ in range(30)]
    cfg = MinerConfig(min_frequency=0)
    base = {c.text: c for c in
            score_candidates(collect_stats(corpus, cfg))}
    shuffled = corpus[:]
    rng.shuffle(shuffled)
    perm = {c.text: c for c in
            score_candidates(collect_stats(shuffled, cfg))}
    assert base == perm


def test_normalization_extremes():
    # one candidate dominating every score reaches sigmoid(3); the one
    # pinned to every minimum stays at sigmoid(0). 'ab' sees w, x, y and
    # z on each side, 'cd' stands alone; at the floor 4 the bigrams
    # around 'ab' are not candidates
    corpus = [l + "ab" + r for l in "wxyz" for r in "wxyz"] + ["cd"] * 50
    scored = _scored(corpus, MinerConfig(n_max=2, min_frequency=4))
    assert set(scored) == {"ab", "cd"}
    ab, cd = scored["ab"], scored["cd"]
    assert (ab.frequency, cd.frequency) == (16, 50)
    assert ab.mis > cd.mis and ab.tfidf > cd.tfidf
    assert ab.es == pytest.approx(math.log(4.0))
    assert cd.es == 0.0
    assert ab.p_val == 1 / (1 + math.exp(-3.0))
    assert cd.p_val == 0.5


def build_cohesion_corpus():
    """One planted word in rotating contexts plus free-standing filler.

    The planted 'qzj' maximizes all three statistics; its substrings tie
    at every minimum; filler adjacencies stay below the frequency floor.
    """
    left = [chr(0x4E00 + i) for i in range(20)]
    right = [chr(0x4E20 + i) for i in range(20)]
    filler = [chr(0x4E40 + i) for i in range(40)]
    steps = [1, 3, 7, 9, 11, 13, 17, 19, 21, 23, 27, 29, 31, 33, 37, 39]
    corpus = []
    for k in range(200):
        corpus.append(left[k % 20] + "qzj" + right[(7 * k + 3) % 20])
    for i in range(200):
        step = steps[i % 16]
        corpus.append("".join(filler[(13 * i + j * step) % 40]
                              for j in range(12)))
    return corpus


def test_planted_word_is_mined_alone():
    corpus = build_cohesion_corpus()
    collection = mine(corpus, MinerConfig())
    assert set(collection.entries) == {"qzj"}
    entry = collection.entries["qzj"]
    assert entry.frequency == 200
    assert entry.p_val == pytest.approx(1 / (1 + math.exp(-3.0)))
    assert entry.es == pytest.approx(math.log(20.0))


def test_planted_word_substrings_rejected():
    corpus = build_cohesion_corpus()
    cfg = MinerConfig()
    scored = {c.text: c for c in
              score_candidates(collect_stats(corpus, cfg))}
    assert set(scored) == {"qzj", "qz", "zj"}
    assert scored["qz"].p_val == pytest.approx(0.5)
    assert scored["zj"].p_val == pytest.approx(0.5)


def test_mine_respects_frequency_floor():
    corpus = build_cohesion_corpus()
    strict = mine(corpus, MinerConfig(min_frequency=200))
    assert len(strict) == 0  # floor is strict
    loose = mine(corpus, MinerConfig(min_frequency=199))
    assert set(loose.entries) == {"qzj"}


def test_collection_interface():
    corpus = build_cohesion_corpus()
    collection = mine(corpus, MinerConfig())
    assert "qzj" in collection
    assert "qz" not in collection
    assert len(collection) == 1
    assert collection.max_word_len == 3
    assert WordCollection({}).max_word_len == 0


def test_lexicon_tsv_roundtrip(tmp_path):
    collection = mine(build_cohesion_corpus(), MinerConfig())
    blob = lexicon_to_tsv(collection)
    assert blob.decode("utf-8").startswith("qzj\t200\t")
    p = tmp_path / "lex.tsv"
    save_lexicon(p, collection)
    loaded = load_lexicon(p)
    assert set(loaded.entries) == set(collection.entries)
    assert loaded.max_word_len == 3
    assert lexicon_to_tsv(loaded) == blob


# SHA-256 of the lexicon TSV mined from the acceptance corpus. The lexicon
# is part of the pipeline's reproducible output, so a miner change that
# alters one byte of it fails here.
GOLDEN_LEXICON_SHA256 = [
    (MINE_CFG,
     "208bdd464b3bd107a8cd297cd34d3457ccbfa50dd00129b1a020c7ecf1fa4026"),
    ({},  # MinerConfig() defaults, n_max 6
     "208bdd464b3bd107a8cd297cd34d3457ccbfa50dd00129b1a020c7ecf1fa4026"),
]


@pytest.mark.parametrize("cfg, digest", GOLDEN_LEXICON_SHA256,
                         ids=["MINE_CFG", "default"])
def test_golden_lexicon_bytes(cfg, digest):
    raw, _ = toylang.target_mining_corpus()
    blob = lexicon_to_tsv(mine(raw, MinerConfig(**cfg)))
    assert hashlib.sha256(blob).hexdigest() == digest


# SHA-256 of every candidate row (text, frequency and the repr of each
# score) on the acceptance corpus. The lexicon TSV keeps six significant
# digits, so a change in the low bits of a score shows only here.
GOLDEN_CANDIDATE_SHA256 = [
    (MinerConfig(),  # 2,874 candidates
     "21ab30090f4c47ef1873751eaae1bf343b889755fedbb1a020358301ba92407c"),
    (MinerConfig(min_frequency=9, stop_words=frozenset({"\u4e00"})),
     "45b7761eb568a8c863c63676c3139a039ec68e5c1eaba24e2b09f9e6a337a52f"),
]


@pytest.fixture(scope="module")
def mining_corpus():
    return toylang.target_mining_corpus()[0]


@pytest.mark.parametrize("cfg, digest", GOLDEN_CANDIDATE_SHA256,
                         ids=["default", "floor-9-stop-word"])
def test_golden_candidate_scores(mining_corpus, cfg, digest):
    h = hashlib.sha256()
    for c in score_candidates(collect_stats(mining_corpus, cfg)):
        h.update(f"{c.text}\t{c.frequency}\t{c.mis!r}\t{c.es!r}\t"
                 f"{c.tfidf!r}\t{c.p_val!r}\n".encode("utf-8"))
    assert h.hexdigest() == digest


def test_default_floor_prunes_counting(mining_corpus):
    # counting every gram of length 1..7 records 329,042 of them
    stats = collect_stats(mining_corpus, MinerConfig())
    assert len(stats.counts) < 100_000


@pytest.mark.parametrize("corpus, cfg", [
    (["，。！", " ,. ", "\t"], MinerConfig()),       # only boundaries
    (["ab cd,ef"] * 20, MinerConfig(n_min=3, min_frequency=0)),  # short runs
    (["ab,cd"] * 20, MinerConfig(n_max=6, min_frequency=0)),  # n_max > run
    (["a"], MinerConfig()),                             # one character
], ids=["boundaries", "short-runs", "long-n-max", "one-char"])
def test_degenerate_corpora_mine_empty_lexicons(corpus, cfg):
    collection = mine(corpus, cfg)
    assert len(collection) == 0
    assert lexicon_to_tsv(collection) == b""
    assert collection.max_word_len == 0


def test_load_lexicon_rejects_garbage(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("word\tnot-a-number\t1\t1\t1\t1\n")
    with pytest.raises(DecodeError) as e:
        load_lexicon(p)
    assert "line 1" in str(e.value)
    p.write_text("word\t3\t1\t1\t1\n")  # five columns
    with pytest.raises(DecodeError):
        load_lexicon(p)
    p.write_text("ab\t3\t1\t1\t1\t1\n\nab\t5\t1\t1\t1\t1\n")  # not a silent 5
    with pytest.raises(DecodeError, match="line 3: repeated word 'ab'"):
        load_lexicon(p)
    # rows mine never writes: an empty word, whitespace inside a word, a
    # negative frequency, a non-finite score
    for row, why in [("\t3\t1\t1\t1\t1", "word '' is empty"),
                     ("a b\t3\t1\t1\t1\t1", "word 'a b'"),
                     ("a\u3000b\t3\t1\t1\t1\t1", "holds whitespace"),
                     ("ab\t-3\t1\t1\t1\tnan", "negative frequency -3"),
                     ("ab\t3\t1\t1\t1\tnan", "not finite"),
                     ("ab\t3\tinf\t1\t1\t1", "not finite")]:
        p.write_text("cd\t4\t1\t1\t1\t1\n" + row + "\n")
        with pytest.raises(DecodeError, match=f"line 2: bad lexicon row "
                           rf"\(.*{why}"):
            load_lexicon(p)


def test_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(n_min=1)
    with pytest.raises(ValueError):
        MinerConfig(n_min=5, n_max=4)
    with pytest.raises(ValueError):
        MinerConfig(p_val_threshold=1.0)
    with pytest.raises(ValueError):
        MinerConfig(min_frequency=-1)
    # an empty stop word would split every run into single characters
    with pytest.raises(ValueError, match="stop word ''"):
        MinerConfig(stop_words=frozenset({""}))
    with pytest.raises(ValueError, match="stop word 3"):
        MinerConfig(stop_words=["ab", 3])
    cfg = MinerConfig(stop_words=["ab", "ab", "c"])
    assert cfg.stop_words == frozenset({"ab", "c"})
    assert hash(cfg) == hash(MinerConfig(stop_words=frozenset({"ab", "c"})))
    # one string would mean its characters: the stop words 'a' and 'b'
    with pytest.raises(ValueError, match="stop_words"):
        MinerConfig(stop_words="ab")


@pytest.mark.parametrize("field, value", [
    ("n_max", 4.0), ("n_min", 2.5), ("min_frequency", True),
])
def test_config_rejects_non_integer_sizes(field, value):
    # n_max=4.0 used to pass here and fail inside mine with a TypeError
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        MinerConfig(**{field: value})
