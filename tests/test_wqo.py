import itertools
import random

import pytest

from azenum.errors import CapacityError, InputError
from azenum.wqo import (
    MAX_PAIR_LETTERS,
    MAX_PAIR_WORDS,
    Embedding,
    Word,
    block_split,
    capped_words,
    column_word,
    decode_column_embedding,
    find_increasing_pair,
    format_word,
    is_star_embedded,
    is_subword,
    last_appearance_order,
    parse_word,
    rightmost_embedding,
)
from oracles import brute_covers, brute_star, brute_subword, dp_star, star_subwords


def w(text):
    return Word(tuple(text))


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            yield Word(letters)


def image_of(emb):
    return None if emb is None else emb.image


def compose(inner, outer):
    """inner into the middle word, then outer middle-into-target."""
    return Embedding(tuple(outer.image[p] for p in inner.image))


# -- deletion order ----------------------------------------------------------


def test_subword_examples():
    assert is_subword(w("ab"), w("axb")).image == (0, 2)
    assert is_subword(w("ba"), w("ab")) is None
    assert is_subword(w(""), w("xyz")).image == ()
    assert is_subword(w(""), w("")).image == ()


def test_subword_matches_brute_force():
    rng = random.Random(30)
    for _ in range(300):
        w1 = Word(tuple(rng.choice("abc") for _ in range(rng.randint(0, 5))))
        w2 = Word(tuple(rng.choice("abc") for _ in range(rng.randint(0, 7))))
        got = is_subword(w1, w2)
        assert (got is not None) == (brute_subword(w1, w2) is not None)
        if got is not None:
            assert got.is_subword_witness(w1, w2)


def test_subword_witnesses_are_least_and_greatest_exhaustive():
    # every position combination, in lexicographic order, witnesses the
    # word it spells: is_subword must return the first one (as
    # brute_subword does) and rightmost_embedding the last one
    words = list(all_words("abc", 6))
    for w2 in words:
        first, last = {}, {}
        for k in range(len(w2) + 1):
            for combo in itertools.combinations(range(len(w2)), k):
                spelled = tuple(w2.letters[p] for p in combo)
                first.setdefault(spelled, combo)
                last[spelled] = combo
        for w1 in words:
            if len(w1) > len(w2):
                break
            assert image_of(is_subword(w1, w2)) == first.get(w1.letters), (w1, w2)
            assert image_of(rightmost_embedding(w1, w2)) == last.get(w1.letters), (w1, w2)
            if len(w2) <= 4:
                assert brute_subword(w1, w2) == first.get(w1.letters), (w1, w2)


def test_rightmost_embedding_dominates():
    rng = random.Random(31)
    for _ in range(200):
        w2 = Word(tuple(rng.choice("ab") for _ in range(rng.randint(1, 7))))
        n = rng.randint(1, len(w2))
        for combo in itertools.combinations(range(len(w2)), n):
            w1 = Word(tuple(w2.letters[p] for p in combo))
            rm = rightmost_embedding(w1, w2)
            assert all(rm.image[i] >= combo[i] for i in range(n))


# -- strong order ------------------------------------------------------------


def test_star_examples():
    assert is_star_embedded(w("ab"), w("aab")).image == (1, 2)
    assert is_star_embedded(w("ab"), w("aba")) is None
    for word in [w(""), w("a"), w("abcab")]:
        e = is_star_embedded(word, word)
        assert e.image == tuple(range(len(word)))


def test_star_empty_word_only_below_empty():
    assert is_star_embedded(w(""), w("")) is not None
    assert is_star_embedded(w(""), w("a")) is None


def test_star_implies_subword():
    rng = random.Random(32)
    for _ in range(500):
        w1 = Word(tuple(rng.choice("ab") for _ in range(rng.randint(0, 4))))
        w2 = Word(tuple(rng.choice("ab") for _ in range(rng.randint(0, 7))))
        e = is_star_embedded(w1, w2)
        if e is not None:
            assert is_subword(w1, w2) is not None
            assert e.is_subword_witness(w1, w2)


def test_star_decision_equals_brute_force_exhaustive():
    words = list(all_words("ab", 6))
    for w2 in words:
        for w1 in words:
            if len(w1) > len(w2):
                continue
            got = is_star_embedded(w1, w2)
            want = brute_star(w1, w2)
            assert (got is None) == (want is None), (w1, w2)
            if got is not None:
                assert got.is_star_witness(w1, w2)


def test_dp_star_equals_brute_force_exhaustive():
    # the table oracle against the search over injections: every pair of
    # words over {a, b} up to length 6, and every word over {a, b, c} up to
    # length 6 against each of its distinct subsequences
    words = list(all_words("ab", 6))
    pairs = [(w1, w2) for w2 in words for w1 in words]
    for w2 in all_words("abc", 6):
        subsequences = {
            tuple(w2.letters[p] for p in image)
            for size in range(len(w2) + 1)
            for image in itertools.combinations(range(len(w2)), size)
        }
        pairs += [(Word(letters), w2) for letters in subsequences]
    for w1, w2 in pairs:
        assert dp_star(w1, w2) == (brute_star(w1, w2) is not None), (w1, w2)


def test_star_subwords_equal_brute_force_exhaustive():
    # the search from the right against the search over injections, on the
    # pairs of the table oracle's test: every pair of words over {a, b} up
    # to length 6, and every word over {a, b, c} up to length 6 against each
    # of its distinct subsequences and each word the search returns
    words = list(all_words("ab", 6))
    for w2 in words:
        strong = star_subwords(w2)
        for w1 in words:
            assert (w1.letters in strong) == (brute_star(w1, w2) is not None), (w1, w2)
    for w2 in all_words("abc", 6):
        strong = star_subwords(w2)
        subsequences = {
            tuple(w2.letters[p] for p in image)
            for size in range(len(w2) + 1)
            for image in itertools.combinations(range(len(w2)), size)
        }
        for letters in subsequences | strong:
            want = brute_star(Word(letters), w2) is not None
            assert (letters in strong) == want, (letters, w2)


def test_star_witness_equals_covering_definition():
    # every subword witness, covering or not: each image of each w2 over
    # {a, b, c} up to length 5, with w1 read off the image
    for w2 in all_words("abc", 5):
        for size in range(len(w2) + 1):
            for image in itertools.combinations(range(len(w2)), size):
                w1 = Word(tuple(w2.letters[p] for p in image))
                emb = Embedding(image)
                assert emb.is_subword_witness(w1, w2)
                assert emb.is_star_witness(w1, w2) == brute_covers(image, w2), (w2, image)


def test_star_decision_equals_brute_force_sampled_3_letters():
    rng = random.Random(33)
    for _ in range(2000):
        w1 = Word(tuple(rng.choice("abc") for _ in range(rng.randint(0, 6))))
        w2 = Word(tuple(rng.choice("abc") for _ in range(rng.randint(0, 8))))
        assert (is_star_embedded(w1, w2) is None) == (brute_star(w1, w2) is None)


def test_star_partial_order_properties():
    words = list(all_words("ab", 4))
    below = {}
    for w1 in words:
        for w2 in words:
            e = is_star_embedded(w1, w2)
            if e is not None:
                below[(w1, w2)] = e
    # antisymmetry
    for (w1, w2) in below:
        if (w2, w1) in below:
            assert w1 == w2
    # transitivity with witness composition
    for (w1, w2), e12 in below.items():
        for w3 in words:
            if (w2, w3) in below:
                composed = compose(e12, below[(w2, w3)])
                assert composed.is_star_witness(w1, w3)


# -- column coding -----------------------------------------------------------


def test_block_split_example():
    blocks, trailing = block_split(w("abab"))
    assert blocks == [tuple("ab"), tuple("a")]
    assert trailing == "b"
    blocks, trailing = block_split(w("ab"))
    assert blocks == [(), ("a",)]
    assert trailing == "b"


def test_block_split_reassembles():
    rng = random.Random(34)
    for _ in range(200):
        word = Word(tuple(rng.choice("abc") for _ in range(rng.randint(1, 9))))
        blocks, trailing = block_split(word)
        assert tuple(x for b in blocks for x in b) + (trailing,) == word.letters


def test_column_word_heights():
    col = column_word(w("abab"))
    assert len(col) == 2
    assert col.letters[0] == ("a", "a")
    assert col.letters[1][0] == "b"
    assert repr(col.letters[1][1]) == "x"  # padding sentinel


def test_coding_soundness_random():
    # whenever the coded words compare in the deletion order, the decoded
    # witness is a valid strong-order witness
    rng = random.Random(35)
    hits = 0
    for _ in range(3000):
        w1 = Word(tuple(rng.choice("ab") for _ in range(rng.randint(1, 5))))
        w2 = Word(tuple(rng.choice("ab") for _ in range(rng.randint(1, 9))))
        if not w1.letters or not w2.letters:
            continue
        sig = (frozenset(w1.letters), last_appearance_order(w1))
        if sig != (frozenset(w2.letters), last_appearance_order(w2)):
            continue
        fprime = is_subword(column_word(w1), column_word(w2))
        if fprime is None:
            continue
        emb = decode_column_embedding(w1, w2, fprime)
        assert emb.is_star_witness(w1, w2)
        hits += 1
    assert hits > 50


# -- pair finders ------------------------------------------------------------


def test_higman_pair_example():
    r = find_increasing_pair([w("b"), w("ab"), w("aab")], "higman")
    assert (r.i, r.j) == (0, 1)
    assert r.embedding.is_subword_witness(w("b"), w("ab"))
    # "bac" dominates the counts of "ab"/"ba" and of "c": the least i
    # wins, although the group of "ab" and "ba" was started first
    r = find_increasing_pair([w("ab"), w("c"), w("ba"), w("bac")], "higman")
    assert (r.i, r.j, r.embedding.image) == (1, 3, (2,))


def test_star_pair_examples():
    r = find_increasing_pair([w("a"), w("aa")], "star")
    assert (r.i, r.j) == (0, 1)
    assert r.embedding.image == (1,)

    r = find_increasing_pair([w("ab"), w("ba"), w("abab")], "star")
    assert (r.i, r.j) == (0, 2)
    assert r.embedding.image == (2, 3)

    r = find_increasing_pair([w(""), w("")], "star")
    assert (r.i, r.j, r.embedding) == (0, 1, Embedding(()))
    # the empty word covers nothing, so it lies below no nonempty word
    assert find_increasing_pair([w(""), w("a")], "star") is None


def first_star_pair(words):
    """The least (j, i), j-major, with words[i] strongly below words[j]."""
    for j in range(len(words)):
        for i in range(j):
            if brute_star(words[i], words[j]) is not None:
                return i, j
    return None


def test_star_pair_is_first_pair_by_brute_force():
    rng = random.Random(37)
    streams = [
        [
            Word(tuple(rng.choice("abc") for _ in range(rng.randint(0, 6))))
            for _ in range(rng.randint(0, 25))
        ]
        for _ in range(300)
    ]
    streams += [list(s) for s in itertools.product(all_words("ab", 3), repeat=3)]
    found = 0
    for words in streams:
        r = find_increasing_pair(words, "star")
        want = first_star_pair(words)
        if want is None:
            assert r is None, words
            continue
        found += 1
        assert (r.i, r.j) == want, words
        assert r.embedding.is_star_witness(words[r.i], words[r.j])
    assert found > 100


def first_higman_pair(words):
    """The least (j, i), j-major, with words[i] a subword of words[j]."""
    for j in range(len(words)):
        for i in range(j):
            if brute_subword(words[i], words[j]) is not None:
                return i, j
    return None


def test_higman_pair_is_first_pair_by_brute_force():
    # mixed lengths, so a newcomer often dominates several letter-count
    # groups and the least i across them decides
    rng = random.Random(38)
    streams = [
        [
            Word(tuple(rng.choice("abc") for _ in range(rng.randint(lo, lo + 5))))
            for _ in range(rng.randint(0, 25))
        ]
        for lo in (0, 2, 3)
        for _ in range(300)
    ]
    streams += [list(s) for s in itertools.product(all_words("ab", 3), repeat=3)]
    found = 0
    for words in streams:
        r = find_increasing_pair(words, "higman")
        want = first_higman_pair(words)
        if want is None:
            assert r is None, words
            continue
        found += 1
        assert (r.i, r.j) == want, words
        assert r.embedding.image == brute_subword(words[r.i], words[r.j]), words
    assert found > 500


def test_pair_not_found_on_exhausted_stream():
    assert find_increasing_pair([w("ab"), w("ba")], "star") is None
    assert find_increasing_pair([], "higman") is None
    with pytest.raises(InputError):
        find_increasing_pair([], "nope")


def test_star_pair_terminates_on_random_streams():
    rng = random.Random(36)
    for _ in range(20):
        def stream():
            while True:
                yield Word(tuple(rng.choice("ab") for _ in range(rng.randint(1, 6))))

        capped = itertools.islice(stream(), 2000)
        r = find_increasing_pair(capped, "star")
        assert r is not None and r.i < r.j


def test_capped_words_reads_one_word_past_the_cap():
    # an endless stream is refused after MAX_PAIR_WORDS + 1 reads
    seen = []
    endless = (seen.append(1) or w("a") for _ in itertools.count())
    with pytest.raises(CapacityError):
        capped_words(endless)
    assert len(seen) == MAX_PAIR_WORDS + 1
    at_cap = [Word(("a",) * (MAX_PAIR_LETTERS // MAX_PAIR_WORDS))] * MAX_PAIR_WORDS
    assert capped_words(iter(at_cap)) == at_cap
    with pytest.raises(CapacityError):
        capped_words([Word(("a",) * (MAX_PAIR_LETTERS + 1))])


def test_higman_pair_frontier_is_antichain():
    words = [w("ba"), w("ab"), w("bb"), w("aabb")]
    r = find_increasing_pair(words, "higman")
    assert (r.i, r.j) == (1, 3)


# -- text interface ----------------------------------------------------------


def test_parse_and_format_word():
    word = parse_word("a,b,a")
    assert word.letters == ("a", "b", "a")
    assert format_word(word) == "a,b,a"
    assert parse_word("") == Word(())
