import numpy as np
import pytest

from modsym.modgroup import (
    F2Word,
    G1,
    G1_INV,
    G2,
    G2_INV,
    ModWord,
    enumerate_f2,
    f2_count,
    f2_from_string,
    f2_inverse,
    f2_levels,
    f2_mul,
    f2_names,
    f2_rng,
    f2_sample,
    f2_to_mod,
    mod_mul,
    normalize,
    parity_abelianization,
    random_f2_geodesic,
)


def test_normalize_relators():
    assert normalize("aa").is_identity
    assert normalize("bbb").is_identity
    assert normalize("bBa") == normalize("a")


def test_normalize_mixed_powers():
    # b b a a b^2 = b * b * b^2 = b^4 = b
    assert normalize("bbaaB") == ModWord(("b",))
    assert str(normalize("b b a a b²")) == "b"


def test_normalize_accepts_inverse_spellings():
    assert normalize("b^-1") == ModWord(("B",))
    assert normalize("b⁻¹") == ModWord(("B",))


def test_normalize_idempotent(rng):
    for _ in range(300):
        raw = "".join(rng.choice(list("abB"), size=rng.integers(0, 14)))
        w = normalize(raw)
        assert normalize(w.syllables) == w


def test_normalize_associativity(rng):
    for _ in range(100):
        raws = ["".join(rng.choice(list("abB"), size=rng.integers(0, 8)))
                for _ in range(3)]
        u, v, w = (normalize(r) for r in raws)
        assert mod_mul(mod_mul(u, v), w) == mod_mul(u, mod_mul(v, w))


def mod_inverse(w: ModWord) -> ModWord:
    inv = {"a": "a", "b": "B", "B": "b"}
    return ModWord(tuple(inv[s] for s in reversed(w.syllables)))


def test_mod_inverse(rng):
    for _ in range(100):
        w = normalize("".join(rng.choice(list("abB"), size=rng.integers(0, 10))))
        assert mod_mul(w, mod_inverse(w)).is_identity


def test_modword_rejects_non_normal():
    with pytest.raises(ValueError):
        ModWord(("a", "a"))
    with pytest.raises(ValueError):
        ModWord(("b", "B"))


def test_parity_examples():
    assert parity_abelianization(normalize("a")) == (1, 0)
    assert parity_abelianization(normalize("baba")) == (0, 2)
    assert parity_abelianization(normalize("baBa")) == (0, 0)


def test_parity_homomorphism(rng):
    for _ in range(200):
        w1 = normalize("".join(rng.choice(list("abB"), size=rng.integers(0, 10))))
        w2 = normalize("".join(rng.choice(list("abB"), size=rng.integers(0, 10))))
        p1, p2 = parity_abelianization(w1), parity_abelianization(w2)
        p12 = parity_abelianization(mod_mul(w1, w2))
        assert p12 == ((p1[0] + p2[0]) % 2, (p1[1] + p2[1]) % 3)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: ModWord(("c",)), "invalid syllable", id="modword-letter"),
    pytest.param(lambda: F2Word((7,)), "invalid letter", id="f2word-letter"),
    pytest.param(lambda: list(f2_levels(-1)), "max_len must be >= 0", id="levels-negative"),
    pytest.param(lambda: random_f2_geodesic(-1, 0), "length must be >= 0",
                 id="geodesic-negative"),
])
def test_modgroup_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_f2_word_reduced_validation():
    with pytest.raises(ValueError):
        F2Word((G1, G1_INV))
    F2Word((G1, G1))


def test_f2_to_mod_examples():
    assert f2_to_mod(F2Word()).is_identity
    assert f2_to_mod(f2_mul(F2Word((G1,)), F2Word((G1_INV,)))).is_identity
    lhs = f2_to_mod(F2Word((G1, G2)))
    assert lhs == normalize("baBaBaba")


def test_f2_to_mod_lands_in_index_six_subgroup():
    for w in enumerate_f2(4):
        assert parity_abelianization(f2_to_mod(w)) == (0, 0)


def test_f2_to_mod_injective_up_to_len8():
    seen = {}
    for w in enumerate_f2(8):
        key = f2_to_mod(w).syllables
        assert key not in seen, f"collision {w} vs {seen[key]}"
        seen[key] = w


def test_enumeration_counts():
    words = list(enumerate_f2(1))
    assert len(words) == 4
    words = list(enumerate_f2(3))
    assert len(words) == 52
    for k in range(1, 9):
        assert sum(1 for w in enumerate_f2(k) if len(w) == k) == f2_count(k)


def test_enumeration_order_deterministic():
    first = [str(w) for w in enumerate_f2(2)]
    assert first[:4] == ["x", "X", "y", "Y"]
    assert first == [str(w) for w in enumerate_f2(2)]


def test_f2_inverse_and_mul():
    w = f2_from_string("xyX")
    assert f2_mul(w, f2_inverse(w)) == F2Word()
    assert str(f2_inverse(w)) == "xYX"


@pytest.mark.parametrize("word", ["xq", "a", "x y"])
def test_f2_from_string_rejects_foreign_letters(word):
    with pytest.raises(ValueError, match="alphabet is x, X, y, Y"):
        f2_from_string(word)


def test_random_geodesic_prefixes():
    words = random_f2_geodesic(7, seed=42)
    assert len(words) == 8
    for n, w in enumerate(words):
        assert len(w) == n
        assert w.letters == words[-1].letters[:n]
    assert [w.letters for w in random_f2_geodesic(7, seed=42)] == [w.letters for w in words]
    assert random_f2_geodesic(7, seed=43)[-1].letters != words[-1].letters


def test_random_geodesic_prefix_stability():
    short = random_f2_geodesic(5, seed=7)
    long = random_f2_geodesic(9, seed=7)
    assert long[5].letters == short[5].letters


# last word of random_f2_geodesic(length, seed), as drawn by the per-letter
# sampler that f2_sample replaced: the seeded draws must not change
GEODESIC_LETTERS = {
    0: {0: (), 1: (0,), 10: (0, 0, 2, 0, 2, 0, 0, 2, 1, 2)},
    1: {0: (), 1: (1,), 10: (1, 1, 3, 3, 1, 1, 2, 0, 3, 3)},
    7: {0: (), 1: (0,), 10: (0, 3, 3, 0, 0, 2, 2, 1, 2, 0)},
    42: {0: (), 1: (1,), 10: (1, 3, 1, 1, 3, 3, 1, 2, 1, 2)},
    2**31 - 1: {0: (), 1: (0,), 10: (0, 0, 0, 2, 2, 0, 3, 3, 0, 2)},
}


@pytest.mark.parametrize("seed", sorted(GEODESIC_LETTERS))
def test_random_geodesic_pinned(seed):
    for length, letters in GEODESIC_LETTERS[seed].items():
        assert random_f2_geodesic(length, seed)[-1].letters == letters


@pytest.mark.parametrize("seed", [0, 3, 2**31 - 1])
def test_f2_sample_row_is_the_seeded_geodesic(seed):
    for n in (0, 1, 2, 9):
        row = f2_sample(f2_rng(seed), 1, n)[0]
        assert tuple(row.tolist()) == random_f2_geodesic(n, seed)[-1].letters


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_f2_rng_rejects_seeds_outside_the_key_range(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        f2_rng(seed)
    assert f2_rng(2**64 - 1).integers(4) in range(4)


def test_f2_sample_draws_reduced_words():
    level = f2_sample(f2_rng(5), 300, 7)
    assert level.shape == (300, 7) and level.dtype == np.int64
    assert ((level[:, 1:] ^ 1) != level[:, :-1]).all()
    assert f2_sample(f2_rng(5), 4, 0).shape == (4, 0)


def _gather_sample(rng, m, n):
    """f2_sample as it was drawn before: each later column gathered from
    the table of allowed continuations."""
    allowed = np.array([[k for k in range(4) if k != p ^ 1] for p in range(4)])
    level = np.empty((m, n), dtype=np.int64)
    if n:
        level[:, 0] = rng.integers(4, size=m)
    for col in range(1, n):
        level[:, col] = allowed[level[:, col - 1], rng.integers(3, size=m)]
    return level


@pytest.mark.parametrize("seed", [0, 3, 11, 2**40 + 1])
def test_f2_sample_is_the_gather_sampler(seed):
    rng, ref = f2_rng(seed), f2_rng(seed)
    for m, n in [(1, 1), (7, 5), (333, 9), (1000, 2), (4, 0), (4999, 10), (1, 31)]:
        assert np.array_equal(f2_sample(rng, m, n), _gather_sample(ref, m, n))


@pytest.mark.parametrize("max_len", range(7))
def test_f2_levels_extend_parent_rows(max_len):
    levels = list(f2_levels(max_len))
    assert [level.shape for level in levels] == [
        (f2_count(n), n) for n in range(1, max_len + 1)]
    assert all(level.dtype == np.int64 for level in levels)
    for parent, level in zip(levels, levels[1:]):
        assert np.array_equal(level[:, :-1], parent[np.arange(len(level)) // 3])
    rows = [tuple(row) for level in levels for row in level.tolist()]
    assert rows == [w.letters for w in enumerate_f2(max_len)]


def test_f2_names_spell_rows():
    level = np.array([[G1, G2, G1_INV], [G2, G2, G2]])
    assert f2_names(level) == ["xyX", "yyy"]
    assert f2_names(np.empty((2, 0), dtype=np.int64)) == ["e", "e"]
    (words,) = [level for level in f2_levels(3) if level.shape[1] == 3]
    assert f2_names(words) == [str(F2Word(tuple(row))) for row in words.tolist()]


def test_constant_generator_geodesic():
    words = [F2Word((G2,) * n) for n in range(5)]
    assert [len(w) for w in words] == [0, 1, 2, 3, 4]
    assert all(f2_mul(w, words[1]) == nxt for w, nxt in zip(words, words[1:]))
    assert str(words[3]) == "yyy"


@pytest.mark.parametrize("max_len", [1, 2, 7])
def test_f2_index_of_levels_is_row_order(max_len, f2_index):
    for level in f2_levels(max_len):
        assert f2_index(level).dtype == np.int64
        assert np.array_equal(f2_index(level), np.arange(len(level)))


def test_f2_index_inverse_permutation_is_an_involution(f2_index):
    for level in f2_levels(6):
        perm = f2_index(level[:, ::-1] ^ 1)
        assert np.array_equal(perm[perm], np.arange(len(level)))
        assert np.array_equal(level[perm], level[:, ::-1] ^ 1)


def test_f2_index_of_prefixes(f2_index):
    n = 30
    level = f2_sample(f2_rng(5), 400, n)
    index = f2_index(level)
    for k in range(1, n + 1):
        assert np.array_equal(f2_index(level[:, :k]), index // 3 ** (n - k))


def test_f2_index_stops_at_int64(f2_index):
    """The last word of length 39 has index f2_count(39) - 1 < 2^63; the
    words of length 40 outrun int64."""
    assert f2_index(np.full((1, 39), G2_INV))[0] == f2_count(39) - 1
    with pytest.raises(ValueError, match="int64"):
        f2_index(np.full((1, 40), G2_INV))

