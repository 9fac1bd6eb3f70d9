"""Word algebra for the group <a, b | a^2 = b^3 = 1> and its subgroups.

Normal forms alternate between the letter ``a`` and a power of ``b``,
written ``b`` or ``B`` (= b^2 = b^{-1}).  The index-six subgroup
(trivial image in Z2 x Z3) is free of rank two, generated by

    g1 = b a b^2 a       g2 = b^2 a b a

F2 words are reduced letter sequences over {g1, g1^{-1}, g2, g2^{-1}},
encoded as the integers 0, 1, 2, 3 in that order (inverse = index ^ 1).
Batches of words of one length are int64 letter arrays of shape (m, n):
``f2_levels`` enumerates them and ``f2_sample`` draws them from
``f2_rng``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

G1, G1_INV, G2, G2_INV = 0, 1, 2, 3
F2_LETTER_NAMES = ("x", "X", "y", "Y")
_LETTERS = (G1, G1_INV, G2, G2_INV)

_A = "a"
_B = "b"
_B2 = "B"


@dataclass(frozen=True)
class ModWord:
    """Normal-form word: alternating syllables over {a} and {b, B}."""

    syllables: tuple[str, ...] = ()

    def __post_init__(self):
        prev = None
        for s in self.syllables:
            if s not in (_A, _B, _B2):
                raise ValueError(f"invalid syllable {s!r}")
            if prev == _A and s == _A:
                raise ValueError("two consecutive 'a' syllables")
            if prev in (_B, _B2) and s in (_B, _B2):
                raise ValueError("two consecutive b-syllables")
            prev = s

    def __str__(self):
        return "".join(self.syllables) if self.syllables else "e"

    def __len__(self):
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables


def _tokenize(raw) -> list[str]:
    """Accept a string over a/b/B (with optional b^2, b², b^-1, b⁻¹ forms)
    or any iterable of such tokens, and emit canonical a/b/B tokens."""
    if isinstance(raw, ModWord):
        return list(raw.syllables)
    if isinstance(raw, str):
        s = raw.replace("b²", "B").replace("b⁻¹", "B").replace("b^2", "B")
        s = s.replace("b^-1", "B").replace("b-1", "B")
        tokens = [ch for ch in s if not ch.isspace()]
    else:
        tokens = list(raw)
    for t in tokens:
        if t not in (_A, _B, _B2):
            raise ValueError(f"invalid token {t!r}; alphabet is a, b, B (= b^2)")
    return tokens


def normalize(raw) -> ModWord:
    """Reduce a raw word over {a, b, B} to normal form using a^2 = b^3 = 1."""
    stack: list[str] = []
    for tok in _tokenize(raw):
        if tok == _A:
            if stack and stack[-1] == _A:
                stack.pop()
            else:
                stack.append(_A)
        else:
            k = 1 if tok == _B else 2
            if stack and stack[-1] in (_B, _B2):
                k = (k + (1 if stack.pop() == _B else 2)) % 3
            if k == 1:
                stack.append(_B)
            elif k == 2:
                stack.append(_B2)
    return ModWord(tuple(stack))


def mod_mul(w1: ModWord, w2: ModWord) -> ModWord:
    return normalize(w1.syllables + w2.syllables)


def parity_abelianization(w: ModWord) -> tuple[int, int]:
    """Exponent sums modulo (2, 3); (0, *) detects the index-two subgroup,
    (0, 0) the free rank-two subgroup."""
    na = sum(1 for s in w.syllables if s == _A)
    nb = sum(1 if s == _B else 2 for s in w.syllables if s != _A)
    return na % 2, nb % 3


@dataclass(frozen=True)
class F2Word:
    """Reduced word in the free generators g1 = baBa and g2 = Baba."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        prev = None
        for k in self.letters:
            if k not in _LETTERS:
                raise ValueError(f"invalid letter {k!r}")
            if prev is not None and prev ^ 1 == k:
                raise ValueError("word is not reduced")
            prev = k

    def __str__(self):
        return "".join(F2_LETTER_NAMES[k] for k in self.letters) if self.letters else "e"

    def __len__(self):
        return len(self.letters)


def f2_from_string(s: str) -> F2Word:
    if s == "e":
        return F2Word()
    for ch in s:
        if ch not in F2_LETTER_NAMES:
            raise ValueError(f"invalid letter {ch!r}; alphabet is x, X, y, Y")
    return F2Word(tuple(F2_LETTER_NAMES.index(ch) for ch in s))


def f2_mul(w1: F2Word, w2: F2Word) -> F2Word:
    out = list(w1.letters)
    for k in w2.letters:
        if out and out[-1] ^ 1 == k:
            out.pop()
        else:
            out.append(k)
    return F2Word(tuple(out))


def f2_inverse(w: F2Word) -> F2Word:
    return F2Word(tuple(k ^ 1 for k in reversed(w.letters)))


_F2_SUBSTITUTION = {
    G1: (_B, _A, _B2, _A),      # b a b^2 a
    G1_INV: (_A, _B, _A, _B2),  # (b a b^2 a)^{-1}
    G2: (_B2, _A, _B, _A),      # b^2 a b a
    G2_INV: (_A, _B2, _A, _B),  # (b^2 a b a)^{-1}
}


def f2_to_mod(w: F2Word) -> ModWord:
    """Substitution homomorphism into the ambient group, then normalize."""
    tokens: list[str] = []
    for k in w.letters:
        tokens.extend(_F2_SUBSTITUTION[k])
    return normalize(tokens)


def f2_count(length: int) -> int:
    """Number of reduced words of exactly this length: 4 * 3^(k-1)."""
    if length <= 0:
        return 1 if length == 0 else 0
    return 4 * 3 ** (length - 1)


# allowed continuations (ascending) after each last letter
_ALLOWED = np.array([[k for k in _LETTERS if k != p ^ 1] for p in _LETTERS], dtype=np.int64)
# ASCII code of each letter's name, to spell letter arrays in one pass
_LETTER_BYTES = np.frombuffer("".join(F2_LETTER_NAMES).encode("ascii"), dtype=np.uint8)


def f2_levels(max_len: int) -> Iterator[np.ndarray]:
    """The reduced words of each length 1..max_len as an int64 letter
    array of shape (f2_count(n), n), rows in enumerate_f2 order: row i of
    length n + 1 extends row i // 3 by its allowed continuations."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    level = np.array(_LETTERS, dtype=np.int64)[:, None]
    for n in range(1, max_len + 1):
        if n > 1:
            child = _ALLOWED[level[:, -1]].reshape(-1)
            level = np.column_stack([np.repeat(level, 3, axis=0), child])
        yield level


def enumerate_f2(max_len: int) -> Iterator[F2Word]:
    """All reduced words of length 1..max_len, shorter first, each length in
    lexicographic order on (g1, g1^{-1}, g2, g2^{-1})."""
    for level in f2_levels(max_len):
        for row in level.tolist():
            yield F2Word(tuple(row))


def f2_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so scans are reproducible and shardable."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def f2_sample(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m uniformly random reduced words of length n as an int64 letter
    array of shape (m, n), drawn column by column: the first letters by
    one ``rng.integers(4, size=m)``, each later column by one
    ``rng.integers(3, size=m)`` over the allowed continuations: after a
    letter p, the draw r stands for r below p ^ 1 and for r + 1 from it
    on, which skips the inverse p ^ 1."""
    level = np.empty((m, n), dtype=np.int64)
    if n:
        level[:, 0] = rng.integers(4, size=m)
    for col in range(1, n):
        r = rng.integers(3, size=m)
        level[:, col] = r + (r >= level[:, col - 1] ^ 1)
    return level


def f2_names(level: np.ndarray) -> list[str]:
    """The rows of an (m, n) letter array spelled as strings ("e" for the
    empty word), from one lookup over the whole array."""
    m, n = level.shape
    text = _LETTER_BYTES[level].tobytes().decode("ascii")
    return [text[i * n:(i + 1) * n] or "e" for i in range(m)]


def random_f2_geodesic(length: int, seed: int) -> list[F2Word]:
    """Prefixes w_0 = e, w_1, ..., w_length of one reduced word: a discrete
    geodesic through the identity, reproducible from the seed."""
    if length < 0:
        raise ValueError("length must be >= 0")
    letters = tuple(f2_sample(f2_rng(seed), 1, length)[0].tolist())
    return [F2Word(letters[:n]) for n in range(length + 1)]
