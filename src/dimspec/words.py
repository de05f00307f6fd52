"""Finite binary words.

Words are plain Python strings over the alphabet {'0', '1'}.  A word can
encode a finite set of symbol indices: position i of the word (1-based)
is '1' exactly when symbol i belongs to the set.
"""

from __future__ import annotations

from .errors import ConfigError, require_int

MAX_WORD_LENGTH = 20


def validate_word(word: str) -> str:
    if not isinstance(word, str):
        raise ConfigError(f"word must be a str of 0/1, got {type(word).__name__}")
    if len(word) > MAX_WORD_LENGTH:
        raise ConfigError(f"word length {len(word)} exceeds cap {MAX_WORD_LENGTH}")
    if any(c not in "01" for c in word):
        raise ConfigError(f"word may contain only '0' and '1': {word!r}")
    return word


def longest_common_prefix(a: str, b: str) -> str:
    """Longest common prefix of two binary words."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return a[:n]


def subset_of_word(word: str) -> tuple[int, ...]:
    """Decode a binary word into the sorted symbol indices it selects.

    Position i (1-based) selects symbol i when it carries '1'.  The
    empty word decodes to the empty set.
    """
    validate_word(word)
    return tuple(i + 1 for i, c in enumerate(word) if c == "1")


def word_of_subset(indices) -> str:
    """Encode a finite set of indices as the minimal selecting word.

    Inverse of :func:`subset_of_word` up to trailing zeros: the result
    never ends in '0'.
    """
    try:
        idx = sorted({require_int(a, "symbol index") for a in indices})
    except TypeError:
        raise ConfigError(f"indices must be a collection of integers, got {indices!r}") from None
    if not idx:
        return ""
    if idx[0] < 1:
        raise ConfigError(f"symbol indices start at 1, got {idx[0]}")
    length = idx[-1]
    if length > MAX_WORD_LENGTH:
        raise ConfigError(
            f"index {length} needs a word longer than cap {MAX_WORD_LENGTH}"
        )
    marks = set(idx)
    return "".join("1" if i in marks else "0" for i in range(1, length + 1))
