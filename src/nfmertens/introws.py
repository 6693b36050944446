"""Text of blocks of non-negative int columns, formatted whole in numpy.

int_rows gives the UTF-8 bytes of the text csv.writer or the row template
of the JSON dump give row by row, with no Python call per row: the digits
come four at a time from a lookup table, each row is laid out in uint32
words with NUL as padding, and the NULs are then deleted. The counts and
ideals dumps import this module alone, so the other commands neither
compile nor hold it.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _digit_table() -> np.ndarray:
    """Four ASCII bytes as one uint32 word, indexed by r + 10000 * lead for
    0 <= r < 10^4: lead 0 gives the digits of r zero-padded to four, lead 1
    the same with its leading zeros as NUL (r = 0 keeps its last "0"), and
    index 20000 four NULs."""
    r = np.arange(10000)
    digits = np.stack([r // 1000, r // 100 % 10, r // 10 % 10, r % 10], axis=1)
    text = digits + ord("0")
    lead = np.where(np.cumsum(digits, axis=1) > 0, text, 0)
    lead[0, 3] = ord("0")
    words = np.concatenate([text, lead, np.zeros((1, 4), np.int64)])
    return words.astype(np.uint8).view(np.uint32).ravel()


def _digit_words(col: np.ndarray) -> list[np.ndarray]:
    """The decimal text of each value of col (non-negative ints of any int
    dtype) as columns of uint32 words, most significant first: four digits a
    word, NUL before the first digit."""
    table = _digit_table()
    top = int(col.max())
    col = col.astype(np.uint32 if top < 2 ** 32 else np.uint64)
    words = []
    for g in range(-(-len(str(top)) // 4)):
        q = col // 10000
        # one lead: nothing is left above this word; two: nor is anything in it
        index = col - q * 10000 + 10000 * (q == 0)
        if g:
            index += 10000 * (col == 0)
        words.append(table[index.astype(np.intp, copy=False)])
        col = q
    return words[::-1]


def _word_padded(sep: str) -> bytes:
    """The UTF-8 bytes of sep, NUL-padded to whole uint32 words."""
    raw = sep.encode()
    return raw + bytes(-len(raw) % 4)


def int_rows(cols, seps) -> bytearray:
    """The UTF-8 text seps[0] c0 seps[1] c1 ... seps[-1] of every row of the
    equal length int columns cols (see _digit_words), rows concatenated. Each
    row is laid out in whole uint32 words, each separator NUL-padded to a word
    boundary, then every NUL byte is deleted; seps hold no NUL (csv and
    json.dumps text holds none)."""
    k = len(cols[0])
    if not k:
        return bytearray()
    # the bytes of one row with its digit words NUL, and those words' columns
    row, digits = b"", []
    for sep, col in zip(seps, cols):
        row += _word_padded(sep)
        for words in _digit_words(col):
            digits.append((len(row) // 4, words))
            row += bytes(4)
    row += _word_padded(seps[-1])
    text = bytearray(row) * k
    out = np.frombuffer(text, np.uint32).reshape(k, len(row) // 4)
    for j, words in digits:
        out[:, j] = words
    # a bytearray deletes the NULs into a copy without a bytes copy first
    return text.translate(None, b"\0")
