"""Brute-force reference computation for the test suite.

Recomputes the feature-context matrix in the most literal way possible:
re-split every word into syllables with its own scan, count sequence
frequencies naively, compare every pair of distinct sequences at every
index, and test the minimal-pair condition by direct feature lookup. It
shares only the data types and the feature lookup with the engine, none of
the extraction, enumeration or counting code. Quadratic on purpose; guarded
against large inputs.
"""

from __future__ import annotations

from .core import HOLE, Cell, ContrastMatrix, StudyConfig
from .errors import StudyError
from .inventory import Inventory, contrasting_feature
from .lexicon import Lexicon

GUARD = 10_000  # max distinct sequences


def _vowel_flags(seq, inv):
    return [inv.vowel_map[s] for s in seq]


def _word_cvcc_syllables(seq, inv):
    """CVCC syllables of one word, or None if the word is unsyllabifiable.

    Independent re-statement of the syllabification rule: every vowel is a
    nucleus preceded by exactly one onset consonant; the consonants between
    a vowel and the next onset (or the word end) are the coda.
    """
    flags = _vowel_flags(seq, inv)
    n = len(seq)
    if n == 0 or not any(flags):
        return None
    if flags[0]:
        return None
    if flags.index(True) != 1:
        return None  # word-initial onset cluster
    for i in range(n - 1):
        if flags[i] and flags[i + 1]:
            return None
    vowels = [i for i in range(n) if flags[i]]
    out = []
    for j, v in enumerate(vowels):
        end = (vowels[j + 1] - 1) if j + 1 < len(vowels) else n
        coda = seq[v + 1:end]
        if len(coda) > 2:
            return None
        if len(coda) == 2:
            out.append((seq[v - 1], seq[v]) + tuple(coda))
    return out


def oracle_matrix(lex: Lexicon, inv: Inventory, cfg: StudyConfig) -> ContrastMatrix:
    """Independently computed frame-granularity contrast matrix."""
    sequences = []
    for entry in lex.entries:
        syls = _word_cvcc_syllables(entry.transcription, inv)
        if syls is None:
            continue
        for syl in syls:
            sequences.append(syl[2:] if cfg.kind == "clusters" else syl)

    distinct = sorted(set(sequences))
    if len(distinct) > GUARD:
        raise StudyError("oracle guard exceeded: %d distinct sequences" % len(distinct))
    freq = {}
    for seq in distinct:
        freq[seq] = sum(1 for s in sequences if s == seq)

    features = (cfg.feature,) if cfg.feature else None
    matrix = ContrastMatrix(
        features=features or ("manner", "place", "voice"),
        scheme="frame",
        kind=cfg.kind,
    )
    for a in distinct:
        for b in distinct:
            if cfg.orientation == "unordered" and not a < b:
                continue
            if cfg.orientation == "ordered" and a == b:
                continue
            if len(a) != len(b):
                continue
            diff = [i for i in range(len(a)) if a[i] != b[i]]
            if len(diff) != 1:
                continue
            pos = diff[0]
            if inv.vowel_map[a[pos]] or inv.vowel_map[b[pos]]:
                continue
            feature = contrasting_feature(inv, a[pos], b[pos])
            if feature is None:
                continue
            if cfg.feature is not None and feature != cfg.feature:
                continue
            frame = tuple(HOLE if i == pos else s for i, s in enumerate(a))
            if cfg.weighting == "type-frequency":
                w = freq[a] if freq[a] < freq[b] else freq[b]
            else:
                w = 1
            cell = matrix.cells.setdefault((frame, feature), Cell())
            cell.weighted += w
            cell.pairs += 1
    return matrix
