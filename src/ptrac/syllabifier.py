"""Deterministic syllabification for CV/CVC/CVCC phonotactics.

Every syllable is onset consonant + vowel nucleus + coda of 0..2
consonants. Each intervocalic consonant run is split so that its last
consonant becomes the next syllable's obligatory onset and everything
before it joins the previous coda (minimal-onset splitting); word-final
consonants are all coda. Sequences that would need a coda of length 3 or
more, start with a vowel or a consonant cluster, contain vowel hiatus, or
lack a vowel are hard errors, never repaired.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SyllabifyError
from .inventory import Inventory


class Syllable(NamedTuple):
    """One syllable; a named tuple, so it equals the plain tuple
    ``(onset, nucleus, coda)``."""

    onset: str
    nucleus: str
    coda: tuple

    @property
    def shape(self) -> str:
        return ("CV", "CVC", "CVCC")[len(self.coda)]

    @property
    def segments(self) -> tuple:
        return (self.onset, self.nucleus) + self.coda

    def __str__(self):
        return "".join(self.segments)


def syllabify(seq, inv: Inventory):
    """Split a phoneme sequence into syllables; unique by construction."""
    seq = tuple(seq)
    if not seq:
        raise SyllabifyError("empty sequence", reason="no-nucleus")
    is_vowel = inv.vowel_map
    vowel_ix = [i for i, s in enumerate(seq) if is_vowel[s]]
    if not vowel_ix:
        raise SyllabifyError("no vowel in %r" % ("".join(seq),), reason="no-nucleus")
    if vowel_ix[0] == 0:
        raise SyllabifyError(
            "sequence starts with vowel %r (onset is obligatory)" % seq[0],
            reason="initial-vowel",
        )
    if vowel_ix[0] > 1:
        raise SyllabifyError(
            "word-initial consonant cluster %r (onsets are single consonants)"
            % "".join(seq[:vowel_ix[0]]),
            reason="onset-cluster",
        )
    for a, b in zip(vowel_ix, vowel_ix[1:]):
        if b == a + 1:
            raise SyllabifyError(
                "adjacent vowels at positions %d-%d" % (a, b), reason="vowel-hiatus"
            )

    syllables = []
    for k, v in enumerate(vowel_ix):
        if k + 1 < len(vowel_ix):
            coda = seq[v + 1:vowel_ix[k + 1] - 1]  # last consonant is next onset
        else:
            coda = seq[v + 1:]
        if len(coda) > 2:
            raise SyllabifyError(
                "coda %r longer than 2 after vowel at position %d"
                % ("".join(coda), v),
                reason="coda-too-long",
            )
        syllables.append(Syllable(seq[v - 1], seq[v], coda))
    return syllables


def format_syllables(syllables) -> str:
    return ".".join(str(s) for s in syllables)
