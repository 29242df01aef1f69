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


def syllable_spans(seq, inv: Inventory):
    """The syllables of a phoneme sequence as ``(nucleus, end)`` index
    pairs, in order: a syllable is ``seq[nucleus - 1:end]`` and its coda
    ``seq[nucleus + 1:end]``. Raises SyllabifyError for a sequence that
    admits no syllabification. The spans depend only on which positions
    hold vowels."""
    if not seq:
        raise SyllabifyError("empty sequence", reason="no-nucleus")
    is_vowel = inv.vowel_map
    vowels = [i for i, s in enumerate(seq) if is_vowel[s]]
    if not vowels:
        raise SyllabifyError("no vowel in %r" % ("".join(seq),), reason="no-nucleus")
    if vowels[0] == 0:
        raise SyllabifyError(
            "sequence starts with vowel %r (onset is obligatory)" % seq[0],
            reason="initial-vowel",
        )
    if vowels[0] > 1:
        raise SyllabifyError(
            "word-initial consonant cluster %r (onsets are single consonants)"
            % "".join(seq[:vowels[0]]),
            reason="onset-cluster",
        )
    # each coda runs up to the next onset (the consonant before the next
    # vowel), the last one to the end of the sequence
    spans = list(zip(vowels, [v - 1 for v in vowels[1:]] + [len(seq)]))
    for v, end in spans:
        if end == v:  # the next vowel follows at once
            raise SyllabifyError(
                "adjacent vowels at positions %d-%d" % (v, v + 1), reason="vowel-hiatus"
            )
    for v, end in spans:
        if end - v > 3:
            raise SyllabifyError(
                "coda %r longer than 2 after vowel at position %d"
                % ("".join(seq[v + 1:end]), v),
                reason="coda-too-long",
            )
    return spans


def syllabify(seq, inv: Inventory):
    """Split a phoneme sequence into syllables; unique by construction."""
    seq = tuple(seq)
    return [Syllable(seq[v - 1], seq[v], seq[v + 1:end]) for v, end in syllable_spans(seq, inv)]


def format_syllables(syllables) -> str:
    return ".".join(str(s) for s in syllables)
