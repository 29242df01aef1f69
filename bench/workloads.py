"""The benchmark's workloads: the seeded lexicon each one generates over
the shipped Persian inventory, and the ptrac command it runs on it.

Every valid word is built syllable by syllable (onset consonant + vowel +
0-2 coda consonants), and the generator keeps that construction, so the
reference in reference.py never needs the program's syllabifier. A chosen
share of words is deliberately unsyllabifiable (but tokenizable), and a
chosen share of lines deliberately untokenizable; the generator records
which, so the checks can hold the program's warnings to them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

LIMIT = 5  # list-pairs --limit
# Out-of-inventory characters used to make a line untokenizable.
FOREIGN = "X3%"
# shapes of the deliberately unsyllabifiable words, by syllabifier reason
INVALID_SHAPES = {"initial-vowel": "VCV", "onset-cluster": "CCV", "vowel-hiatus": "CVV",
                  "coda-too-long": "CVCCC", "no-nucleus": "CCC"}


@dataclass(frozen=True)
class Workload:
    # lexicon
    words: int
    max_syllables: int
    coda_weights: tuple  # relative weights of coda length 0, 1, 2
    # command: analyze with fmt, else list-pairs on (feature, context)
    study: str
    scheme: str
    fmt: str = None
    feature: str = None
    context: str = None
    zipf: float = 0.0  # exponent of the consonant skew; 0 draws uniformly
    invalid_share: float = 0.0  # unsyllabifiable words
    untokenizable_share: float = 0.0  # lines with a foreign character

    def cli_args(self, inventory, lexicon):
        common = ["--inventory", str(inventory), "--lexicon", str(lexicon),
                  "--study", self.study]
        if self.fmt:
            return ["analyze"] + common + ["--aggregate", self.scheme, "--format", self.fmt]
        return ["list-pairs"] + common + [
            "--feature", self.feature, "--scheme", self.scheme,
            "--context", self.context, "--limit", str(LIMIT)]


WORKLOADS = {
    "clusters-100k": Workload(
        100_000, 3, (1, 1, 1), "clusters", "following-segment", fmt="csv",
        invalid_share=0.02, untokenizable_share=0.002),
    "positions-cvcc-20k": Workload(
        20_000, 4, (1, 1, 8), "positions", "position", fmt="json"),
    "drilldown-zipf-50k": Workload(
        50_000, 3, (1, 1, 1), "clusters", "total", feature="manner",
        context="total", zipf=1.0),
}


@dataclass
class Generated:
    text: str
    lines: int  # word lines, valid or not
    words: dict  # orthography -> tuple of (onset, vowel, coda) syllables
    invalid: dict  # orthography -> syllabifier reason code
    untokenizable: list  # file line numbers


def generate(name: str, seed: int, consonants, vowels, size=None) -> Generated:
    """The lexicon of workload `name` for `seed`; same arguments, same bytes.
    `size` overrides the workload's word count (the self-test uses it)."""
    w = WORKLOADS[name]
    rng = random.Random("%s:%d" % (name, seed))
    cons = list(consonants)
    if w.zipf:
        # rank = the order given, so the seed moves draws, not the skew
        cum = list(itertools.accumulate(
            1.0 / (r + 1) ** w.zipf for r in range(len(cons))))

        def draw_c():
            return rng.choices(cons, cum_weights=cum)[0]
    else:
        def draw_c():
            return rng.choice(cons)
    n = size or w.words
    invalid_ix = set(rng.sample(range(n), round(w.invalid_share * n)))
    untok_ix = set(rng.sample(sorted(set(range(n)) - invalid_ix),
                              round(w.untokenizable_share * n)))
    lines = ["# ptrac benchmark lexicon %s seed %d\n" % (name, seed)]
    words, invalid, untokenizable = {}, {}, []
    for i in range(n):
        orth = "w%06d" % i
        if i in invalid_ix:
            kind = rng.choice(list(INVALID_SHAPES))
            invalid[orth] = kind
            word = "".join(rng.choice(cons if ch == "C" else vowels)
                           for ch in INVALID_SHAPES[kind])
            lines.append("%s\t%s\n" % (orth, word))
            continue
        syls = []
        for _ in range(rng.randint(1, w.max_syllables)):
            onset, vowel = draw_c(), rng.choice(vowels)
            ncoda = rng.choices((0, 1, 2), weights=w.coda_weights)[0]
            syls.append((onset, vowel, tuple(draw_c() for _ in range(ncoda))))
        trans = "".join(o + v + "".join(c) for o, v, c in syls)
        if i in untok_ix:
            at = rng.randrange(len(trans) + 1)
            trans = trans[:at] + rng.choice(FOREIGN) + trans[at:]
            untokenizable.append(len(lines) + 1)
        else:
            words[orth] = tuple(syls)
        lines.append("%s\t%s\n" % (orth, trans))
    return Generated("".join(lines), n, words, invalid, untokenizable)
