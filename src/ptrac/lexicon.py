"""Word-list ingestion.

The lexicon file is plain UTF-8 TSV: one word type per line,
``orthography<TAB>transcription`` with an optional third column that is
accepted and ignored. ``#`` starts a comment line; blank lines are skipped.
Counts downstream are type frequencies, so no numeric column is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .errors import LexiconError, TokenizeError
from .inventory import GLOTTAL_ALIAS, Inventory, normalize_symbol, split_lines


class LexEntry(NamedTuple):
    orthography: str
    transcription: tuple  # tuple of phoneme symbols


@dataclass(frozen=True)
class Diagnostic:
    line: int
    reason: str

    def __str__(self):
        return "line %d: %s" % (self.line, self.reason)


class Lexicon:
    def __init__(self, entries, inventory: Inventory):
        self.entries = list(entries)
        self.inventory = inventory
        unknown = set().union(*map(attrgetter("transcription"), self.entries))
        unknown -= inventory.vowel_map.keys()
        if unknown:
            first = next(e for e in self.entries if not unknown.isdisjoint(e.transcription))
            raise LexiconError(
                "symbol(s) not in the inventory: %s (first in entry %r)"
                % (", ".join(map(repr, sorted(unknown))), first.orthography)
            )

    @classmethod
    def _of_tokenized(cls, entries: list, inventory: Inventory):
        """A Lexicon of entries whose transcriptions came from
        `tokenize_transcription` against `inventory`, so every symbol is
        known: the constructor's symbol check is skipped."""
        lex = cls.__new__(cls)
        lex.entries = entries
        lex.inventory = inventory
        return lex

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def tokenize_transcription(text: str, inv: Inventory):
    """Greedy longest-match segmentation of `text` into inventory symbols.

    With one-character symbols this is a per-character mapping; multi-char
    symbols are matched longest-first. "?" normalizes to the glottal stop.
    """
    if not text:
        raise TokenizeError("empty transcription", offset=0, fragment="")
    if inv.char_symbols.issuperset(text):
        return tuple(text)
    tokens = inv.token_re.findall(text)
    # findall skips what no symbol matches; the tokens tile the text iff
    # their lengths add up to it.
    if sum(map(len, tokens)) != len(text):
        i = 0
        while m := inv.token_re.match(text, i):
            i = m.end()
        frag = text[i]
        raise TokenizeError(
            "no inventory symbol matches %r at offset %d" % (frag, i),
            offset=i,
            fragment=frag,
        )
    if GLOTTAL_ALIAS in text:
        tokens = map(normalize_symbol, tokens)
    return tuple(tokens)


def read_entries(text: str, inv: Inventory, diagnostics: list):
    """Yield ``(orthography, transcription)`` for each well-formed line of
    a lexicon file, in line order; each malformed line instead appends a
    Diagnostic to `diagnostics`. This is the lexicon's only line rule.

    The transcription is a str when every symbol of `inv` is one character
    (`inv.skeleton_table` is non-empty), each character a symbol, "?"
    already read as the glottal stop; else a tuple of symbols. Nothing is
    kept per line: `split_lines` splits the text one slice of about 64 KiB
    at a time, so beside `text` only that slice's lines are held, and
    `core.extract_sequences` can read a file of any size through it."""
    chars = inv.char_symbols
    one_char = bool(inv.skeleton_table)
    for no, line in enumerate(split_lines(text), start=1):
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            diagnostics.append(Diagnostic(no, "expected 'orthography<TAB>transcription'"))
            continue
        trans = parts[1]
        if not chars.issuperset(trans):  # always taken when `chars` is empty
            try:
                trans = tokenize_transcription(trans, inv)
            except TokenizeError as exc:
                diagnostics.append(Diagnostic(no, str(exc)))
                continue
            if one_char:
                trans = "".join(trans)
        yield parts[0], trans


def strict_error(diagnostics) -> LexiconError:
    """The error of a strict parse: every diagnostic, in line order."""
    return LexiconError(
        "%d malformed line(s): %s" % (len(diagnostics), "; ".join(map(str, diagnostics))))


def parse_lexicon(text: str, inv: Inventory, strict: bool = False):
    """Parse a lexicon file; returns (Lexicon, diagnostics).

    Malformed lines become diagnostics and are skipped (see
    `read_entries`). In strict mode any diagnostic is fatal: one
    LexiconError lists them all, in line order.
    """
    diagnostics = []
    # tuple.__new__ skips the Python-level __new__ of the named tuple
    entries = [tuple.__new__(LexEntry, (orth, tuple(trans)))
               for orth, trans in read_entries(text, inv, diagnostics)]
    if strict and diagnostics:
        raise strict_error(diagnostics)
    return Lexicon._of_tokenized(entries, inv), diagnostics


def serialize_lexicon(lex: Lexicon) -> str:
    """Inverse of parse_lexicon for well-formed lexicons (round-trips)."""
    return "".join(
        "%s\t%s\n" % (e.orthography, "".join(e.transcription)) for e in lex.entries
    )
