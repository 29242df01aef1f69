"""Lexicon contrast-dispersion toolkit.

Syllabifies a transcribed word list, extracts segment sequences, finds
minimal sequence pairs and computes feature-by-context contrast matrices,
with CSV/JSON/Markdown/SVG reporting and a CLI (`ptrac`).

The public names below load their module on first use, so importing the
package, or a command that needs only part of it, compiles no more source
than it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {name: module for module, names in (
    ("errors", "InventoryError LexiconError PtracError StudyError SyllabifyError "
               "TokenizeError"),
    ("inventory", "FEATURES Inventory Phoneme contrasting_feature featural_pairs "
                  "parse_inventory"),
    ("lexicon", "LexEntry Lexicon parse_lexicon tokenize_transcription"),
    ("syllabifier", "Syllable format_syllables syllabify"),
    ("core", "ContrastMatrix MinimalSequencePair SequenceTable StudyConfig StudyReport "
             "aggregate count_contrasts drill_down enumerate_minimal_sequence_pairs "
             "extract_sequences list_pairs_for run_study"),
) for name in names.split()}

__all__ = list(_HOMES)


def __getattr__(name):
    """A public name, from its submodule, kept here after the first use.
    Any other name is an AttributeError, so that ``from ptrac import data``
    imports the subpackage."""
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
