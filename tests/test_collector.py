"""The pair path pauses the cyclic garbage collector: `collector_paused`
turns it off for `enumerate_minimal_sequence_pairs` and `count_contrasts`
(as for `cli_main`, see test_cli.py) and restores its state after, also
when the call raises. Pausing is sound only because the pair path builds
no reference cycles."""

import gc
import inspect
import random

import pytest

import ptrac.core
from ptrac import (Lexicon, LexEntry, SequenceTable, StudyConfig, StudyError, count_contrasts,
                   enumerate_minimal_sequence_pairs, extract_sequences)
from ptrac.cli import cli_main
from randlex import make_case, random_word

WRAPPED = [enumerate_minimal_sequence_pairs, count_contrasts, cli_main]


@pytest.fixture
def collector():
    """Sets the collector's state for a test, and puts back the one it had."""
    was_enabled = gc.isenabled()
    yield lambda on: (gc.enable if on else gc.disable)()
    (gc.enable if was_enabled else gc.disable)()


def pair_path(table, inv, cfg):
    return count_contrasts(enumerate_minimal_sequence_pairs(table, inv, cfg), cfg)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("orientation", ["unordered", "ordered"])
def test_state_restored(collector, persian, fixture_lexicon, enabled, orientation):
    cfg = StudyConfig(kind="positions", orientation=orientation)
    table, _ = extract_sequences(fixture_lexicon, persian, cfg)
    collector(enabled)
    pairs = enumerate_minimal_sequence_pairs(table, persian, cfg)
    assert gc.isenabled() is enabled
    assert count_contrasts(pairs, cfg).cells
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_state_restored_when_the_call_raises(collector, mini, enabled):
    table = SequenceTable(freqs={"ba": 1, "bQ": 1})  # Q is outside the inventory

    def failing_pairs():
        yield from enumerate_minimal_sequence_pairs(SequenceTable({"b": 1, "p": 1}), mini,
                                                    StudyConfig())
        raise StudyError("no more pairs")

    collector(enabled)
    with pytest.raises(StudyError, match="sequence symbol 'Q' is not in the inventory"):
        enumerate_minimal_sequence_pairs(table, mini, StudyConfig())
    assert gc.isenabled() is enabled
    with pytest.raises(StudyError, match="no more pairs"):
        count_contrasts(failing_pairs(), StudyConfig())
    assert gc.isenabled() is enabled


def test_collector_paused_inside_the_pair_path(collector, monkeypatch, persian,
                                               fixture_lexicon):
    cfg = StudyConfig(kind="positions")
    table, _ = extract_sequences(fixture_lexicon, persian, cfg)
    seen = []
    passes = ptrac.core._passes

    def recording_passes(*args):
        seen.append(("enumerate", gc.isenabled()))
        return passes(*args)

    def recording_pairs(pairs):
        seen.append(("count", gc.isenabled()))
        yield from pairs

    monkeypatch.setattr(ptrac.core, "_passes", recording_passes)
    collector(True)
    pairs = enumerate_minimal_sequence_pairs(table, persian, cfg)
    assert gc.isenabled()
    assert count_contrasts(recording_pairs(pairs), cfg).cells
    assert gc.isenabled()
    assert seen == [("enumerate", False), ("count", False)]


@pytest.mark.parametrize("fn", WRAPPED, ids=lambda fn: fn.__name__)
def test_wrapping_keeps_what_the_function_says_of_itself(fn):
    inner = fn.__wrapped__
    assert fn is not inner and fn.__name__ == inner.__name__
    assert fn.__doc__ == inner.__doc__
    assert fn.__module__ == inner.__module__ == {cli_main: "ptrac.cli"}.get(fn, "ptrac.core")
    assert inspect.signature(fn) == inspect.signature(inner)
    assert list(inspect.signature(fn).parameters) == {
        enumerate_minimal_sequence_pairs: ["table", "inv", "cfg"],
        count_contrasts: ["pairs", "cfg"],
        cli_main: ["argv"],
    }[fn]
    if fn is not cli_main:
        assert fn.__doc__.strip()


def _lexicon(inv, n):
    rng = random.Random(n)
    return Lexicon([LexEntry("w%d" % i, random_word(rng, inv)) for i in range(n)], inv)


@pytest.mark.parametrize("orientation", ["unordered", "ordered"])
def test_pair_path_leaves_no_per_pair_cycles(collector, orientation):
    # Modelled on test_cli.py's test_analyze_leaves_no_per_entry_cycles: the
    # cyclic garbage the pair path leaves must not grow with the table.
    inv, _ = make_case(0)
    garbage, found = {}, {}
    for n in (20, 4000):
        cfg = StudyConfig(kind="positions", orientation=orientation)
        table, _ = extract_sequences(_lexicon(inv, n), inv, cfg)
        gc.collect()
        collector(False)
        pairs = enumerate_minimal_sequence_pairs(table, inv, cfg)
        found[n] = len(pairs)
        matrix = count_contrasts(pairs, cfg)
        del pairs, matrix
        garbage[n] = gc.collect()
        collector(True)
    assert found[4000] > 1000 > found[20], found
    assert abs(garbage[4000] - garbage[20]) <= 20, garbage
