"""The package's record types are named tuples. They keep the contracts
they had as dataclasses: field order, keyword defaults, value equality, a
repr of their fields, and no field can change. Each equals the plain tuple
of its fields, a dict field left to its default is a dict of its own, and
each pickles and copies. Importing the CLI loads no `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ptrac
from ptrac import StudyError
from ptrac.cli import _warn
from ptrac.core import (Cell, ContrastMatrix, ExcludedEntry, MinimalSequencePair,
                        PairReportRow, SequenceTable, StudyConfig, StudyReport)
from ptrac.inventory import FEATURES, FeatureSystem, Phoneme
from ptrac.lexicon import Diagnostic
from ptrac.report import RenderSpec

PAIR = MinimalSequencePair(("s", "l"), ("z", "l"), 0, "voice", 2)

# type, its fields in positional order, the default of each field that has
# one, and two samples of values for every field, unequal in the last
RECORDS = [
    (Phoneme, ("symbol", "is_vowel"), {}, [("b", False), ("b", True)]),
    (FeatureSystem, ("mode", "pair_relation", "bundles"),
     {"pair_relation": {}, "bundles": {}},
     [("vector", {}, {"b": ("stop", "labial", "voiced")}), ("vector", {}, {})]),
    (Diagnostic, ("line", "reason"), {}, [(3, "bad line"), (3, "worse line")]),
    (ExcludedEntry, ("index", "orthography", "reason", "code"), {},
     [(1, "ab", "starts with a vowel", "initial-vowel"),
      (1, "ab", "starts with a vowel", "no-nucleus")]),
    (PairReportRow, ("pair", "witnesses"), {},
     [(PAIR, (("sol", "zol"),)), (PAIR, ())]),
    (StudyReport, ("table", "matrix", "excluded"), {},
     [(SequenceTable(), ContrastMatrix(), []), (SequenceTable(), ContrastMatrix(), [None])]),
    (StudyConfig, ("kind", "weighting", "orientation", "feature"),
     {"kind": "clusters", "weighting": "type-frequency", "orientation": "unordered",
      "feature": None},
     [("positions", "unweighted", "ordered", "voice"),
      ("positions", "unweighted", "ordered", None)]),
    (RenderSpec, ("format", "scheme"), {"format": "csv", "scheme": "frame"},
     [("json", "total"), ("json", "frame")]),
    (Cell, ("weighted", "pairs"), {"weighted": 0, "pairs": 0}, [(5, 2), (5, 3)]),
    (SequenceTable, ("freqs", "carriers"), {"freqs": {}, "carriers": None},
     [({"nd": 2}, {"nd": [("band", "band")]}), ({"nd": 2}, None)]),
    (ContrastMatrix, ("cells", "features", "scheme", "kind", "pairs_found"),
     {"cells": {}, "features": FEATURES, "scheme": "frame", "kind": "clusters",
      "pairs_found": None},
     [({("total", "voice"): Cell(1, 1)}, ("voice",), "total", "positions", 1),
      ({("total", "voice"): Cell(1, 1)}, ("voice",), "total", "positions", 2)]),
]
UNHASHABLE = {FeatureSystem, StudyReport, SequenceTable, ContrastMatrix}  # they hold dicts or lists


def _ids(case):
    return case[0].__name__


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_fields_in_order_with_their_defaults(case):
    cls, fields, defaults, (values, _) = case
    assert issubclass(cls, tuple) and cls._fields == fields
    record = cls(*values)
    assert [getattr(record, f) for f in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == record
    required = len(fields) - len(defaults)
    assert fields[required:] == tuple(defaults)  # the defaults are the last fields
    bare = cls(*values[:required])
    assert {f: getattr(bare, f) for f in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values, None)  # no field beyond these


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_equal_by_value(case):
    cls, _, _, (values, other) = case
    assert cls(*values) == cls(*values)
    assert cls(*values) != cls(*other)
    assert not cls(*values) != cls(*values)
    assert cls(*values) == tuple(values)


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_immutable_and_hashable(case):
    cls, fields, _, (values, _) = case
    record = cls(*values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls.__hash__ is not None
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values))
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (f, getattr(record, f)) for f in fields))


@pytest.mark.parametrize("case", [c for c in RECORDS
                                  if c[0] in (FeatureSystem, SequenceTable, ContrastMatrix)],
                         ids=_ids)
def test_every_default_dict_is_fresh(case):
    cls, fields, defaults, (values, _) = case
    required = values[:len(fields) - len(defaults)]
    one, two = cls(*required), cls(*required)
    for f, default in defaults.items():
        if isinstance(default, dict):
            assert getattr(one, f) is not getattr(two, f)
            getattr(one, f)["x"] = 1
            assert getattr(two, f) == {}


@pytest.mark.parametrize("case", RECORDS, ids=_ids)
def test_every_record_pickles_and_copies(case):
    cls, fields, defaults, samples = case
    built = [cls(*values) for values in samples]
    built.append(cls(*samples[0][:len(fields) - len(defaults)]))  # the rest left to defaults
    for record in built:
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.deepcopy(record)]:
            assert type(back) is cls and back == record


@pytest.mark.parametrize("cls, field", [
    (StudyConfig, "kind"), (StudyConfig, "weighting"), (StudyConfig, "orientation"),
    (StudyConfig, "feature"), (RenderSpec, "format"), (RenderSpec, "scheme"),
])
def test_every_bad_setting_is_refused_at_construction(cls, field):
    with pytest.raises(StudyError):
        cls(**{field: "bogus"})
    with pytest.raises(StudyError):
        cls()._replace(**{field: "bogus"})


def test_diagnostic_prints_as_a_line_and_a_reason(capsys):
    diag = Diagnostic(3, "expected 'orthography<TAB>transcription'")
    assert str(diag) == "line 3: expected 'orthography<TAB>transcription'"
    _warn([diag, "entry 2 (ab) excluded: no vowel"])
    assert capsys.readouterr().err == (
        "warning: line 3: expected 'orthography<TAB>transcription'\n"
        "warning: entry 2 (ab) excluded: no vowel\n")


def test_importing_the_cli_and_the_report_loads_no_dataclasses():
    # A fresh interpreter, compared with the modules it had before the
    # import, so what `site` loads at start-up does not count.
    check = ("import sys\n"
             "before = set(sys.modules)\n"
             "import ptrac.cli, ptrac.report\n"
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    src = str(Path(ptrac.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
