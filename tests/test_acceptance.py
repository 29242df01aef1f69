"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).

Criteria:
  1. shipped inventory reproduces the documented pair relation
     (70/50/20 ordered, 35/25/10 unordered) exactly, < 1 s
  2. 16-word voicing fixture: cluster study voice contexts are exactly
     {_l,_m,_r,_n} (all before nasals/liquids) with weighted counts
     _l=2 _m=1 _r=5 _n=1, < 1 s
  3. engine equals brute-force reference on 100 randomized lexicons
     x {clusters,positions} x {type-frequency,unweighted} x
     {unordered,ordered}, cell for cell, < 60 s total
  4. syllabifier: exhaustive C/V patterns up to length 8 reconstruct or
     reject one-to-one with the error conditions; CVCCCV -> CVCC.CV and
     CVCV -> CV.CV for all instantiations tested, < 10 s
  5. counting contracts: ordered = 2x unordered, unweighted <= weighted,
     and the worked 200/300 -> 200 minimum-weight example, < 1 s
  6. repeated `analyze` runs produce byte-identical CSV and SVG
"""

import functools
import itertools
import time

import pytest

from ptrac import (
    StudyConfig,
    SyllabifyError,
    aggregate,
    count_contrasts,
    data,
    enumerate_minimal_sequence_pairs,
    featural_pairs,
    parse_lexicon,
    run_study,
    syllabify,
)
from ptrac.cli import cli_main
from ptrac.core import SequenceTable
from ptrac.oracle import oracle_matrix
from randlex import make_case

# The documented unordered pair relation shipped in persian.inv
# (ordered listings are its symmetrization).
EXPECTED_PAIRS = {
    "manner": """CS Cs Ct St Zd Zj Zl Zn Zr bm bv bw dj dl dn dr dz fp gy
                 jl jn jr jz kx ln lr lz mv mw nr nz qy rz st vw""",
    "place": """'b 'd 'g 'q Sf Sh Sx Zv bd bg bq dg dq fh fs fx hs hx kp
                kt mn pt sx vz wy""",
    "voice": "Cj SZ Sz Zs bp dt fv gk kq sz",
}


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE FAIL: %s" % name)
                raise
            print("ACCEPTANCE PASS: %s" % name)
        return wrapper
    return deco


@pytest.fixture(scope="module")
def persian():
    return data.persian_inventory()


@pytest.fixture(scope="module")
def fixture_lexicon(persian):
    lex, diags = parse_lexicon(data.voicing_fixture_text(), persian)
    assert not diags
    return lex


@criterion("1 inventory pair relation 70/50/20")
def test_criterion_1_pair_relation(persian):
    start = time.monotonic()
    expected_counts = {"manner": 35, "place": 25, "voice": 10}
    for feature, packed in EXPECTED_PAIRS.items():
        expected = {tuple(sorted(p)) for p in packed.split()}
        assert len(expected) == expected_counts[feature]
        uno = featural_pairs(persian, feature, "unordered")
        assert set(uno) == expected
        assert len(uno) == expected_counts[feature]
        ordd = featural_pairs(persian, feature, "ordered")
        assert len(ordd) == 2 * expected_counts[feature]
        assert set(ordd) == {p for a, b in expected for p in ((a, b), (b, a))}
    assert time.monotonic() - start < 1.0


@criterion("2 voicing fixture contexts and counts")
def test_criterion_2_fixture(persian, fixture_lexicon):
    start = time.monotonic()
    report = run_study(fixture_lexicon, persian, StudyConfig())
    agg = aggregate(report.matrix, "following-segment", inv=persian)
    voice = {
        ctx: agg.cell(ctx, "voice").weighted
        for ctx in agg.contexts()
        if agg.cell(ctx, "voice").pairs
    }
    assert voice == {"_l": 2, "_m": 1, "_r": 5, "_n": 1}
    # every voicing context's following segment is a nasal or liquid
    for ctx in voice:
        assert persian.class_map[ctx[1]] in ("nasal", "liquid")
    assert time.monotonic() - start < 1.0


@criterion("3 oracle equivalence over 100 randomized lexicons")
def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    combos = list(
        itertools.product(
            ("clusters", "positions"),
            ("type-frequency", "unweighted"),
            ("unordered", "ordered"),
        )
    )
    for seed in range(100):
        inv, lex = make_case(seed, max_words=200)
        for kind, weighting, orientation in combos:
            cfg = StudyConfig(kind=kind, weighting=weighting, orientation=orientation)
            engine = run_study(lex, inv, cfg).matrix
            ref = oracle_matrix(lex, inv, cfg)
            assert engine.cells == ref.cells, (seed, kind, weighting, orientation)
    assert time.monotonic() - start < 60.0


@criterion("4 syllabifier exhaustive pattern check")
def test_criterion_4_syllabifier(persian):
    from test_syllabifier import expected_rejection_reasons, flatten, instantiate

    start = time.monotonic()
    for n in range(1, 9):
        for bits in itertools.product("CV", repeat=n):
            pattern = "".join(bits)
            expected = expected_rejection_reasons(pattern)
            seq = instantiate(pattern)
            if expected:
                with pytest.raises(SyllabifyError) as exc:
                    syllabify(seq, persian)
                assert exc.value.reason in expected, pattern
            else:
                syls = syllabify(seq, persian)
                assert flatten(syls) == seq, pattern
                assert all(s.shape in ("CV", "CVC", "CVCC") for s in syls)
    # schema cases over several phoneme instantiations
    for c1, c2, c3, c4 in itertools.product("bd", "st", "nr", "kz"):
        for v in "aeo":
            syls = syllabify((c1, v, c2, c3, c4, v), persian)  # CVCCCV
            assert [s.shape for s in syls] == ["CVCC", "CV"]
            syls = syllabify((c1, v, c2, v), persian)  # CVCV
            assert [s.shape for s in syls] == ["CV", "CV"]
    assert time.monotonic() - start < 10.0


@criterion("5 counting contracts and minimum-weight rule")
def test_criterion_5_counting(persian, fixture_lexicon):
    start = time.monotonic()
    # worked example: freqs 200 and 300 -> the voice cell at "_and" gains 200
    table = SequenceTable(freqs={tuple("band"): 200, tuple("pand"): 300})
    cfg = StudyConfig(kind="positions")
    pairs = enumerate_minimal_sequence_pairs(table, persian, cfg)
    matrix = count_contrasts(pairs, cfg)
    assert matrix.cell(tuple("_and"), "voice").weighted == 200
    assert matrix.cell(tuple("_and"), "voice").pairs == 1

    for kind in ("clusters", "positions"):
        weighted = run_study(
            fixture_lexicon, persian, StudyConfig(kind=kind)
        ).matrix
        unweighted = run_study(
            fixture_lexicon, persian, StudyConfig(kind=kind, weighting="unweighted")
        ).matrix
        ordered = run_study(
            fixture_lexicon, persian, StudyConfig(kind=kind, orientation="ordered")
        ).matrix
        keys = set(weighted.cells) | set(unweighted.cells) | set(ordered.cells)
        for k in keys:
            assert ordered.cell(*k).weighted == 2 * weighted.cell(*k).weighted
            assert ordered.cell(*k).pairs == 2 * weighted.cell(*k).pairs
            assert unweighted.cell(*k).weighted <= weighted.cell(*k).weighted
    assert time.monotonic() - start < 1.0


@criterion("6 byte-identical repeated CSV and SVG output")
def test_criterion_6_determinism(tmp_path, capsys):
    inv_path = str(data.data_path("persian.inv"))
    lex_path = str(data.data_path("voicing_fixture.tsv"))
    outputs = {}
    for fmt, agg in (("csv", "following-segment"), ("svg", "following-class")):
        for attempt in range(2):
            out = tmp_path / ("%s_%d" % (fmt, attempt))
            code = cli_main(
                ["analyze", "--inventory", inv_path, "--lexicon", lex_path,
                 "--study", "clusters", "--aggregate", agg, "--format", fmt,
                 "--out", str(out)]
            )
            assert code == 0
            outputs[(fmt, attempt)] = out.read_bytes()
        assert outputs[(fmt, 0)] == outputs[(fmt, 1)]
