"""Rendering tests: csv/json/markdown records and the SVG chart."""

import csv
import io
import json
import xml.dom.minidom
import xml.etree.ElementTree as ET

import pytest

from ptrac import Inventory, Lexicon, LexEntry, StudyConfig, StudyError, aggregate, run_study
from ptrac.core import ContrastMatrix, context_text
from ptrac.inventory import FeatureSystem, Phoneme
from ptrac.report import CSV_HEADER, RenderSpec, render


@pytest.fixture(scope="module")
def fixture_matrix(fixture_lexicon, persian):
    return run_study(fixture_lexicon, persian, StudyConfig()).matrix


@pytest.fixture(scope="module")
def voice_matrix(fixture_lexicon, persian):
    return run_study(fixture_lexicon, persian, StudyConfig(feature="voice")).matrix


def test_csv_voice_following_segment(voice_matrix, persian):
    out = render(voice_matrix, RenderSpec("csv", "following-segment"), inv=persian)
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1:] == [
        "_l,voice,2,1",
        "_m,voice,1,1",
        "_n,voice,1,1",
        "_r,voice,5,3",
    ]


def test_csv_empty_matrix():
    out = render(ContrastMatrix(), RenderSpec("csv"))
    assert out == CSV_HEADER + "\n"


def test_markdown_total(fixture_matrix, persian):
    out = render(fixture_matrix, RenderSpec("markdown", "total"), inv=persian)
    rows = [l for l in out.splitlines() if l.startswith("| total")]
    assert len(rows) == 3
    assert [r.split("|")[2].strip() for r in rows] == ["manner", "place", "voice"]


def test_json_envelope(fixture_matrix, persian):
    out = render(
        fixture_matrix,
        RenderSpec("json", "following-segment"),
        inv=persian,
        meta={"diagnostics": 0},
    )
    doc = json.loads(out)
    assert doc["meta"]["scheme"] == "following-segment"
    assert doc["meta"]["diagnostics"] == 0
    recs = {
        (r["context"], r["feature"]): (r["weighted_count"], r["pair_count"])
        for r in doc["records"]
    }
    assert recs[("_r", "voice")] == (5, 3)


def test_row_order_is_deterministic(fixture_matrix, persian):
    spec = RenderSpec("csv", "frame")
    a = render(fixture_matrix, spec, inv=persian)
    b = render(fixture_matrix, spec, inv=persian)
    assert a == b
    contexts = [l.split(",")[0] for l in a.splitlines()[1:]]
    assert contexts == sorted(contexts)


def test_svg_following_class(fixture_matrix, persian):
    out = render(fixture_matrix, RenderSpec("svg", "following-class"), inv=persian)
    root = ET.fromstring(out)  # well-formed
    labels = [
        el.text
        for el in root.iter("{http://www.w3.org/2000/svg}text")
        if el.get("text-anchor") == "middle"
    ]
    assert labels == ["liquid", "nasal"]


def test_svg_zero_matrix_has_axes_no_bars():
    out = render(ContrastMatrix(), RenderSpec("svg"))
    root = ET.fromstring(out)
    rects = list(root.iter("{http://www.w3.org/2000/svg}rect"))
    # background + 3 legend swatches, no data bars
    assert len(rects) == 4
    lines = list(root.iter("{http://www.w3.org/2000/svg}line"))
    assert len(lines) == 2


def test_svg_single_position_group(persian):
    lex = Lexicon(
        [
            LexEntry("band", tuple("band")),
            LexEntry("pand", tuple("pand")),
            LexEntry("dand", tuple("dand")),
        ],
        persian,
    )
    matrix = run_study(lex, persian, StudyConfig(kind="positions")).matrix
    out = render(matrix, RenderSpec("svg", "position"), inv=persian)
    root = ET.fromstring(out)
    labels = [
        el.text
        for el in root.iter("{http://www.w3.org/2000/svg}text")
        if el.get("text-anchor") == "middle"
    ]
    assert labels == ["C1"]


def test_svg_column_limit(persian):
    m = ContrastMatrix()
    for i in range(65):
        m.add(("_", "x%02d" % i), "voice", 1)
    with pytest.raises(StudyError, match="limit"):
        render(m, RenderSpec("svg", "frame"))


def test_bad_format_rejected():
    with pytest.raises(StudyError):
        RenderSpec("pdf")


HOSTILE = (",", "<", "|", "&", '"', "\\")


@pytest.fixture(scope="module")
def hostile_matrix():
    """Cluster study whose frames are made of symbols that CSV, SVG and
    Markdown treat specially."""
    inv = Inventory(
        [Phoneme(c, False) for c in HOSTILE + ("b",)] + [Phoneme("a", True)],
        FeatureSystem(mode="pair-list",
                      pair_relation={frozenset(("b", c)): "voice" for c in HOSTILE}),
    )
    words = [("b", "a", c, d) for c in HOSTILE + ("b",) for d in HOSTILE + ("b",)]
    lex = Lexicon([LexEntry("w%d" % i, w) for i, w in enumerate(words)], inv)
    return run_study(lex, inv, StudyConfig(feature="voice")).matrix


def _expected_records(matrix):
    return [(context_text(c), "voice", matrix.cell(c, "voice").weighted,
             matrix.cell(c, "voice").pairs) for c in matrix.contexts()]


def test_csv_reads_back_with_hostile_symbols(hostile_matrix):
    rows = list(csv.reader(io.StringIO(render(hostile_matrix, RenderSpec("csv")),
                                       newline="")))
    assert rows[0] == CSV_HEADER.split(",")
    got = [(c, f, int(w), int(p)) for c, f, w, p in rows[1:]]
    assert got == _expected_records(hostile_matrix)
    assert {c for c, *_ in got} >= {h + "_" for h in HOSTILE} | {"_" + h for h in HOSTILE}


def test_json_reads_back_with_hostile_symbols(hostile_matrix):
    doc = json.loads(render(hostile_matrix, RenderSpec("json")))
    got = [(r["context"], r["feature"], r["weighted_count"], r["pair_count"])
           for r in doc["records"]]
    assert got == _expected_records(hostile_matrix)


def _markdown_cells(line):
    """Split a Markdown table row on unescaped pipes, undoing escapes."""
    cells, cur, chars = [], "", iter(line.strip()[1:-1])
    for ch in chars:
        if ch == "\\":
            cur += next(chars)
        elif ch == "|":
            cells.append(cur.strip())
            cur = ""
        else:
            cur += ch
    return cells + [cur.strip()]


def test_markdown_reads_back_with_hostile_symbols(hostile_matrix):
    lines = render(hostile_matrix, RenderSpec("markdown")).splitlines()
    got = [tuple(_markdown_cells(l)) for l in lines[2:]]
    assert got == [(c, f, str(w), str(p)) for c, f, w, p in _expected_records(hostile_matrix)]


def test_svg_parses_with_hostile_symbols(hostile_matrix):
    agg = aggregate(hostile_matrix, "following-segment")
    out = render(agg, RenderSpec("svg", "following-segment"))
    doc = xml.dom.minidom.parseString(out.encode("utf-8"))
    titles = [t.firstChild.data for t in doc.getElementsByTagName("title")]
    assert titles == ["_%s voice: %d" % (h, agg.cell("_" + h, "voice").weighted)
                      for h in sorted(HOSTILE + ("b",))]


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown", "svg"])
def test_contexts_that_render_alike_are_rejected(join_alike, fmt):
    inv, lex = join_alike
    matrix = run_study(lex, inv, StudyConfig(kind="positions")).matrix
    with pytest.raises(StudyError) as exc:
        render(matrix, RenderSpec(fmt, "frame"), inv=inv)
    assert str(exc.value) == ("contexts ('t', 'sa', 'k', '_') and ('ts', 'a', 'k', '_') "
                              "both render as 'tsak_'")
    # aggregated, the two frames fall into one context
    out = render(matrix, RenderSpec(fmt, "position"), inv=inv)
    if fmt == "csv":
        assert out.splitlines()[1:] == ["C3,manner,0,0", "C3,place,0,0", "C3,voice,2,2"]


def test_render_rejects_exactly_the_matrices_with_contexts_that_render_alike():
    from randlex import make_case
    outcomes = set()
    for seed in range(40):
        inv, lex = make_case(seed, mode="multichar")
        matrix = run_study(lex, inv, StudyConfig(kind="positions")).matrix
        texts = [context_text(c) for c in matrix.contexts()]
        collide = len(set(texts)) < len(texts)
        outcomes.add(collide)
        if collide:
            with pytest.raises(StudyError, match="both render as"):
                render(matrix, RenderSpec("csv", "frame"), inv=inv)
        else:
            rows = list(csv.reader(io.StringIO(render(matrix, RenderSpec("csv", "frame")))))
            assert [r[0] for r in rows[1::len(matrix.features)]] == texts
    assert outcomes == {True, False}
