"""`count_contrasts` counts a pair list by runs, held to the count it
replaces, and `aggregate` finds each frame's context once, held to the
aggregation it replaces.

`keyed_count` and `keyed_aggregate` are the former `core.count_contrasts`
and `core.aggregate`, kept as the references: the first keys every pair by
its (frame, feature), the second finds the context of every cell. The
engine picks a frame's row once per run of pairs sharing `seq_a` and
position, so it must give the reference's matrix on the walk's pair list,
but also on that list reversed, shuffled, read once through a generator,
and with every `seq_a` an equal but distinct tuple, which breaks every
run. `aggregate` must give the reference's matrix from the frame-major
cells that both counts emit, from those cells shuffled, and from equal but
distinct frame keys.
"""

import random

import pytest
from hypothesis import given, settings

from randlex import hostile_case, make_case
from test_count import CONFIGS
from ptrac import (StudyConfig, StudyError, aggregate, count_contrasts,
                   enumerate_minimal_sequence_pairs, extract_sequences)
from ptrac.core import HOLE, Cell, ContrastMatrix, frame_of, scheme_key
from ptrac.inventory import FEATURES, SCHEMES


def keyed_count(pairs, cfg: StudyConfig) -> ContrastMatrix:
    """Accumulate pairs into the frame-granularity contrast matrix."""
    index, ws, ns = {}, [], []  # (frame, feature) -> its sums' index in ws and ns
    for a, _, pos, feature, weight in pairs:
        key = frame_of(a, pos), feature
        i = index.get(key)
        if i is None:
            index[key] = len(ns)
            ws.append(weight)
            ns.append(1)
        else:
            ws[i] += weight
            ns[i] += 1
    weighted = cfg.weighting == "type-frequency"
    return ContrastMatrix(cells=dict(zip(index, map(Cell, ws if weighted else ns, ns))),
                          features=(cfg.feature,) if cfg.feature else FEATURES,
                          scheme="frame", kind=cfg.kind)


def keyed_aggregate(matrix: ContrastMatrix, scheme: str, inv=None) -> ContrastMatrix:
    """Merge frame contexts under an aggregation scheme (see `scheme_key`);
    sum-preserving over the frames the scheme covers."""
    key_of = scheme_key(scheme, matrix.kind, inv)
    if matrix.scheme != "frame":
        raise StudyError("matrix already aggregated (%s)" % matrix.scheme)
    index, ws, ns = {}, [], []  # (context, feature) -> its sums' index in ws and ns
    for (frame, feature), (w, n) in matrix.cells.items():
        ctx = key_of(frame, frame.index(HOLE))
        if ctx is not None:
            key = ctx, feature
            i = index.get(key)
            if i is None:
                index[key] = len(ns)
                ws.append(w)
                ns.append(n)
            else:
                ws[i] += w
                ns[i] += n
    return ContrastMatrix(cells=dict(zip(index, map(Cell, ws, ns))), features=matrix.features,
                          scheme=scheme, kind=matrix.kind)


def orders(pairs, seed):
    """The pair list in the walk's order and in orders that break its runs."""
    shuffled = list(pairs)
    random.Random(seed).shuffle(shuffled)
    distinct = [p._replace(seq_a=tuple(list(p.seq_a))) for p in pairs]
    assert all(q.seq_a is not p.seq_a for p, q in zip(pairs, distinct))
    return {"walk": pairs, "reversed": pairs[::-1], "shuffled": shuffled,
            "generator": (p for p in pairs), "distinct seq_a": distinct}


def check_case(inv, lex):
    """Hold the count of every config and order to the reference; return the
    number of pairs counted."""
    seen = 0
    for i, cfg in enumerate(CONFIGS):
        table, _ = extract_sequences(lex, inv, cfg)
        pairs = enumerate_minimal_sequence_pairs(table, inv, cfg)
        want = keyed_count(pairs, cfg)
        for name, ordered in orders(pairs, i).items():
            got = count_contrasts(ordered, cfg)
            assert got.cells == want.cells, (cfg, name)
            assert got[1:] == want[1:], (cfg, name)  # features, scheme, kind, pairs_found
        seen += len(pairs)
    return seen


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
def test_run_count_matches_keyed_count_on_random_lexicons(mode):
    assert sum(check_case(*make_case(seed, mode=mode)) for seed in range(10)) > 1000


@settings(deadline=None)
@given(hostile_case())
def test_run_count_matches_keyed_count_arbitrary_symbols(case):
    check_case(*case)


def test_run_count_matches_keyed_count_on_fixture(persian, fixture_lexicon):
    assert check_case(persian, fixture_lexicon) > 0


@pytest.mark.parametrize("at", [0, -1])
@pytest.mark.parametrize("orientation", ["unordered", "ordered"])
def test_unknown_pair_feature_is_refused(persian, fixture_lexicon, orientation, at):
    cfg = StudyConfig(orientation=orientation)
    table, _ = extract_sequences(fixture_lexicon, persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(table, persian, cfg)
    pairs[at] = pairs[at]._replace(feature="length")
    with pytest.raises(StudyError, match="unknown feature 'length'"):
        count_contrasts(pairs, cfg)


def check_aggregate(inv, lex):
    """Aggregate each config's frame matrix as counted, with its cells
    shuffled and with its frame keys copied, under every scheme the kind
    takes, to the reference's matrix."""
    for i, cfg in enumerate(CONFIGS):
        table, _ = extract_sequences(lex, inv, cfg)
        matrix = count_contrasts(enumerate_minimal_sequence_pairs(table, inv, cfg), cfg)
        shuffled = list(matrix.cells.items())
        random.Random(i).shuffle(shuffled)
        copied = {(tuple(list(frame)), feature): c for (frame, feature), c in matrix.cells.items()}
        for scheme in SCHEMES:
            if scheme == "position" and cfg.kind != "positions":
                continue
            want = keyed_aggregate(matrix, scheme, inv)
            for cells in (matrix.cells, dict(shuffled), copied):
                assert aggregate(matrix._replace(cells=cells), scheme, inv) == want, (cfg, scheme)


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
def test_aggregate_ignores_cell_order_and_key_identity_on_random_lexicons(mode):
    for seed in range(5):
        check_aggregate(*make_case(seed, mode=mode))


def test_aggregate_ignores_cell_order_and_key_identity_on_fixture(persian, fixture_lexicon):
    check_aggregate(persian, fixture_lexicon)
