"""Matrix rendering: csv/json/markdown tables and grouped-bar SVG charts.

`render` is the one renderer; its output is byte-deterministic for a
given matrix and spec.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple

from . import __version__
from .core import ContrastMatrix, aggregate, context_text, require_distinct_texts
from .errors import StudyError
from .inventory import FORMATS, SCHEMES

CSV_HEADER = "context,feature,weighted_count,pair_count"
MAX_CHART_COLUMNS = 64

FEATURE_COLORS = {"manner": "#4e79a7", "place": "#f28e2b", "voice": "#e15759"}


class RenderSpec(namedtuple("RenderSpec", "format scheme")):
    """What `render` writes: the output format and the aggregation scheme.
    A named tuple whose every field is checked at construction."""

    __slots__ = ()

    def __new__(cls, format="csv", scheme="frame"):
        if format not in FORMATS:
            raise StudyError("unknown format %r" % format)
        if scheme not in SCHEMES:
            raise StudyError("unknown aggregation scheme %r" % scheme)
        return super().__new__(cls, format, scheme)

    @classmethod
    def _make(cls, iterable):  # so `_replace` checks its fields too
        return cls(*iterable)


def _aggregated(matrix, spec, inv=None):
    """The matrix under the spec's scheme and its contexts in output
    order; raises StudyError when two contexts render alike."""
    if matrix.scheme != spec.scheme:
        matrix = aggregate(matrix, spec.scheme, inv=inv)
    contexts = matrix.contexts()
    require_distinct_texts(contexts)
    return matrix, contexts


def _records(matrix, contexts):
    """(context text, feature, weighted, pairs) rows; contexts in
    lexicographic order of their text, features in manner/place/voice order."""
    for ctx in contexts:
        for feat in matrix.features:
            cell = matrix.cell(ctx, feat)
            yield context_text(ctx), feat, cell.weighted, cell.pairs


def render(matrix: ContrastMatrix, spec: RenderSpec, inv=None, meta=None) -> str:
    """The matrix under the spec's scheme, in the spec's format: a csv,
    json or markdown table, or an svg chart. `inv` is needed to aggregate
    to following-class; `meta` adds keys to the json "meta" object."""
    m, contexts = _aggregated(matrix, spec, inv)
    if spec.format == "svg":
        return _chart(m, contexts)
    if spec.format == "csv":
        buf = io.StringIO()  # the writer quotes fields with , " or a line break (RFC 4180)
        csv.writer(buf, lineterminator="\n").writerows(
            [CSV_HEADER.split(","), *_records(m, contexts)])
        return buf.getvalue()
    if spec.format == "json":
        doc = {
            "meta": {
                "tool_version": __version__,
                "scheme": m.scheme,
                "study": m.kind,
                "features": list(m.features),
                **(meta or {}),
            },
            "records": [
                {"context": c, "feature": f, "weighted_count": w, "pair_count": p}
                for c, f, w, p in _records(m, contexts)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [  # markdown
        "| context | feature | weighted_count | pair_count |",
        "| --- | --- | --- | --- |",
    ]
    lines += ["| %s | %s | %d | %d |" % (_md_esc(ctx), feat, w, p)
              for ctx, feat, w, p in _records(m, contexts)]
    return "\n".join(lines) + "\n"


def _chart(m, contexts) -> str:
    """Grouped bar chart of the `_records` rows: one group per context, one
    bar per feature, weighted counts as heights."""
    if len(contexts) > MAX_CHART_COLUMNS:
        raise StudyError(
            "%d context columns exceed the chart limit of %d"
            % (len(contexts), MAX_CHART_COLUMNS)
        )
    features = m.features
    rows = list(_records(m, contexts))
    bar_w, bar_gap, group_gap = 26, 4, 24
    margin_l, margin_r, margin_t, margin_b = 56, 20, 36, 46
    plot_h = 220
    group_w = len(features) * (bar_w + bar_gap) - bar_gap
    plot_w = max(len(contexts), 1) * (group_w + group_gap)
    title = "Contrast counts by context (%s)" % m.scheme  # about 8 px a character
    width = margin_l + max(plot_w, 90 * len(features) - 50, 8 * len(title)) + margin_r
    height = margin_t + plot_h + margin_b
    x_axis_y = margin_t + plot_h
    vmax = max([w for _, _, w, _ in rows] or [0])
    scale = plot_h / vmax if vmax else 0.0

    def text(x, y, body, anchor="", size=11):
        return ('<text x="%d" y="%d" font-family="sans-serif" font-size="%d"%s>%s</text>'
                % (x, y, size, anchor and ' text-anchor="%s"' % anchor, body))

    def line(x1, y1, x2, y2):
        return '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (x1, y1, x2, y2)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        text(margin_l, 20, title, size=13),
        line(margin_l, margin_t, margin_l, x_axis_y),
        line(margin_l, x_axis_y, margin_l + plot_w, x_axis_y),
        text(margin_l - 6, margin_t + 4, "%d" % vmax, "end"),
        text(margin_l - 6, x_axis_y + 4, "0", "end"),
    ]
    for i, (ctx, feat, v, _) in enumerate(rows):
        gi, fi = divmod(i, len(features))
        gx = margin_l + group_gap // 2 + gi * (group_w + group_gap)
        if v > 0:
            h = v * scale
            parts.append(
                '<rect x="%d" y="%.2f" width="%d" height="%.2f" fill="%s">'
                "<title>%s %s: %d</title></rect>"
                % (gx + fi * (bar_w + bar_gap), x_axis_y - h, bar_w, h,
                   FEATURE_COLORS.get(feat, "#888888"), _esc(ctx), feat, v)
            )
        if fi == len(features) - 1:  # the group's last bar: its context label
            parts.append(text(gx + group_w // 2, x_axis_y + 16, _esc(ctx), "middle"))

    for fi, feat in enumerate(features):
        lx, ly = margin_l + fi * 90, height - 12
        parts += ['<rect x="%d" y="%d" width="10" height="10" fill="%s"/>'
                  % (lx, ly - 9, FEATURE_COLORS.get(feat, "#888888")),
                  text(lx + 14, ly, feat)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _md_esc(text):
    """Backslash-escape what would end or split a Markdown table cell."""
    return text.replace("\\", "\\\\").replace("|", "\\|")
