"""Matrix rendering: csv/json/markdown tables and grouped-bar SVG charts.

`render` is the one renderer; its output is byte-deterministic for a
given matrix and spec.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import __version__
from .core import ContrastMatrix, SCHEMES, aggregate, context_text, require_distinct_texts
from .errors import StudyError

FORMATS = ("csv", "json", "markdown", "svg")
CSV_HEADER = "context,feature,weighted_count,pair_count"
MAX_CHART_COLUMNS = 64

FEATURE_COLORS = {"manner": "#4e79a7", "place": "#f28e2b", "voice": "#e15759"}


@dataclass(frozen=True)
class RenderSpec:
    format: str = "csv"
    scheme: str = "frame"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise StudyError("unknown format %r" % self.format)
        if self.scheme not in SCHEMES:
            raise StudyError("unknown aggregation scheme %r" % self.scheme)


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
    """Grouped bar chart: one group per context, one bar per feature,
    weighted counts as heights."""
    if len(contexts) > MAX_CHART_COLUMNS:
        raise StudyError(
            "%d context columns exceed the chart limit of %d"
            % (len(contexts), MAX_CHART_COLUMNS)
        )
    features = m.features
    bar_w, bar_gap, group_gap = 26, 4, 24
    margin_l, margin_r, margin_t, margin_b = 56, 20, 36, 46
    plot_h = 220
    group_w = len(features) * (bar_w + bar_gap) - bar_gap
    plot_w = max(len(contexts), 1) * (group_w + group_gap)
    width = margin_l + plot_w + margin_r
    height = margin_t + plot_h + margin_b
    vmax = max([m.cell(c, f).weighted for c in contexts for f in features] or [0])
    scale = plot_h / vmax if vmax else 0.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<text x="%d" y="20" font-family="sans-serif" font-size="13">'
        "Contrast counts by context (%s)</text>" % (margin_l, m.scheme),
    ]
    x_axis_y = margin_t + plot_h
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (margin_l, margin_t, margin_l, x_axis_y)
    )
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (margin_l, x_axis_y, margin_l + plot_w, x_axis_y)
    )
    parts.append(
        '<text x="%d" y="%d" font-family="sans-serif" font-size="11" '
        'text-anchor="end">%d</text>' % (margin_l - 6, margin_t + 4, vmax)
    )
    parts.append(
        '<text x="%d" y="%d" font-family="sans-serif" font-size="11" '
        'text-anchor="end">0</text>' % (margin_l - 6, x_axis_y + 4)
    )

    for gi, ctx in enumerate(contexts):
        label = _esc(context_text(ctx))
        gx = margin_l + group_gap // 2 + gi * (group_w + group_gap)
        for fi, feat in enumerate(features):
            v = m.cell(ctx, feat).weighted
            if v <= 0:
                continue
            h = v * scale
            x = gx + fi * (bar_w + bar_gap)
            parts.append(
                '<rect x="%d" y="%.2f" width="%d" height="%.2f" fill="%s">'
                "<title>%s %s: %d</title></rect>"
                % (x, x_axis_y - h, bar_w, h,
                   FEATURE_COLORS.get(feat, "#888888"), label, feat, v)
            )
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="11" '
            'text-anchor="middle">%s</text>'
            % (gx + group_w // 2, x_axis_y + 16, label)
        )

    for fi, feat in enumerate(features):
        lx = margin_l + fi * 90
        ly = height - 12
        parts.append(
            '<rect x="%d" y="%d" width="10" height="10" fill="%s"/>'
            % (lx, ly - 9, FEATURE_COLORS.get(feat, "#888888"))
        )
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>'
            % (lx + 14, ly, feat)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _md_esc(text):
    """Backslash-escape what would end or split a Markdown table cell."""
    return text.replace("\\", "\\\\").replace("|", "\\|")
