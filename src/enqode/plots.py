"""SVG figures for a comparison report, assembled as plain strings.

Four files: circuit depth, physical gate counts, state fidelity, and the
per-sample compile-time distribution. Bars carry one-standard-deviation
whiskers and printed values; the compile-time chart is a box plot and
switches to a log axis when the two methods sit decades apart.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = ["render_report_svgs"]

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 24
_MARGIN_TOP = 54
_MARGIN_BOTTOM = 58

_COLORS = ["#4878a8", "#c8694f", "#7a9a5a"]

_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.2e}"
    return f"{value:.3g}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
            f'font-family="sans-serif">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2}" y="24" font-size="15" text-anchor="middle" '
            f'font-weight="bold">{_esc(title)}</text>',
        ]

    def line(self, x1, y1, x2, y2, color="#444", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def rect(self, x, y, w, h, fill, stroke="#333"):
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="0.8"/>'
        )

    def text(self, x, y, s, size=11, anchor="middle", color="#222"):
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}">{_esc(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _y_axis(canvas: _Canvas, vmax: float, y_label: str):
    """Linear axis from 0 to vmax; returns value -> pixel mapper."""
    vmax = vmax if vmax > 0 else 1.0

    def to_y(v: float) -> float:
        return _MARGIN_TOP + _PLOT_H * (1.0 - v / vmax)

    for tick in np.linspace(0.0, vmax, 5):
        y = to_y(tick)
        canvas.line(_MARGIN_LEFT, y, _WIDTH - _MARGIN_RIGHT, y, color="#ddd")
        canvas.text(_MARGIN_LEFT - 6, y + 4, _fmt(tick), size=10, anchor="end")
    canvas.line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, _MARGIN_TOP + _PLOT_H)
    canvas.line(_MARGIN_LEFT, _MARGIN_TOP + _PLOT_H,
                _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP + _PLOT_H)
    canvas.parts.append(
        f'<text x="16" y="{_MARGIN_TOP + _PLOT_H / 2:.1f}" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_MARGIN_TOP + _PLOT_H / 2:.1f})">{_esc(y_label)}</text>'
    )
    return to_y


def _legend(canvas: _Canvas, labels: list[str]):
    x = _WIDTH - _MARGIN_RIGHT - 110
    for i, label in enumerate(labels):
        y = _MARGIN_TOP + 4 + 16 * i
        canvas.rect(x, y - 9, 11, 11, _COLORS[i % len(_COLORS)])
        canvas.text(x + 16, y + 1, label, size=11, anchor="start")


def _grouped_bars(title: str, y_label: str, groups: list[str],
                  series: list[tuple[str, list[float], list[float]]]) -> str:
    canvas = _Canvas(title)
    vmax = max(m + s for _, means, stds in series
               for m, s in zip(means, stds)) * 1.18
    to_y = _y_axis(canvas, vmax, y_label)
    y0 = to_y(0.0)

    slot = _PLOT_W / len(groups)
    bar_w = slot * 0.72 / len(series)
    for gi, group in enumerate(groups):
        base = _MARGIN_LEFT + slot * (gi + 0.14)
        for si, (_, means, stds) in enumerate(series):
            x = base + bar_w * si
            mean, std = means[gi], stds[gi]
            top = to_y(mean)
            canvas.rect(x, top, bar_w * 0.92, y0 - top, _COLORS[si % len(_COLORS)])
            cx = x + bar_w * 0.46
            if std > 0:
                canvas.line(cx, to_y(mean - std), cx, to_y(mean + std), width=1.2)
                for v in (mean - std, mean + std):
                    canvas.line(cx - 4, to_y(v), cx + 4, to_y(v), width=1.2)
            canvas.text(cx, to_y(mean + std) - 5, _fmt(mean), size=10)
        canvas.text(_MARGIN_LEFT + slot * (gi + 0.5), _MARGIN_TOP + _PLOT_H + 18,
                    group, size=11)
    _legend(canvas, [label for label, _, _ in series])
    return canvas.render()


def _box_chart(title: str, y_label: str,
               series: list[tuple[str, np.ndarray]]) -> str:
    """One box per labelled dataset; log decade axis when spreads demand it."""
    canvas = _Canvas(title)
    lo = min(float(v.min()) for _, v in series)
    hi = max(float(v.max()) for _, v in series)
    use_log = lo > 0 and hi / lo > 100.0

    if use_log:
        lo_d = math.floor(math.log10(lo))
        hi_d = math.ceil(math.log10(hi))
        if hi_d == lo_d:
            hi_d += 1

        def to_y(v: float) -> float:
            frac = (math.log10(v) - lo_d) / (hi_d - lo_d)
            return _MARGIN_TOP + _PLOT_H * (1.0 - frac)

        for d in range(lo_d, hi_d + 1):
            y = to_y(10.0 ** d)
            canvas.line(_MARGIN_LEFT, y, _WIDTH - _MARGIN_RIGHT, y, color="#ddd")
            canvas.text(_MARGIN_LEFT - 6, y + 4, f"1e{d}", size=10, anchor="end")
        canvas.line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, _MARGIN_TOP + _PLOT_H)
        canvas.line(_MARGIN_LEFT, _MARGIN_TOP + _PLOT_H,
                    _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP + _PLOT_H)
        canvas.parts.append(
            f'<text x="16" y="{_MARGIN_TOP + _PLOT_H / 2:.1f}" font-size="11" '
            f'text-anchor="middle" transform="rotate(-90 16 '
            f'{_MARGIN_TOP + _PLOT_H / 2:.1f})">{_esc(y_label + " (log)")}</text>'
        )
    else:
        to_y = _y_axis(canvas, hi * 1.15, y_label)

    slot = _PLOT_W / len(series)
    box_w = slot * 0.38
    for i, (label, values) in enumerate(series):
        q0, q1, q2, q3, q4 = np.percentile(values, [0, 25, 50, 75, 100])
        cx = _MARGIN_LEFT + slot * (i + 0.5)
        color = _COLORS[i % len(_COLORS)]
        canvas.line(cx, to_y(q0), cx, to_y(q1), width=1.2)
        canvas.line(cx, to_y(q3), cx, to_y(q4), width=1.2)
        for v in (q0, q4):
            canvas.line(cx - box_w / 4, to_y(v), cx + box_w / 4, to_y(v), width=1.2)
        canvas.rect(cx - box_w / 2, to_y(q3), box_w, to_y(q1) - to_y(q3), color)
        canvas.line(cx - box_w / 2, to_y(q2), cx + box_w / 2, to_y(q2),
                    color="#111", width=1.6)
        canvas.text(cx + box_w / 2 + 6, to_y(q2) + 4, _fmt(q2),
                    size=10, anchor="start")
        canvas.text(cx, _MARGIN_TOP + _PLOT_H + 18, label, size=11)
    return canvas.render()


def render_report_svgs(report: dict, out_dir) -> list[str]:
    """Write the four comparison figures beneath out_dir; returns the paths."""
    agg = report["aggregate"]
    methods = [m for m in ("enqode", "baseline") if m in agg]
    if not methods:
        raise ValueError("report has no compared samples to plot")
    os.makedirs(out_dir, exist_ok=True)

    def bars(fields: list[str], groups: list[str], title: str, y_label: str):
        series = [
            (m,
             [agg[m][f"{f}_mean"] for f in fields],
             [agg[m][f"{f}_std"] for f in fields])
            for m in methods
        ]
        return _grouped_bars(title, y_label, groups, series)

    charts = {
        "depth.svg": bars(["depth"], ["circuit depth"],
                          "Physical circuit depth", "depth"),
        "gate_counts.svg": bars(
            ["one_qubit", "two_qubit", "total_physical"],
            ["one qubit", "two qubit", "total"],
            "Physical gate counts", "gates"),
        "fidelity.svg": bars(
            ["ideal_fidelity", "noisy_fidelity"],
            ["ideal", "noisy"],
            "State preparation fidelity", "fidelity"),
    }

    by_method = {m: [] for m in methods}
    for row in report["samples"]:
        if row["method"] in by_method:
            by_method[row["method"]].append(row["compile_seconds"])
    charts["compile_time.svg"] = _box_chart(
        "Per-sample compile time", "seconds",
        [(m, np.array(by_method[m], dtype=float)) for m in methods
         if by_method[m]])

    paths = []
    for name, svg in charts.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        paths.append(path)
    return paths
