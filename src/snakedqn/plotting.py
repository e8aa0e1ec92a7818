"""Deterministic SVG line charts for logged training metrics.

Hand-rolled on purpose: the same CSV must yield byte-identical SVG output,
which rules out plotting libraries that embed timestamps or generated ids.
"""

from __future__ import annotations

import csv

from .harness import CSV_FIELDS

PLOT_KINDS = {"score": "score", "reward": "cumulative_reward"}

ROLLING_WINDOW = 100

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 30, 50  # margins


class MetricsParseError(ValueError):
    """Malformed metrics CSV; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_metrics_csv(path) -> list[dict[str, float]]:
    """The rows of a metrics CSV as ``train`` writes it: the header must be
    exactly the EpisodeMetrics field names, in order."""
    rows: list[dict[str, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MetricsParseError(1, "empty file") from None
        if header != CSV_FIELDS:
            raise MetricsParseError(1, f"bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_FIELDS):
                raise MetricsParseError(lineno, f"expected {len(CSV_FIELDS)} fields, got {len(row)}")
            try:
                rows.append({k: float(v) for k, v in zip(CSV_FIELDS, row)})
            except ValueError as exc:
                raise MetricsParseError(lineno, str(exc)) from None
    if not rows:
        raise MetricsParseError(2, "no data rows")
    return rows


def rolling_mean(values: list[float], window: int = ROLLING_WINDOW) -> list[float]:
    """Trailing-window mean; the window is truncated at the start."""
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def _scale(vals: list[float], lo_px: float, hi_px: float) -> list[float]:
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        return [(lo_px + hi_px) / 2 for _ in vals]
    k = (hi_px - lo_px) / (vmax - vmin)
    return [lo_px + (v - vmin) * k for v in vals]


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def render_chart(xs: list[float], ys: list[float], label: str) -> str:
    """Line chart with a rolling-mean overlay; pure function of the inputs."""
    roll = rolling_mean(ys)
    px = _scale(xs, _ML, _W - _MR)
    py = _scale(ys + roll, _H - _MB, _MT)
    py_raw, py_roll = py[: len(ys)], py[len(ys) :]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_ML}" y="{_H - _MB + 20}" font-size="12">{_fmt(min(xs))}</text>',
        f'<text x="{_W - _MR - 30}" y="{_H - _MB + 20}" font-size="12">{_fmt(max(xs))}</text>',
        f'<text x="5" y="{_H - _MB}" font-size="12">{_fmt(min(ys + roll))}</text>',
        f'<text x="5" y="{_MT + 5}" font-size="12">{_fmt(max(ys + roll))}</text>',
        f'<text x="{_W // 2 - 40}" y="20" font-size="14">{label}</text>',
        f'<text x="{_W // 2 - 30}" y="{_H - 10}" font-size="12">episode</text>',
    ]
    if len(xs) == 1:
        parts.append(
            f'<circle cx="{px[0]:.3f}" cy="{py_raw[0]:.3f}" r="3" fill="steelblue"/>')
    else:
        raw_pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(px, py_raw))
        roll_pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(px, py_roll))
        parts.append(
            f'<polyline points="{raw_pts}" fill="none" stroke="lightsteelblue" stroke-width="1"/>')
        parts.append(
            f'<polyline points="{roll_pts}" fill="none" stroke="crimson" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot(metrics_csv, output_path, kind: str) -> None:
    if kind not in PLOT_KINDS:
        raise ValueError(f"kind must be one of {sorted(PLOT_KINDS)}, got {kind!r}")
    rows = read_metrics_csv(metrics_csv)
    column = PLOT_KINDS[kind]
    xs = [r["episode"] for r in rows]
    ys = [r[column] for r in rows]
    svg = render_chart(xs, ys, label=column.replace("_", " "))
    with open(output_path, "w", newline="") as fh:
        fh.write(svg)
