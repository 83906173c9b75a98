"""Deterministic SVG rendering of sweep results.

Mean NMSE on a log axis against the pilot-slot count P, one series per
(scheme, kernel, SNR) combination.  The SVG is assembled as text with no
timestamps or library styling, so the same records always produce the
same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .fileio import _write_new

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 180, 40, 55

PALETTE = ["#1f6fb4", "#d1495b", "#2e8b57", "#8a5bb8", "#d98e04", "#4a4a4a"]
MARKERS = "osd^v*"


def _series(records):
    """Group records into {label: [(P, mean nmse), ...]} sorted by P."""
    groups = {}
    for r in records:
        key = (r.scheme, r.kernel_kind, r.snr_db)
        groups.setdefault(key, {}).setdefault(r.num_timeslots, []).append(r.nmse)
    many_snr = len({k[2] for k in groups}) > 1
    series = {}
    for (scheme, kind, snr), by_p in sorted(groups.items(), key=lambda kv: str(kv[0])):
        label = scheme if not kind else f"{scheme} ({kind})"
        if many_snr:
            label += f" @ {snr:g} dB"
        series[label] = sorted((p, float(np.mean(v))) for p, v in by_p.items())
    return series


def _text(value):
    """``value`` as XML character data: &, < and > escaped, so a title or a
    label such as "NMSE & P" leaves the file well formed."""
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _marker(x, y, shape, color):
    if shape == "o":
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}"/>'
    if shape == "s":
        return f'<rect x="{x - 3:.2f}" y="{y - 3:.2f}" width="6" height="6" fill="{color}"/>'
    pts = {
        "d": [(x, y - 4.5), (x + 4.5, y), (x, y + 4.5), (x - 4.5, y)],
        "^": [(x, y - 4.5), (x + 4.2, y + 3.2), (x - 4.2, y + 3.2)],
        "v": [(x, y + 4.5), (x + 4.2, y - 3.2), (x - 4.2, y - 3.2)],
        "*": [(x, y - 5), (x + 2, y + 4), (x - 5, y - 2), (x + 5, y - 2), (x - 2, y + 4)],
    }[shape]
    joined = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
    return f'<polygon points="{joined}" fill="{color}"/>'


def emit_svg(records, path, title="mean NMSE vs pilot slots"):
    """Render sweep records to an SVG file.

    Raises ValueError if there are no records or a mean NMSE is not a
    positive finite number (the log axis cannot place it).
    """
    series = _series(records)
    if not series:
        raise ValueError("no records to plot")
    all_p = sorted({p for pts in series.values() for p, _ in pts})
    all_v = [v for pts in series.values() for _, v in pts]
    if any(not math.isfinite(v) or v <= 0.0 for v in all_v):
        raise ValueError("mean NMSE values must be positive and finite for a log axis")
    lo_exp = math.floor(math.log10(min(all_v)))
    hi_exp = math.ceil(math.log10(max(all_v)))
    if hi_exp == lo_exp:
        hi_exp += 1
    x0, x1 = min(all_p), max(all_p)
    span_x = max(x1 - x0, 1)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(p):
        return MARGIN_L + plot_w * (p - x0) / span_x

    def sy(v):
        return MARGIN_T + plot_h * (hi_exp - math.log10(v)) / (hi_exp - lo_exp)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_text(title)}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for exp in range(lo_exp, hi_exp + 1):
        y = sy(10.0**exp)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{MARGIN_L + plot_w}" y2="{y:.2f}" '
            f'stroke="#ddd" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>'
        )
    for p in all_p:
        x = sx(p)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{p}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">pilot timeslots P</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.0f})">NMSE</text>'
    )
    for i, (label, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        marker = MARKERS[i % len(MARKERS)]
        coords = " ".join(f"{sx(p):.2f},{sy(v):.2f}" for p, v in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for p, v in pts:
            parts.append(_marker(sx(p), sy(v), marker, color))
        ly = MARGIN_T + 16 + 20 * i
        lx = WIDTH - MARGIN_R + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(_marker(lx + 12, ly - 4, marker, color))
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="11">{_text(label)}</text>'
        )
    parts.append("</svg>")
    _write_new(path, [("\n".join(parts) + "\n").encode("utf-8")])
