"""Static SVG pictures of two dimensional slices of the parameter space.

A slice holds every coordinate of a base point fixed except the pair
(beta_i, omega_i) of one chosen curve.  Within that plane each positive
root with nonzero coordinate on the chosen curve cuts a horizontal wall
line, punctured at the forbidden points where the root pairs integrally
with beta.  An optional piecewise linear path is drawn as a polyline and
lift crossings as labelled markers.

All geometry is computed in exact rationals; floats appear only in the
final SVG coordinate strings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence

from .charge import ComplexDivisor
from .covering import TraceEvent
from .errors import IndexOutOfRange, UnsupportedSlice
from .lattice import RootLattice

WIDTH = 640
HEIGHT = 480
MARGIN = 40


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _View:
    """Affine map from slice coordinates to pixel coordinates."""

    def __init__(self, bmin: Fraction, bmax: Fraction, wmin: Fraction, wmax: Fraction):
        self.bmin, self.bmax = bmin, bmax
        self.wmin, self.wmax = wmin, wmax
        self.inner_w = WIDTH - 2 * MARGIN
        self.inner_h = HEIGHT - 2 * MARGIN

    def x(self, b: Fraction) -> float:
        return MARGIN + float((b - self.bmin) / (self.bmax - self.bmin)) * self.inner_w

    def y(self, w: Fraction) -> float:
        return MARGIN + float((self.wmax - w) / (self.wmax - self.wmin)) * self.inner_h


def _wall_levels(lat: RootLattice, base: ComplexDivisor, i0: int):
    """Horizontal wall lines cut by positive roots on the slice plane.

    Returns (root, level, offset) triples: the wall sits at omega_i = level
    and its punctures sit where beta_i * v_i + offset is an integer.
    """
    walls = []
    for r in lat.positive_roots():
        v = r.coords
        c = sum(base.omega[j] * v[j] for j in range(lat.n) if j != i0)
        d = sum(base.beta[j] * v[j] for j in range(lat.n) if j != i0)
        if v[i0] == 0:
            if c == 0:
                raise UnsupportedSlice(
                    f"slice plane lies inside the wall of root {v}"
                )
            continue
        walls.append((r, Fraction(c, -v[i0]), Fraction(d)))
    return walls


def _punctures(vi: int, offset: Fraction, bmin: Fraction, bmax: Fraction) -> List[Fraction]:
    # beta_i * vi + offset integral, spacing 1/|vi|
    lo = math.ceil(bmin * vi + offset) if vi > 0 else math.ceil(bmax * vi + offset)
    hi = math.floor(bmax * vi + offset) if vi > 0 else math.floor(bmin * vi + offset)
    return sorted(Fraction(m - offset, vi) for m in range(lo, hi + 1))


def plot_slice(
    lat: RootLattice,
    base: ComplexDivisor,
    curve: int = 1,
    path: Optional[Sequence[ComplexDivisor]] = None,
    trace: Sequence[TraceEvent] = (),
) -> str:
    """Render the (beta_i, omega_i) slice through a base point as SVG text."""
    n = lat.n
    if not 1 <= curve <= n:
        raise IndexOutOfRange(f"curve index {curve} not in 1..{n}")
    i0 = curve - 1
    if len(base.beta) != n:
        raise UnsupportedSlice("base point does not match the lattice rank")
    pts = list(path) if path else []
    for p in pts:
        for j in range(n):
            if j != i0 and (p.beta[j] != base.beta[j] or p.omega[j] != base.omega[j]):
                raise UnsupportedSlice(
                    "path leaves the plotted slice in coordinate "
                    f"{j + 1}"
                )

    walls = _wall_levels(lat, base, i0)

    betas = [base.beta[i0]] + [p.beta[i0] for p in pts]
    omegas = [base.omega[i0]] + [p.omega[i0] for p in pts]
    omegas += [level for _, level, _ in walls]
    bmin = Fraction(math.floor(min(betas)) - 1)
    bmax = Fraction(math.ceil(max(betas)) + 1)
    wmin = Fraction(math.floor(min(omegas)) - 1)
    wmax = Fraction(math.ceil(max(omegas)) + 1)
    view = _View(bmin, bmax, wmin, wmax)

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    beta_s = ",".join(str(x) for x in base.beta)
    omega_s = ",".join(str(x) for x in base.omega)
    out.append(
        f'<text x="{MARGIN}" y="20" font-size="12" fill="#333333">'
        f"slice curve {curve} | base beta=({beta_s}) omega=({omega_s})</text>"
    )

    for r, level, offset in walls:
        if not wmin <= level <= wmax:
            continue
        y = _fmt(view.y(level))
        out.append(
            f'<line x1="{_fmt(view.x(bmin))}" y1="{y}" x2="{_fmt(view.x(bmax))}" '
            f'y2="{y}" stroke="#999999" stroke-width="1"/>'
        )
        label = ",".join(str(c) for c in r.coords)
        out.append(
            f'<text x="4" y="{y}" font-size="10" fill="#999999">({label})</text>'
        )
        for b in _punctures(r.coords[i0], offset, bmin, bmax):
            out.append(
                f'<circle cx="{_fmt(view.x(b))}" cy="{y}" r="3" fill="#222222"/>'
            )

    if pts:
        coords = " ".join(
            f"{_fmt(view.x(p.beta[i0]))},{_fmt(view.y(p.omega[i0]))}" for p in pts
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#0066cc" '
            'stroke-width="1.5"/>'
        )

    for ev in trace:
        x = _fmt(view.x(ev.point.beta[i0]))
        y = _fmt(view.y(ev.point.omega[i0]))
        out.append(
            f'<circle cx="{x}" cy="{y}" r="4" fill="none" stroke="#cc3300" '
            'stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{x}" y="{y}" dx="6" dy="-4" font-size="10" fill="#cc3300">'
            f"{ev.action} {ev.curve},{ev.strip}</text>"
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
