"""Hand-emitted SVG scatter of localizer eigenvalues.

One panel, eigenvalues sorted ascending along the x-axis: negative
values as blue circles, positive as orange circles, and the surplus of
the majority sign (the |signature| eigenvalues of the majority sign
closest to zero, signature as given by the caller) as red diamonds.
"""

import numpy as np

_WIDTH, _HEIGHT, _MARGIN = 480, 320, 45


def _scale(values, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return [(out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)) for v in values]


def eigenvalue_scatter(eigenvalues, sig: int, title: str = "") -> str:
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    n = len(eigs)

    xs = _scale(range(n), 0, max(n - 1, 1), _MARGIN, _WIDTH - _MARGIN)
    lo, hi = float(eigs.min()), float(eigs.max())
    pad = 0.05 * (hi - lo or 1.0)
    ys = _scale(eigs, lo - pad, hi + pad, _HEIGHT - _MARGIN, _MARGIN)

    # surplus: the |sig| majority-sign eigenvalues nearest zero
    surplus = set()
    if sig > 0:
        surplus = set(np.where(eigs > 0)[0][:sig])
    elif sig < 0:
        surplus = set(np.where(eigs < 0)[0][sig:])

    zero_y = _scale([0.0], lo - pad, hi + pad, _HEIGHT - _MARGIN, _MARGIN)[0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{zero_y:.2f}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{zero_y:.2f}" stroke="#888" stroke-dasharray="4 3"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    parts.append(
        f'<text x="12" y="{_HEIGHT / 2:.0f}" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 12 {_HEIGHT / 2:.0f})" text-anchor="middle">eigenvalue</text>'
    )
    for i, (x, y, v) in enumerate(zip(xs, ys, eigs)):
        if i in surplus:
            parts.append(
                f'<path d="M {x:.2f} {y - 5:.2f} L {x + 5:.2f} {y:.2f} '
                f'L {x:.2f} {y + 5:.2f} L {x - 5:.2f} {y:.2f} Z" fill="#d62728"/>'
            )
        else:
            color = "#1f77b4" if v < 0 else "#ff7f0e"
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}"/>')
    parts.append(
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - 14}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">signature = {sig}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
