"""The net-worth search's oracle: a golden-section search over every whole
bracket, with every candidate evaluated, as `dp.golden_max` searched before
it settled worths at their best candidate.

`golden_section` maximizes an objective of one array of points per element,
f(z). `full_search` has `dp.golden_max`'s signature and runs
`golden_section` whatever its `concave` says, so a solve can be searched by
the oracle (monkeypatch it over `dp.golden_max`).

Not a test module: the tests import it as they import conftest.
"""

import numpy as np

from cashstock.dp import _smallest_argmax

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol, candidates=()):
    """Maximize per-element concave f over [lo, hi] by golden-section search.

    `candidates` are extra per-element points (clipped to the bracket) that
    are evaluated exactly, covering kinks the section may straddle. Ties
    within a relative 1e-9 prefer the smaller argument.
    Returns (argmax, value).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), lo.shape).copy()
    hi = np.maximum(hi, lo)
    a, b = lo.copy(), hi.copy()
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    width = float(np.max(b - a, initial=0.0))
    n_iter = int(np.ceil(np.log(tol / width) / np.log(_INVPHI))) if width > tol else 0
    for _ in range(n_iter):
        left = f1 >= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        x1n = np.where(left, b - _INVPHI * (b - a), x2)
        x2n = np.where(left, x1, a + _INVPHI * (b - a))
        fnew = f(np.where(left, x1n, x2n))
        f1, f2 = np.where(left, fnew, f2), np.where(left, f1, fnew)
        x1, x2 = x1n, x2n
    z_stack = [np.where(f1 >= f2, x1, x2), lo]
    for cand in candidates:
        z_stack.append(np.clip(np.broadcast_to(np.asarray(cand, dtype=float), lo.shape), lo, hi))
    zs = np.stack(z_stack)
    fs = np.stack([np.where(f1 >= f2, f1, f2)] + [f(zc) for zc in zs[1:]])
    return _smallest_argmax(zs, fs)


def full_search(f, lo, hi, tol, candidates=(), *, concave):
    """`golden_section` in `dp.golden_max`'s place: f(z, at) is called on
    every element at once, and `concave` is ignored."""
    every = np.arange(np.size(lo))
    return golden_section(lambda z: f(z, every), lo, hi, tol, candidates)
