"""Independent reference answers, computed from the benchmark's own specs.

Nothing here imports tcalgebra.  The 2x2 interpreter evaluates an
expression spec pointwise from the generator images

    C -> [[0, sqrt t], [0, 0]],   S -> [[0, 0], [sqrt t / s, 0]],
    T{w} -> diag(w(zeta), w(eta)),   ' -> conjugate transpose,

on the interval, and T{w} -> w(lam) I, C, S -> 0 on the circle.  The
finite sections come from Cauchy integrals on the circle: column j of the
compression of C_phi holds the Taylor coefficients of phi^j, taken by FFT.
"""

import numpy as np

from gen import MapSpec


def trig(symbol, z):
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for n, c in symbol:
        out = out + c * z**n
    return out


def sample_points(rng: np.random.Generator, m: MapSpec, interval: int = 3, circle: int = 2):
    """Points of the symbol space: interval t in (0, s], the triple point, circle points."""
    pts = [("interval", float(t)) for t in rng.uniform(0.05, 1.0, interval) * m.s]
    pts.append(("triple", 0.0))
    while len(pts) < interval + 1 + circle:
        lam = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        if min(abs(lam - m.zeta), abs(lam - m.eta)) > 1e-3:
            pts.append(("circle", lam))
    return pts


# ---------------------------------------------------------------------------
# pointwise 2x2 interpreter


def _generator(name: str, r, s: float):
    """Interval images of the four generators at r = sqrt(t); r broadcasts."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape + (2, 2), dtype=complex)
    if name == "C":
        out[..., 0, 1] = r
    elif name == "C'":
        out[..., 1, 0] = r
    elif name == "S":
        out[..., 1, 0] = r / s
    elif name == "S'":
        out[..., 0, 1] = r / s
    else:
        raise ValueError(f"unknown generator {name!r}")
    return out


def interval_matrices(expr, m: MapSpec, ts) -> np.ndarray:
    """Symbol of the expression at interval points ts (t = 0 is the triple point)."""
    ts = np.asarray(ts, dtype=float)
    r = np.sqrt(ts)
    total = np.zeros(ts.shape + (2, 2), dtype=complex)
    for coeff, factors in expr:
        acc = np.broadcast_to(np.eye(2, dtype=complex), ts.shape + (2, 2)).copy()
        for f in factors:
            if isinstance(f, str):
                mat = _generator(f, r, m.s)
            else:
                mat = np.zeros(ts.shape + (2, 2), dtype=complex)
                mat[..., 0, 0] = trig(f[1], m.zeta)
                mat[..., 1, 1] = trig(f[1], m.eta)
            acc = acc @ mat
        total += coeff * acc
    return total


def circle_values(expr, lams) -> np.ndarray:
    """Scalar symbol on the circle: words with a generator vanish there."""
    lams = np.asarray(lams, dtype=complex)
    total = np.zeros(lams.shape, dtype=complex)
    for coeff, factors in expr:
        if any(isinstance(f, str) for f in factors):
            continue
        acc = np.ones(lams.shape, dtype=complex)
        for f in factors:
            acc = acc * trig(f[1], lams)
        total += coeff * acc
    return total


def expr_at(expr, m: MapSpec, point) -> np.ndarray:
    kind, val = point
    if kind == "circle":
        return complex(circle_values(expr, val)) * np.eye(2, dtype=complex)
    return interval_matrices(expr, m, np.array([val]))[0]


def expr_scale(expr, m: MapSpec, point) -> float:
    """Sum over words of |coeff| times the product of factor norms."""
    total = 0.0
    for coeff, factors in expr:
        prod = abs(coeff)
        for f in factors:
            prod *= float(np.linalg.norm(expr_at(((1.0, (f,)),), m, point), 2))
        total += prod
    return 1.0 + total


# ---------------------------------------------------------------------------
# quintuples as raw coefficient data


def half_value(pq, t: float) -> complex:
    """p(t) + sqrt(t) q(t); pq = (p, q) with coefficients in increasing degree."""
    p, q = pq
    pv = np.polyval(np.asarray(p, dtype=complex)[::-1], t) if len(p) else 0j
    qv = np.polyval(np.asarray(q, dtype=complex)[::-1], t) if len(q) else 0j
    return complex(pv + np.sqrt(t) * qv)


def quintuple_at(q, m: MapSpec, point) -> np.ndarray:
    """q = (w, f, g, h, k): w as ((n, c), ...), the rest as (p, q) pairs."""
    w, f, g, h, k = q
    kind, val = point
    if kind == "circle":
        return complex(trig(w, val)) * np.eye(2, dtype=complex)
    wz, we = complex(trig(w, m.zeta)), complex(trig(w, m.eta))
    if kind == "triple":
        return np.diag([wz, we]).astype(complex)
    t = val
    return np.array(
        [[wz + half_value(g, t), half_value(h, t)], [half_value(k, t), we + half_value(f, t)]],
        dtype=complex,
    )


def quintuple_scale(q, m: MapSpec, point) -> float:
    return 1.0 + float(np.linalg.norm(quintuple_at(q, m, point), 2))


# ---------------------------------------------------------------------------
# finite sections


def _fft_length(n: int) -> int:
    return 1 << max(8, int(np.ceil(np.log2(4 * n))))


def power_coefficients(coeffs, n: int, columns) -> np.ndarray:
    """First n Taylor coefficients of phi^j for each j in columns, shape (n, len(columns))."""
    a, b, c, d = coeffs
    length = _fft_length(n)
    z = np.exp(2j * np.pi * np.arange(length) / length)
    v = (a * z + b) / (c * z + d)
    powers = v[None, :] ** np.asarray(columns)[:, None]
    return (np.fft.fft(powers, axis=1)[:, :n] / length).T


def composition_matrix(coeffs, n: int) -> np.ndarray:
    return power_coefficients(coeffs, n, np.arange(n))


def toeplitz(symbol, n: int) -> np.ndarray:
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    out = np.zeros((n, n), dtype=complex)
    for freq, c in symbol:
        out[diff == freq] = c
    return out


def expr_matrix(expr, m: MapSpec, n: int, sections=composition_matrix) -> np.ndarray:
    """n x n section of the expression, products of the generators' sections.

    `sections(coeffs, n)` supplies the composition matrices, so a caller
    can cache them across expressions.
    """
    total = np.zeros((n, n), dtype=complex)
    for coeff, factors in expr:
        acc = np.eye(n, dtype=complex)
        for f in factors:
            if isinstance(f, str):
                mat = sections(m.coeffs if f[0] == "C" else m.sigma_coeffs(), n)
                mat = mat.conj().T if f.endswith("'") else mat
            else:
                mat = toeplitz(f[1], n)
            acc = acc @ mat
        total += coeff * acc
    return total


# ---------------------------------------------------------------------------
# dense-grid sweeps


def _extreme(fn, lo, hi, wrap, sign, rounds):
    """sign * max of sign * fn over [lo, hi]: a dense grid, then local refinements."""
    best = -np.inf
    xs = np.linspace(lo, hi, 4001, endpoint=not wrap)
    for _ in range(rounds):
        vals = sign * fn(xs)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        step = xs[1] - xs[0]
        a, b = xs[i] - 2 * step, xs[i] + 2 * step
        if not wrap:
            a, b = max(lo, a), min(hi, b)
        xs = np.linspace(a, b, 401)
    return sign * best


def _interval_fn(expr, m, reduce):
    return lambda ts: reduce(interval_matrices(expr, m, ts))


def _circle_fn(expr):
    return lambda theta: np.abs(circle_values(expr, np.exp(1j * theta)))


def essential_sup(expr, m: MapSpec) -> float:
    """Sup of the pointwise 2x2 operator norm (np.linalg.norm(., 2)) over the symbol space."""
    norm2 = _interval_fn(expr, m, lambda mats: np.linalg.norm(mats, 2, axis=(-2, -1)))
    return max(
        _extreme(norm2, 0.0, m.s, False, 1, 3),
        _extreme(_circle_fn(expr), 0.0, 2 * np.pi, True, 1, 3),
    )


def fredholm_margin(expr, m: MapSpec) -> float:
    """min(min |w| on the circle, min |det| on the interval), refined to about 1e-13 in t."""
    det = _interval_fn(expr, m, lambda mats: np.abs(np.linalg.det(mats)))
    return min(
        _extreme(det, 0.0, m.s, False, -1, 6),
        _extreme(_circle_fn(expr), 0.0, 2 * np.pi, True, -1, 6),
    )


def spectrum_curves(expr, m: MapSpec, points: int):
    """Essential spectrum sampled at `points` parameters per part.

    Returns the circle values of w (closed curve, shape (points,)) and the
    two interval eigenvalues (shape (points, 2)).
    """
    mats = interval_matrices(expr, m, np.linspace(0.0, m.s, points))
    wvals = circle_values(expr, np.exp(2j * np.pi * np.arange(points) / points))
    return wvals, np.linalg.eigvals(mats)


def curve_gap(wvals: np.ndarray, eigs: np.ndarray) -> float:
    """Largest step between consecutive samples of the sampled spectrum.

    For the eigenvalue pairs the step is the matching distance between the
    sets at neighbouring parameters, so a branch swap costs nothing.
    """
    circle = np.abs(np.diff(np.append(wvals, wvals[:1])))
    e, f = eigs[:-1], eigs[1:]
    d0 = np.minimum(np.abs(e[:, 0] - f[:, 0]), np.abs(e[:, 0] - f[:, 1]))
    d1 = np.minimum(np.abs(e[:, 1] - f[:, 0]), np.abs(e[:, 1] - f[:, 1]))
    return float(max(np.max(circle), np.max(np.maximum(d0, d1))))


def nearest_distance(points: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest member of the cloud."""
    cloud = np.asarray(cloud, dtype=complex)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        out[i] = np.min(np.abs(cloud - p))
    return out
