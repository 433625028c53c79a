"""Independent numerical oracles for the distance-map calculus.

The primary oracle computes E_w E_l [(h(u+w) - h(u+l+w))^2] by direct 2-D
integration: the inner integral over the dither w is done with composite
Gauss-Legendre split at the map's jump points, and the outer integral over
the projected distance l uses the *wrapped* density of l on one period
(exact closed forms for both families).  No Fourier coefficients, no
characteristic-function series: a fully separate derivation path.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss


def map_breakpoints(m):
    if m.kind == "square":
        return [0.0, 0.5]
    if m.kind == "sawtooth":
        return [0.0]
    if m.kind == "mixture":
        return []
    return sorted(t0 for t0, _, _ in m.constant_pieces())


def wrapped_density(spec, d, tau):
    """Density of (l mod 1) at signal distance d, vectorized over tau."""
    tau = np.asarray(tau, dtype=np.float64)
    if spec.family == "gaussian":
        s = spec.scale * d
        kmax = int(math.ceil(6 * s)) + 2
        ns = np.arange(-kmax, kmax + 1)
        z = (tau[..., None] + ns) / s
        return np.sum(np.exp(-0.5 * z * z), axis=-1) / (s * math.sqrt(2 * math.pi))
    c = spec.scale * d
    rho = math.exp(-2.0 * math.pi * c)
    return (1.0 - rho * rho) / (1.0 + rho * rho - 2.0 * rho * np.cos(2 * math.pi * tau))


def _gl_panel_rows(edges, nodes):
    """Composite Gauss-Legendre nodes and weights on each row of panel edges.

    A panel no wider than 1e-14 keeps its nodes with zero weight, so that
    every row has as many nodes.
    """
    x, w = leggauss(nodes)
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    half = np.where(b - a > 1e-14, 0.5 * (b - a), 0.0)
    n = len(edges)
    return (0.5 * (a + b) + half * x).reshape(n, -1), (half * w).reshape(n, -1)


def _gl_panels(edges, nodes):
    """Composite Gauss-Legendre on one row of edges, panels no wider than 1e-14 dropped."""
    ws, wts = _gl_panel_rows(np.asarray(edges, dtype=np.float64)[None], nodes)
    keep = wts[0] != 0.0
    return ws[0][keep], wts[0][keep]


# taus x quadrature nodes per block of pair_sq_integrals (2^17 float64 is 1 MiB)
_PAIR_BLOCK = 1 << 17


def pair_sq_integrals(m, taus, nodes=8, smooth_panels=128):
    """I(tau) = int_0^1 (h(w) - h(w + tau))^2 dw at each shift of taus.

    For each tau the panels end at the jumps of h(w) and of h(w + tau);
    equal edges give a zero-width panel, which carries no weight.
    """
    taus = np.asarray(taus, dtype=np.float64)
    breaks = np.array(map_breakpoints(m))
    cols = nodes * (2 * len(breaks) if len(breaks) else smooth_panels)
    out = np.empty(len(taus))
    step = max(1, _PAIR_BLOCK // cols)
    for lo in range(0, len(taus), step):
        tau = taus[lo:lo + step, None]
        if not len(breaks):  # smooth map: uniform composite rule
            edges = np.broadcast_to(np.linspace(0.0, 1.0, smooth_panels + 1),
                                    (len(tau), smooth_panels + 1))
        else:
            own = np.broadcast_to(breaks % 1.0, (len(tau), len(breaks)))
            pts = np.sort(np.concatenate([own, (breaks - tau) % 1.0], axis=1), axis=1)
            edges = np.concatenate([pts, pts[:, :1] + 1.0], axis=1)
        ws, wts = _gl_panel_rows(edges, nodes)
        out[lo:lo + step] = np.vecdot((m(ws) - m(ws + tau)) ** 2, wts)
    return out


def oracle_distance_map(m, spec, d, nodes=8):
    """E[(y - y')^2] at signal distance d by 2-D quadrature."""
    if d == 0.0:
        return 0.0
    breaks = map_breakpoints(m)
    kinks = sorted({(a - b) % 1.0 for a in breaks for b in breaks} | {0.0, 1.0})
    # resolve the wrapped-density peak (width ~ scale*d around 0 and 1)
    width = min(max(spec.scale * d / 8.0, 1e-4), 1.0 / 64.0)
    edges = [0.0]
    for a, b in zip(kinks[:-1], kinks[1:]):
        nsub = max(1, int(math.ceil((b - a) / width)))
        edges.extend(a + (b - a) * (i + 1) / nsub for i in range(nsub))
    edges = np.array(edges)
    taus, wts = _gl_panels(edges, nodes)
    dens = wrapped_density(spec, d, taus)
    mass = float(dens @ wts)
    assert abs(mass - 1.0) < 1e-6, "wrapped density does not integrate to 1"
    ivals = pair_sq_integrals(m, taus, nodes=nodes)
    return float((dens * ivals) @ wts)


def oracle_power(m):
    """int_0^1 h(t)^2 dt by breakpoint-aware Gauss-Legendre quadrature."""
    breaks = map_breakpoints(m)
    if not breaks:
        edges = np.linspace(0.0, 1.0, 257)
    else:
        pts = sorted({b % 1.0 for b in breaks})
        lst = pts + [pts[0] + 1.0]
        edges = []
        for a, b in zip(lst[:-1], lst[1:]):
            nsub = max(1, int(math.ceil((b - a) * 64)))
            edges.extend(a + (b - a) * i / nsub for i in range(nsub))
        edges.append(lst[-1])
        edges = np.array(edges)
    ws, wts = _gl_panels(np.asarray(edges), 12)
    return float((m(ws) ** 2) @ wts)


def mc_distance_map(m, spec, d, n, rs, stream="montecarlo:oracle"):
    """Monte Carlo oracle: mean (h(w) - h(w + l))^2 over random (w, l)."""
    from uemb.randproj import projected_diff_samples

    w = rs.uniform(stream + ":w", n)
    l = projected_diff_samples(spec, d, n, rs, stream=stream + ":l")
    return float(np.mean((m(w) - m(w + l)) ** 2))
