"""Derive the rational coefficients of ``itslab._special`` with mpmath.

Run ``python tests/_fit_special.py`` (about 30 s); it prints each piece's
(numerator, denominator) coefficients, highest degree first, as
``_special.py`` holds them, and the largest relative error of each fit.
Each fit minimises the relative error max |P/Q - f| / |f| over Chebyshev
points, by Sanathanan-Koerner iterations (a weighted linear least-squares
problem for f Q - P, divided by the previous Q) with Lawson reweighting
towards the minimax solution, at 60 digits. The forms are those of W. J.
Cody, Math. Comp. 23 (1969) 631:

- erf(z) / (2 z) = P(z^2) / Q(z^2) on 0 <= z <= 1/2;
- erfcx(z) = e^{z^2} erfc(z) = P(z) / Q(z) on 1/2 <= z <= 4;
- erfcx(z) = (1/sqrt(pi) + w P(w) / Q(w)) / z with w = 1/z^2, on z >= 4.
"""

import mpmath as mp

mp.mp.dps = 60


def _erfcx(z):
    return mp.erfc(z) * mp.exp(z * z)


def _small(t):
    return mp.erf(mp.sqrt(t)) / (2 * mp.sqrt(t)) if t else 1 / mp.sqrt(mp.pi)


def _large(w):
    if not w:
        return -1 / (2 * mp.sqrt(mp.pi))
    z = 1 / mp.sqrt(w)
    return (_erfcx(z) * z - 1 / mp.sqrt(mp.pi)) / w


PIECES = {
    "_ERF_SMALL": (_small, 0, mp.mpf(1) / 4, 4, 3),
    "_ERFCX_MID": (_erfcx, mp.mpf(1) / 2, 4, 7, 7),
    "_ERFCX_LARGE": (_large, 0, mp.mpf(1) / 16, 5, 5),
}


def fit(f, a, b, m, n, points=300, iterations=60):
    """(max relative error, P, Q) of degrees (m, n), Q(0) = 1, constant term first."""
    ts = [(a + b) / 2 + (b - a) / 2 * mp.cos(mp.pi * (i + mp.mpf(1) / 2) / points)
          for i in range(points)]
    fs = [f(t) for t in ts]
    weight = [mp.mpf(1)] * points
    q_prev = [mp.mpf(1)] * points
    best = None
    for _ in range(iterations):
        rows, rhs = [], []
        for t, ft, w, qp in zip(ts, fs, weight, q_prev):
            s = mp.sqrt(w) / abs(ft * qp)
            rows.append([-s * t**j for j in range(m + 1)] + [s * ft * t**j for j in range(1, n + 1)])
            rhs.append(-s * ft)
        x = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))[0]
        p = [x[j] for j in range(m + 1)]
        q = [mp.mpf(1)] + [x[m + 1 + j] for j in range(n)]
        q_prev = [mp.polyval(q[::-1], t) for t in ts]
        err = [(mp.polyval(p[::-1], t) / qt - ft) / ft for t, ft, qt in zip(ts, fs, q_prev)]
        worst = max(abs(e) for e in err)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        total = sum(w * abs(e) for w, e in zip(weight, err))
        weight = [w * abs(e) / total for w, e in zip(weight, err)]
    return best


if __name__ == "__main__":
    for name, (f, a, b, m, n) in PIECES.items():
        worst, p, q = fit(f, a, b, m, n)
        print(f"# max relative error of the fit {mp.nstr(worst, 3)}")
        print(f"{name} = (")
        for coef in (p, q):
            print("    (" + ", ".join(repr(float(c)) for c in coef[::-1]) + "),")
        print(")")
