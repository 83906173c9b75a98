"""Fit the coefficient tables of the numpy Bessel function J_0 in fasbar.kernels.

From the repository root:

    python3 tools/fit_j0.py

prints the two tables that ``fasbar.kernels`` holds as ``_J0_NEAR`` and
``_J0_FAR``, one float per line, ready to paste.  The
construction is Cephes' (Moshier, 1989): a polynomial on [0, 8] and the
Hankel form beyond it,

    J_0(x) = 1 - (x^2 / 4) * g(t),                    t = x^2 / 32 - 1,  x <= 8
    J_0(x) = sqrt(2 / (pi x)) * (P cos chi - Q sin chi),  chi = x - pi/4,  x > 8
    Q(x) = (8 / x) * q(s),                            s = 2 (8/x)^2 - 1

with g, P and q Chebyshev series in t or s on [-1, 1].  Writing J_0 near 0
as 1 minus a multiple of x^2 makes J_0(0) exactly 1.  Each series
interpolates its function at 64 Chebyshev nodes, evaluated with mpmath at
40 digits, where P and Q come from J_0 and Y_0 through

    P = sqrt(pi x / 2) (J_0 cos chi + Y_0 sin chi)
    Q = sqrt(pi x / 2) (Y_0 cos chi - J_0 sin chi).

A series keeps its coefficients up to the last one above ``CUTOFF``; every
later one is smaller, so the tail it drops is far below a float64 ulp of
J_0.  The script needs mpmath, which the package itself does not.
"""

import mpmath as mp

mp.mp.dps = 40

NODES = 64
#: the smallest coefficient a table keeps
CUTOFF = 1e-18


def chebyshev(f, nodes=NODES):
    """Coefficients c_k of the degree nodes - 1 interpolant sum c_k T_k of f
    on [-1, 1], from its values at the Chebyshev points of the first kind."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / nodes for j in range(nodes)]
    values = [f(mp.cos(a)) for a in theta]
    coeffs = [2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, theta)) / nodes for k in range(nodes)]
    coeffs[0] /= 2
    return coeffs


def truncated(coeffs):
    keep = max(k for k, c in enumerate(coeffs) if abs(c) > CUTOFF)
    return coeffs[: keep + 1]


def near(t):
    """g(t) = 4 (1 - J_0(x)) / x^2 at x^2 = 32 (t + 1)."""
    u = 32 * (t + 1)
    return mp.mpf(1) if u == 0 else 4 * (1 - mp.besselj(0, mp.sqrt(u))) / u


def hankel(s):
    """(P, q) at x = 8 / sqrt((s + 1) / 2)."""
    x = 8 / mp.sqrt((s + 1) / 2)
    chi = x - mp.pi / 4
    j0, y0 = mp.besselj(0, x), mp.bessely(0, x)
    scale = mp.sqrt(mp.pi * x / 2)
    return scale * (j0 * mp.cos(chi) + y0 * mp.sin(chi)), scale * (y0 * mp.cos(chi) - j0 * mp.sin(chi)) * x / 8


def main():
    print("_J0_NEAR = np.array([")
    for c in truncated(chebyshev(near)):
        print(f"    {float(c)!r},")
    print("])")
    # P and q share one table, row k holding their k-th coefficients, so
    # one recurrence sums both; the shorter series is padded with zeros
    p, q = (truncated(chebyshev(lambda s, i=i: hankel(s)[i])) for i in (0, 1))
    size = max(len(p), len(q))
    p, q = (c + [0] * (size - len(c)) for c in (p, q))
    print("_J0_FAR = np.array([")
    for a, b in zip(p, q):
        print(f"    [{float(a)!r}, {float(b)!r}],")
    print("])")


if __name__ == "__main__":
    main()
