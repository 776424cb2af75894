import math

import mpmath as mp
import numpy as np
import pytest

import chargedgauss as cg
from chargedgauss import orthopoly, planarquad


@pytest.fixture(scope="session")
def cavity_potential():
    """Single-charge configuration whose cavity sits inside the outer disk."""
    return cg.PerturbedPotential(
        alpha=0.5, nu=cg.PointChargeMeasure(((0.3, 0.5),)), N=4.0, gamma=2.0)


@pytest.fixture(scope="session")
def cavity_grid(cavity_potential):
    return planarquad.build_grid(cavity_potential, orders=(24, 128),
                                 max_degree=24)


@pytest.fixture(scope="session")
def cavity_ops(cavity_potential, cavity_grid):
    return orthopoly.build_orthopolys(cavity_potential, cavity_grid, 12)


@pytest.fixture(scope="session")
def radial_potential():
    return cg.PerturbedPotential(alpha=0.5, nu=cg.EMPTY_MEASURE, N=2.0,
                                 gamma=2.0)


@pytest.fixture(scope="session")
def radial_grid(radial_potential):
    return planarquad.build_grid(radial_potential, orders=(24, 64),
                                 max_degree=24)


@pytest.fixture(scope="session")
def exterior_map():
    return cg.solve_exterior_map(0.5, 0.5, 2.0)


def _exact_gram(p, n, dps=60):
    """Gram matrix G[j, k] = <z^j, z^k>, j, k <= n, in mpmath at dps digits,
    of a weight in the exact-moment class: w = |A(z)|^2 |z|^(2s)
    exp(-na |z|^2), A = prod (z - a)^(c_a) over the charges off 0 with
    c_a = N*beta_a/2 an integer, s = N*beta_0/2 for a charge at 0 and
    na = N*alpha.  With A = sum_q A_q z^q and the radial moments
    M_m = pi Gamma(m + s + 1)/na^(m + s + 1), G[j, k] is
    sum_q A_q conj(A_(q + j - k)) M_(j + q) for j >= k; it vanishes for
    j - k > deg A."""
    with mp.workdps(dps):
        A = [mp.mpc(1)]
        for a, b in p.nu.charges:
            if a != 0:
                for _ in range(int(0.5 * p.N * b)):
                    A = [x - mp.mpc(a) * y for x, y in zip([0] + A, A + [0])]
        c = len(A) - 1
        s = mp.mpf(0.5 * p.N * sum(b for a, b in p.nu.charges if a == 0))
        na = mp.mpf(p.N * p.alpha)
        M = [mp.pi * mp.gamma(m + s + 1) / na ** (m + s + 1)
             for m in range(n + c + 1)]
        G = mp.zeros(n + 1, n + 1)
        for j in range(n + 1):
            for k in range(max(0, j - c), j + 1):
                d = j - k
                G[j, k] = mp.fsum(A[q] * mp.conj(A[q + d]) * M[j + q]
                                  for q in range(c + 1 - d))
                G[k, j] = mp.conj(G[j, k])
        return G


@pytest.fixture(scope="session")
def exact_gram():
    return _exact_gram


def _absolute_moment(grid, k):
    """int |z|^k exp(-N*V) dm on the grid."""
    if k < 0 or k != int(k):
        raise ValueError("moment order must be a nonnegative integer")
    return float(np.sum(grid.measure_weights
                        * np.abs(grid.nodes) ** planarquad.LD(k)))


@pytest.fixture(scope="session")
def absolute_moment():
    return _absolute_moment


def _schwarz_value(geom, zeta):
    """S of an exterior map at the sheet parameter zeta: rho/zeta + conj(u)
    + conj(v)*zeta/(1 - conj(A)*zeta); equals conj(f(zeta)) on |zeta|=1.
    zeta is an array or a Python complex."""
    u, v, A = (complex(c).conjugate() for c in (geom.u, geom.v, geom.A))
    return float(geom.rho) / zeta + u + v * zeta / (1.0 - A * zeta)


@pytest.fixture(scope="session")
def schwarz_value():
    return _schwarz_value


def _radial_norm_oracle(p, k):
    """Closed-form h_k for radial weights: pi*Gamma(k + N*beta/2 + 1) /
    (N*alpha)^(k + N*beta/2 + 1), with beta = 0 for the empty measure."""
    beta = 0.0
    if p.nu.charges:
        if len(p.nu.charges) != 1 or p.nu.charges[0][0] != 0:
            raise ValueError("oracle only valid for the radial cases")
        beta = p.nu.charges[0][1]
    s = k + p.N * beta / 2.0 + 1.0
    return math.pi * math.exp(math.lgamma(s) - s * math.log(p.N * p.alpha))


@pytest.fixture(scope="session")
def radial_norm_oracle():
    return _radial_norm_oracle
