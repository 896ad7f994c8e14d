"""The cutoff walk from its dense start against a plain ascending walk over
the same grid: both models accept the same cutoff with the same bits."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.double_ed import (DoubleEDBasis, converge_cutoff_double,
                               photon_moments_double)
from hpdicke.ed import (DEFAULT_SEED, EDBasis, converge_cutoff,
                        photon_moments_ed)

pytestmark = pytest.mark.filterwarnings(
    "ignore::hpdicke.errors.CutoffWarning")


def _ascending_walk(p, basis, tol=1e-8, seed=DEFAULT_SEED):
    """The first accepted cutoff of n0 / 2^k cheapest first, then
    n0 * 2^k: converged at n and hp within tol of hp(ceil(1.25 n))."""
    build, solve, moments, _ = basis._api()

    def solved(n):
        at = replace(basis, n_max=n)
        res = solve(build(p, at), at, seed=seed, params=p)
        return res, moments(res, at).hp

    n0 = basis._n0(p)
    grid = [n0 // 2 ** k for k in range(n0.bit_length())]
    above = (n0 * 2 ** k for k in itertools.count(1))
    for n in itertools.chain(reversed(grid), above):
        res, hp = solved(n)
        probe = max(n + 1, math.ceil(1.25 * n))
        if res.cutoff_converged and abs(hp - solved(probe)[1]) < tol:
            return res, hp


def _bits(res, hp):
    return (res.n_max_used, np.float64(hp).tobytes(),
            np.float64(res.ground_energy).tobytes())


@pytest.mark.parametrize("n_spins", [2, 4, 8, 16])
def test_single_chain_walk_matches_the_ascending_walk(n_spins):
    for k in range(7):
        p = DickeParams(1.0, 1.0, 0.25 * k)
        res = converge_cutoff(p, n_spins)
        basis = EDBasis(n_spins, res.n_max_used)
        hp = photon_moments_ed(res, basis).hp
        assert _bits(res, hp) == _bits(
            *_ascending_walk(p, EDBasis(n_spins, 1))), p


@pytest.mark.parametrize("n_spins", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 4])
def test_two_chain_walk_matches_the_ascending_walk(n_spins, theta):
    for k in range(1, 7):
        r = 0.25 * k
        p = DoubleDickeParams(1.0, 1.0, 1.0, r * math.cos(theta),
                              r * math.sin(theta), n_spins, n_spins)
        res = converge_cutoff_double(p)
        basis = DoubleEDBasis(n_spins, n_spins, res.n_max_used)
        hp = photon_moments_double(res, basis).hp
        assert _bits(res, hp) == _bits(
            *_ascending_walk(p, DoubleEDBasis(n_spins, n_spins, 1))), p
