"""The channel draws against numpy's own Philox: every seed of a draw, alone
or stacked, is bit for bit a fresh ``Generator(Philox(key=[seed, salt]))``,
and a seed outside [0, 2**64) is refused."""

import numpy as np
import pytest

from ccsched.errors import ParameterError
from ccsched.verifier import ChannelRealization

SALT = 0x636F6D62
# both ends of the key word's range, both sides of 2**32 and 2**63, and
# numpy integers, in one block
STRADDLING = [
    (1 << 32) - 3, (1 << 32) - 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
    0, (1 << 64) - 1, np.int64(7919), np.uint64((1 << 64) - 2), 1 << 40, (1 << 63) - 1, 1 << 63, (1 << 63) + 1,
] + list(range((1 << 32) - 7919 * 16, (1 << 32) - 7919, 7919))


def generator(seed, salt):
    """A fresh generator keyed [seed, salt].  The key goes in as uint64 words:
    numpy turns a list holding a word of 2**63 or more into floats first,
    which rounds it."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, salt], dtype=np.uint64)))


def reference_draw(seed, users, G, L):
    """Channels and Haar combiners of one seed, each user from a fresh
    generator in turn, as the per-user kernel drew them."""
    rng, pool_rng = generator(seed, 0), generator(seed, SALT)
    H, pool = {}, {}
    for k in users:
        H[k] = (rng.standard_normal((G, L)) + 1j * rng.standard_normal((G, L))) / np.sqrt(2)
        z = pool_rng.standard_normal((G, G)) + 1j * pool_rng.standard_normal((G, G))
        q, r = np.linalg.qr(z)
        pool[k] = q * (np.diag(r) / np.abs(np.diag(r)))
    return H, pool


def assert_draws_match_a_fresh_philox(seeds, users=(1, 2, 4), G=3, L=5):
    channels = ChannelRealization.draw(users, G, L, seed=seeds)
    pool = channels.haar_combiner_pool()
    for i, seed in enumerate(seeds):
        H, Q = reference_draw(seed, users, G, L)
        for k in users:
            assert np.array_equal(channels.H[k][i], H[k]), (seed, k)
            assert np.array_equal(pool[k][i], Q[k]), (seed, k)


def test_draws_straddling_two_to_the_32_match_a_fresh_philox():
    assert_draws_match_a_fresh_philox(STRADDLING)
    assert_draws_match_a_fresh_philox(range((1 << 32) - 2, (1 << 32) + 2))
    for seed in (0, (1 << 32) - 1, 1 << 32, np.uint64(1 << 63), (1 << 64) - 1):  # a single seed
        one = ChannelRealization.draw((2, 1), 2, 3, seed=seed)
        pool = one.haar_combiner_pool()
        H, Q = reference_draw(seed, (1, 2), 2, 3)
        assert all(np.array_equal(one.H[k], H[k]) and np.array_equal(pool[k], Q[k]) for k in (1, 2)), seed


@pytest.mark.parametrize("seed", [-1, 1 << 64, 99999999999999999999999, 1.0, [0, 5, 1 << 64], [-3, 0]])
def test_seeds_outside_the_key_range_are_refused(seed):
    with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        ChannelRealization.draw((1, 2), 2, 3, seed=seed)
