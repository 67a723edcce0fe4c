"""Bulk seeding of the channel draws against numpy's own seeding: the
vectorized SeedSequence hash, the draws on both sides of 2**32, and the
fallback to ``default_rng`` when the bulk path fails its check."""

import numpy as np
import pytest

from ccsched import verifier
from ccsched.verifier import ChannelRealization

SALT = 0x636F6D62
# both ends of the one-word range, and words from all over it
HASHED = list(range(1000)) + [(1 << 32) - 1 - i for i in range(1000)]
HASHED += np.random.default_rng(2).integers(0, 1 << 32, 1000).tolist()
# one block, large enough to seed in bulk, in which one-word seeds and longer
# ones (default_rng) alternate
STRADDLING = [
    (1 << 32) - 3, (1 << 32) - 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
    0, 99999999999999999999999, np.int64(7919), 1 << 40, (1 << 32) - 7919,
] + list(range((1 << 32) - 7919 * 16, (1 << 32) - 7919, 7919))


def reference_draw(seed, users, G, L):
    """Channels and Haar combiners of one seed, each user from its own
    default_rng in turn, as the per-user kernel drew them."""
    rng = np.random.default_rng(seed)
    pool_rng = np.random.default_rng(np.random.SeedSequence([seed, SALT]))
    H, pool = {}, {}
    for k in users:
        H[k] = (rng.standard_normal((G, L)) + 1j * rng.standard_normal((G, L))) / np.sqrt(2)
        z = pool_rng.standard_normal((G, G)) + 1j * pool_rng.standard_normal((G, G))
        q, r = np.linalg.qr(z)
        pool[k] = q * (np.diag(r) / np.abs(np.diag(r)))
    return H, pool


def assert_draws_match_default_rng(seeds, users=(1, 2, 4), G=3, L=5):
    channels = ChannelRealization.draw(users, G, L, seed=seeds)
    pool = channels.haar_combiner_pool()
    for i, seed in enumerate(seeds):
        H, Q = reference_draw(seed, users, G, L)
        for k in users:
            assert np.array_equal(channels.H[k][i], H[k]), (seed, k)
            assert np.array_equal(pool[k][i], Q[k]), (seed, k)


def test_bulk_seeding_passes_its_check():
    assert verifier._bulk_seeding_works()


@pytest.mark.parametrize("salt", [None, SALT])
def test_seed_words_match_seed_sequence(salt):
    words = verifier._seed_words(HASHED, salt)
    assert words.shape == (4, len(HASHED)) and words.dtype == np.uint64
    reference = [np.random.SeedSequence(s if salt is None else [s, salt]).generate_state(4, np.uint64) for s in HASHED]
    assert np.array_equal(words.T, reference)


def test_draws_straddling_two_to_the_32_match_default_rng():
    assert sum(s < 1 << 32 for s in STRADDLING) >= verifier.BULK_SEEDS
    assert_draws_match_default_rng(STRADDLING)
    assert_draws_match_default_rng(range((1 << 32) - 2, (1 << 32) + 2))
    for seed in ((1 << 32) - 1, 1 << 32):  # a single seed on each side
        one = ChannelRealization.draw((1, 2), 2, 3, seed=seed)
        H, _ = reference_draw(seed, (1, 2), 2, 3)
        assert all(np.array_equal(one.H[k], H[k]) for k in (1, 2))


def unused(seeds, salt):
    raise AssertionError("the bulk path ran")


def test_bulk_seeding_needs_enough_one_word_seeds(monkeypatch):
    n = verifier.BULK_SEEDS
    monkeypatch.setattr(verifier, "_pcg_states", unused)
    # too few seeds below 2**32 to pay for the hash, however many others
    assert_draws_match_default_rng(list(range(n - 1)) + [(1 << 32) + i for i in range(n)])
    with pytest.raises(AssertionError, match="the bulk path ran"):
        ChannelRealization.draw((1, 2), 2, 3, seed=range(n))


def wrong_words(seeds, salt):
    return np.zeros((4, len(seeds)), np.uint64)


def broken_states(seeds, salt):
    raise TypeError("the PCG64 state layout moved")


@pytest.mark.parametrize("words,states", [
    (wrong_words, verifier._pcg_states),  # the hash disagrees with SeedSequence
    (verifier._seed_words, broken_states),  # setting a PCG64 state fails
])
def test_failed_check_draws_every_seed_with_default_rng(monkeypatch, words, states):
    monkeypatch.setattr(verifier, "_bulk_seeding", None)
    monkeypatch.setattr(verifier, "_seed_words", words)
    monkeypatch.setattr(verifier, "_pcg_states", states)
    assert verifier._bulk_seeding_works() is False
    monkeypatch.setattr(verifier, "_pcg_states", unused)
    assert_draws_match_default_rng(STRADDLING)
    assert_draws_match_default_rng(range(40, 40 + verifier.BULK_SEEDS))
