"""Unit tests for the synthetic FEMNIST and Sentiment generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.femnist import SyntheticFEMNIST
from repro.data.sentiment import SyntheticSentiment


# Frozen copies of the per-sample loops the vectorised samplers replaced.
# They pin the stream-consumption contract: the samplers must return these
# exact bytes, so a numpy release that changes how ``Generator.choice`` or
# ``Generator.normal`` consume the stream fails here instead of silently
# drifting every golden.
def _reference_sentiment_client(gen, class_counts, client_seed):
    rng = np.random.default_rng(client_seed)
    features, labels = [], []
    for cls, count in enumerate(np.asarray(class_counts, dtype=np.int64)):
        for _ in range(int(count)):
            tokens = rng.choice(gen.vocab_size, size=gen.tokens_per_sample,
                                p=gen.token_probs[cls])
            feat = gen.embeddings[tokens].mean(axis=0)
            feat = feat + rng.normal(0.0, gen.noise_std, size=feat.shape)
            features.append(feat)
            labels.append(cls)
    if not features:
        return Dataset(np.zeros((0, gen.embedding_dim)), np.zeros(0, dtype=np.int64))
    return Dataset(np.stack(features), np.asarray(labels, dtype=np.int64))


def _reference_femnist_client(gen, class_counts, client_seed):
    writer_rng = np.random.default_rng(client_seed)
    styled = np.stack(
        [gen._writer_transform(gen._prototypes[c], writer_rng) for c in range(gen.num_classes)]
    )
    images, labels = [], []
    for cls, count in enumerate(np.asarray(class_counts, dtype=np.int64)):
        for _ in range(int(count)):
            noisy = styled[cls] + writer_rng.normal(0.0, gen.noise_std, size=styled[cls].shape)
            images.append(np.clip(noisy, 0.0, 1.0))
            labels.append(cls)
    if not images:
        x = np.zeros((0, 1, gen.image_size, gen.image_size), dtype=np.float64)
        return Dataset(x, np.zeros(0, dtype=np.int64))
    return Dataset(np.stack(images)[:, None, :, :], np.asarray(labels, dtype=np.int64))


def _assert_same_bytes(got, want):
    assert got.x.shape == want.x.shape and got.x.dtype == want.x.dtype
    np.testing.assert_array_equal(got.x.view(np.uint64), want.x.view(np.uint64))
    assert got.y.dtype == want.y.dtype
    np.testing.assert_array_equal(got.y, want.y)


def _class_counts(num_classes, max_count):
    """Count vectors with zero-count classes and all-zero (empty) clients."""
    return st.lists(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=max_count)),
        min_size=num_classes,
        max_size=num_classes,
    )


class TestSyntheticFEMNIST:
    def test_sample_shapes_and_range(self, femnist_generator):
        counts = np.array([3, 2, 0, 1, 0])
        data = femnist_generator.sample_client(counts, client_seed=1)
        assert data.x.shape == (6, 1, 12, 12)
        assert data.x.min() >= 0.0 and data.x.max() <= 1.0
        np.testing.assert_array_equal(np.bincount(data.y, minlength=5), counts)

    def test_prototypes_are_distinct(self, femnist_generator):
        protos = femnist_generator.prototypes
        for i in range(len(protos)):
            for j in range(i + 1, len(protos)):
                assert np.abs(protos[i] - protos[j]).mean() > 0.01

    def test_generation_is_deterministic(self, femnist_generator):
        counts = np.array([2, 2, 2, 0, 0])
        a = femnist_generator.sample_client(counts, client_seed=9)
        b = femnist_generator.sample_client(counts, client_seed=9)
        np.testing.assert_allclose(a.x, b.x)

    def test_different_clients_have_different_styles(self, femnist_generator):
        counts = np.array([2, 0, 0, 0, 0])
        a = femnist_generator.sample_client(counts, client_seed=1)
        b = femnist_generator.sample_client(counts, client_seed=2)
        assert not np.allclose(a.x, b.x)

    def test_empty_counts_give_empty_dataset(self, femnist_generator):
        data = femnist_generator.sample_client(np.zeros(5, dtype=int), client_seed=0)
        assert len(data) == 0

    def test_wrong_count_length_raises(self, femnist_generator):
        with pytest.raises(ValueError):
            femnist_generator.sample_client(np.array([1, 2]), client_seed=0)

    def test_classes_are_learnable(self, femnist_generator):
        """A nearest-prototype classifier should beat chance by a wide margin."""
        data = femnist_generator.sample_iid(100, seed=5)
        protos = femnist_generator.prototypes.reshape(5, -1)
        flat = data.x.reshape(len(data), -1)
        distances = ((flat[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        preds = distances.argmin(axis=1)
        assert (preds == data.y).mean() > 0.5

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            SyntheticFEMNIST(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticFEMNIST(image_size=4)

    def test_negative_class_count_raises(self, femnist_generator):
        with pytest.raises(ValueError, match="non-negative"):
            femnist_generator.sample_client(np.array([3, -1, 0, 2, 0]), client_seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        num_classes=st.integers(min_value=2, max_value=6),
        image_size=st.integers(min_value=8, max_value=20),
        gen_seed=st.integers(min_value=0, max_value=2**16),
        client_seed=st.integers(min_value=0, max_value=2**40),
    )
    def test_matches_per_sample_reference(self, data, num_classes, image_size, gen_seed,
                                          client_seed):
        gen = SyntheticFEMNIST(num_classes=num_classes, image_size=image_size, seed=gen_seed)
        counts = np.array(data.draw(_class_counts(num_classes, 12)), dtype=np.int64)
        _assert_same_bytes(gen.sample_client(counts, client_seed),
                           _reference_femnist_client(gen, counts, client_seed))


class TestSyntheticSentiment:
    def test_sample_shapes(self, sentiment_generator):
        counts = np.array([4, 3])
        data = sentiment_generator.sample_client(counts, client_seed=1)
        assert data.x.shape == (7, 16)
        np.testing.assert_array_equal(np.bincount(data.y, minlength=2), counts)

    def test_classes_are_separable(self, sentiment_generator):
        data = sentiment_generator.sample_iid(200, seed=3)
        mean_pos = data.x[data.y == 1].mean(axis=0)
        mean_neg = data.x[data.y == 0].mean(axis=0)
        assert np.linalg.norm(mean_pos - mean_neg) > 0.1

    def test_trigger_embedding_dimension(self, sentiment_generator):
        assert sentiment_generator.trigger_embedding().shape == (16,)

    def test_deterministic_generation(self, sentiment_generator):
        counts = np.array([3, 3])
        a = sentiment_generator.sample_client(counts, client_seed=4)
        b = sentiment_generator.sample_client(counts, client_seed=4)
        np.testing.assert_allclose(a.x, b.x)

    def test_invalid_vocab_raises(self):
        with pytest.raises(ValueError):
            SyntheticSentiment(num_classes=4, vocab_size=8)

    def test_negative_noise_std_raises(self):
        with pytest.raises(ValueError):
            SyntheticSentiment(noise_std=-0.1)

    def test_negative_class_count_raises(self, sentiment_generator):
        with pytest.raises(ValueError, match="non-negative"):
            sentiment_generator.sample_client(np.array([4, -2]), client_seed=0)

    def test_empty_counts_give_empty_dataset(self, sentiment_generator):
        data = sentiment_generator.sample_client(np.zeros(2, dtype=int), client_seed=0)
        assert data.x.shape == (0, 16)
        assert data.y.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        num_classes=st.integers(min_value=2, max_value=6),
        tokens_per_sample=st.integers(min_value=1, max_value=20),
        embedding_dim=st.integers(min_value=1, max_value=48),
        extra_vocab=st.integers(min_value=0, max_value=200),
        noise_std=st.sampled_from([0.0, 0.05, 0.3]),
        gen_seed=st.integers(min_value=0, max_value=2**16),
        client_seed=st.integers(min_value=0, max_value=2**40),
    )
    def test_matches_per_sample_reference(self, data, num_classes, tokens_per_sample,
                                          embedding_dim, extra_vocab, noise_std, gen_seed,
                                          client_seed):
        gen = SyntheticSentiment(
            num_classes=num_classes,
            vocab_size=4 * num_classes + extra_vocab,
            embedding_dim=embedding_dim,
            tokens_per_sample=tokens_per_sample,
            noise_std=noise_std,
            seed=gen_seed,
        )
        counts = np.array(data.draw(_class_counts(num_classes, 40)), dtype=np.int64)
        _assert_same_bytes(gen.sample_client(counts, client_seed),
                           _reference_sentiment_client(gen, counts, client_seed))
