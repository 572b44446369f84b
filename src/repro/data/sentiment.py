"""Synthetic Sentiment140-like text-feature data.

The paper's Sentiment task runs a frozen BERT tokenizer/encoder and trains
only a small fully connected head on the resulting features.  Reproducing
this offline requires neither BERT nor tweets: what the federated/backdoor
dynamics see is a *fixed feature vector per sample* with class structure.

This generator produces exactly that: each sample is a mean-pooled bag of
token embeddings, where token frequencies are class-conditional (positive and
negative "vocabulary" clusters) and the embedding table is a frozen random
projection.  A text Trojan (fixed trigger term, as in the paper's reference
[36]) corresponds to adding the trigger token's embedding to the pooled
feature — implemented by :class:`repro.attacks.triggers.TokenTrigger`.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.registry import DATASETS


@DATASETS.register("sentiment")
class SyntheticSentiment:
    """Generator of class-conditional bag-of-embedding text features."""

    def __init__(
        self,
        num_classes: int = 2,
        vocab_size: int = 200,
        embedding_dim: int = 32,
        tokens_per_sample: int = 12,
        class_sharpness: float = 3.0,
        noise_std: float = 0.05,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if vocab_size < num_classes * 4:
            raise ValueError("vocab_size too small for the number of classes")
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.num_classes = num_classes
        self.vocab_size = vocab_size
        self.embedding_dim = embedding_dim
        self.tokens_per_sample = tokens_per_sample
        self.noise_std = noise_std
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Frozen "pre-trained" embedding table (the BERT stand-in).
        self.embeddings = rng.normal(0.0, 1.0, size=(vocab_size, embedding_dim))
        # Class-conditional token distributions: each class prefers a
        # distinct slice of the vocabulary, with peakedness set by
        # class_sharpness.
        logits = rng.normal(0.0, 1.0, size=(num_classes, vocab_size))
        slice_size = vocab_size // num_classes
        for cls in range(num_classes):
            logits[cls, cls * slice_size : (cls + 1) * slice_size] += class_sharpness
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        self.token_probs = exp / exp.sum(axis=1, keepdims=True)
        # Per-class inverse-CDF table, built as ``Generator.choice`` builds
        # it from ``p`` on every call (cumsum, then divide by the last entry).
        self._token_cdf = self.token_probs.cumsum(axis=1)
        self._token_cdf /= self._token_cdf[:, -1:]
        # Reserve the last vocabulary index as the backdoor trigger token.
        self.trigger_token = vocab_size - 1

    def trigger_embedding(self) -> np.ndarray:
        """Embedding contribution of the fixed trigger term."""
        return self.embeddings[self.trigger_token] / self.tokens_per_sample

    def sample_client(self, class_counts: np.ndarray, client_seed: int) -> Dataset:
        """Generate one client's dataset from a per-class count vector.

        Determinism contract: samples come in class order, and each one
        draws ``random(tokens_per_sample)`` (its token uniforms, looked up
        in the class's inverse CDF as ``Generator.choice`` does) and then
        ``standard_normal(embedding_dim)`` (its feature noise) from
        ``default_rng(client_seed)``.  Only these draws touch the stream,
        so the bytes equal those of one ``rng.choice(vocab_size,
        tokens_per_sample, p=token_probs[cls])`` plus one
        ``rng.normal(0, noise_std, embedding_dim)`` call per sample.
        """
        class_counts = np.asarray(class_counts, dtype=np.int64)
        if class_counts.shape != (self.num_classes,):
            raise ValueError("class_counts must have one entry per class")
        if (class_counts < 0).any():
            raise ValueError("class_counts must be non-negative")
        rng = np.random.default_rng(client_seed)
        n = int(class_counts.sum())
        uniforms = np.empty((n, self.tokens_per_sample))
        normals = np.empty((n, self.embedding_dim))
        for k in range(n):
            rng.random(out=uniforms[k])
            rng.standard_normal(out=normals[k])
        tokens = np.empty((n, self.tokens_per_sample), dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(class_counts)))
        for cls in range(self.num_classes):
            lo, hi = bounds[cls], bounds[cls + 1]
            tokens[lo:hi] = self._token_cdf[cls].searchsorted(uniforms[lo:hi], side="right")
        # ``0.0 + scale * z`` is ``Generator.normal``'s own ``loc + scale * z``.
        features = self.embeddings[tokens].mean(axis=1) + (0.0 + self.noise_std * normals)
        labels = np.repeat(np.arange(self.num_classes, dtype=np.int64), class_counts)
        return Dataset(features, labels)

    def sample_iid(self, num_samples: int, seed: int = 12345) -> Dataset:
        """Generate an IID dataset — used for global test sets."""
        rng = np.random.default_rng(seed)
        counts = np.bincount(rng.integers(0, self.num_classes, size=num_samples),
                             minlength=self.num_classes)
        return self.sample_client(counts, client_seed=seed)
