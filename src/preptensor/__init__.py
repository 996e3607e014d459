"""Preposition embeddings from word-triple co-occurrence tensors."""

__version__ = "0.1.0"
