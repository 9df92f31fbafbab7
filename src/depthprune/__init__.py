"""Layer-redundancy analysis and structured depth pruning for small
decoder-only transformers."""

__version__ = "0.1.0"
