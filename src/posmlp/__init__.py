"""Positional gated-MLP vision models on a small numpy autodiff core."""

__version__ = "0.1.0"
