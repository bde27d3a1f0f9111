"""Evaluation, resampling, augmentation and ensembling toolkit for
pancreatic tumor segmentation volumes.

The package namespace holds only ``__version__``; import each name from its
submodule (``from pancseg.metrics import evaluate_case``)."""

__version__ = "0.1.0"
