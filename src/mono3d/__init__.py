"""Desk-scale monocular 3D object detection.

A single RGB image goes through an attention-pyramid backbone, a
top-down aggregation neck, and CenterNet-style 2D plus RoI 3D heads;
depth is projected from the estimated 3D height through the camera
geometry with propagated uncertainty. Everything runs on a small
reverse-mode autodiff engine over numpy whose graph lives on its tensors.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DimensionError,
    NumericError,
    ParseError,
    UsageError,
)
from .heads import CLASS_NAMES, CLASS_PRIORS, NUM_ANGLE_BINS, OUTPUT_STRIDE, ROI_SIZE
from .model import Detector, load_checkpoint, save_checkpoint

__all__ = [
    "CLASS_NAMES",
    "CLASS_PRIORS",
    "ConfigError",
    "DegenerateGeometryError",
    "Detector",
    "DimensionError",
    "NUM_ANGLE_BINS",
    "NumericError",
    "OUTPUT_STRIDE",
    "ParseError",
    "ROI_SIZE",
    "UsageError",
    "__version__",
    "load_checkpoint",
    "save_checkpoint",
]
