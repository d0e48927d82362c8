"""Holographic beamforming simulator for recordable metasurfaces.

Field algebra (``surface``), interference-power recording and weight
synthesis (``holography``), far-field patterns (``beampattern``), multipath
channels (``channel``), the downlink block model (``link``) and the
config/preset/CLI layer (``harness``).
"""

from .surface import (
    Direction,
    ReferenceWaveSpec,
    SurfaceGeometry,
    object_field,
    reference_field,
    steering_field,
)
from .channel import ChannelConfig, Path, PathSet, ProfileError, load_cdl_profile, sample_paths
from .holography import (
    RecordingConfig,
    WeightStack,
    make_weights,
    noise_power_for_snr,
    record_hologram,
    reindex,
    rhs_weights,
)
from .beampattern import PatternGrid, array_factor, find_peaks, sidelobe_metrics
from .link import (
    LinkScenario,
    PulseSpec,
    build_toeplitz,
    equivalent_taps,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "Direction",
    "LinkScenario",
    "Path",
    "PathSet",
    "PatternGrid",
    "ProfileError",
    "PulseSpec",
    "RecordingConfig",
    "ReferenceWaveSpec",
    "SurfaceGeometry",
    "WeightStack",
    "array_factor",
    "build_toeplitz",
    "equivalent_taps",
    "find_peaks",
    "load_cdl_profile",
    "make_weights",
    "noise_power_for_snr",
    "object_field",
    "record_hologram",
    "reference_field",
    "reindex",
    "rhs_weights",
    "sample_paths",
    "sidelobe_metrics",
    "steering_field",
]
