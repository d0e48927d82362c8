"""Holographic beamforming simulator for recordable metasurfaces.

Field algebra (``surface``), interference-power recording and weight
synthesis (``holography``), far-field patterns (``beampattern``), multipath
channels (``channel``), the downlink block model (``link``) and the
config/preset/CLI layer (``harness``).
"""

from .surface import (
    ComplexField,
    Direction,
    ReferenceWaveSpec,
    SurfaceGeometry,
    object_field,
    reference_field,
    steering_field,
)
from .channel import ChannelConfig, Path, PathSet, ProfileError, load_cdl_profile, sample_paths
from .holography import (
    Hologram,
    RecordingConfig,
    WeightMatrix,
    make_weights,
    noise_power_for_snr,
    record_hologram,
    reconstruct_field,
    reindex,
    rhs_weights,
    verify_reindexing_identities,
)
from .beampattern import PatternGrid, array_factor, find_peaks, sidelobe_metrics
from .link import (
    LinkChannel,
    LinkScenario,
    PulseSpec,
    build_toeplitz,
    equivalent_taps,
    mutual_information,
    outage_probability,
    rrc_impulse,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ComplexField",
    "Direction",
    "Hologram",
    "LinkChannel",
    "LinkScenario",
    "Path",
    "PathSet",
    "PatternGrid",
    "ProfileError",
    "PulseSpec",
    "RecordingConfig",
    "ReferenceWaveSpec",
    "SurfaceGeometry",
    "WeightMatrix",
    "array_factor",
    "build_toeplitz",
    "equivalent_taps",
    "find_peaks",
    "load_cdl_profile",
    "make_weights",
    "mutual_information",
    "noise_power_for_snr",
    "object_field",
    "outage_probability",
    "record_hologram",
    "reconstruct_field",
    "reference_field",
    "reindex",
    "rhs_weights",
    "rrc_impulse",
    "sample_paths",
    "sidelobe_metrics",
    "steering_field",
    "verify_reindexing_identities",
]
