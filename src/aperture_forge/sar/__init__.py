"""Synthetic aperture radar: scene simulation, focusing, adaptive and
tomographic imaging, speckle handling, and link-budget metrics."""

from .scene import (
    PhaseHistory,
    PointScene,
    SarGeometry,
    Scatterer,
    sar_resolutions,
    simulate_phase_history,
    slant_range_history,
)
from .focus import (
    SarImage,
    backproject,
    chirp_scaling_focus,
    curvature_factor,
    omega_k_focus,
    range_distortion,
)
from .tomo import project_image, tomographic_reconstruct
from .capon import (
    CaponProblem,
    LinearPhaseSteering,
    capon_image,
    conventional_image,
    matched_image,
    synthesize_capon_data,
)
from .speckle import SpeckledImage, apply_speckle, lee_filter
from .qsar import (
    QsarParams,
    detection_error_probabilities,
    qsar_metrics,
    snr_linear,
)
