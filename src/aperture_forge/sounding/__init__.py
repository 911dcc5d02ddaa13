"""Synthetic-aperture channel sounding: sweeps, lattices, beams, PADPs."""

from .arrays import (
    SamplingLattice,
    array_factor,
    fib_weights,
    natural_beamwidth,
    optimize_sparse_lattice,
    steering_vector,
)
from .grids import FrequencyGrid, sampling_checks
from .padp import (
    Pdp,
    PlaneWaveRay,
    PointSourceRay,
    SweepData,
    delay_slice,
    padp,
    source_distances,
    spherical_padp,
    synthesize_sweep,
    two_ray_path_loss,
)
