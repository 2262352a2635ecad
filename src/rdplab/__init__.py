"""rdplab: staggered and dithered one-shot quantizers at perfect perceptual
quality, with the exact reference frontiers they are measured against."""

from .circle import (FrontierPoint, one_shot_frontier, simulate_dithered_circle,
                     simulate_staggered_circle, staggered_circle_rd,
                     verify_two_cell_optimality, wrap_angle)
from .frontier import (VonMisesLikeLaw, gaussian_rdp_reference,
                       rate_at_distortion, rdp_curve, rdp_point)
from .metrics import (ExperimentResult, avg_conditional_entropy, entropy_bits,
                      ks_statistic, ks_threshold, plugin_entropy)
from .rng import BLOCK, SampleStreams
from .simlab import ExperimentConfig, parse_config_file, run_experiment, sweep
from .sources import (CircleSource, GaussianSource, UniformSource,
                      parse_source)
from .stagger import (BoundaryTable, CodeDistribution, StaggeredSpec,
                      build_boundaries, cell_left, decode, dithered_reference,
                      encode, exact_code_distribution, simulate_pipeline)

__version__ = "0.1.0"
