"""prosep: dynamic tomography via a projection-domain partially separable model.

Reconstructs a time-varying 2D object from time-sequential projections
(one view angle per time instant) by fitting a bilinear model to the
circular-harmonic expansion of the projections, and provides the
accompanying stability analysis: sampling-scheme condition numbers,
full-rank checks, projection energy bounds, and motion truncation
bounds.
"""

from .analysis import (
    ConditionReport,
    MotionBoundSpec,
    cond_L1,
    cond_L2,
    rank_check_L1,
    rotation_bound,
    table1,
    theorem1_check,
    theorem3_sweep,
    translation_bound,
)
from .errors import (
    CoverageError,
    InsufficientAnglesError,
    ProsepError,
    SupportError,
    TensorFormatError,
)
from .phantom import (
    Ellipse,
    MotionSpec,
    Movie,
    PhantomSpec,
    TimeSequentialSinogram,
    benchmark_movie,
    example_motion,
    example_phantom,
    motion_at,
    render_frame,
    render_movie,
    simulate_acquisition,
)
from .psmodel import (
    HarmonicCoefficients,
    HarmonicOrder,
    build_L2,
    build_theta,
    face_split,
    l1_factors,
    legendre_basis,
    real_trig_theta,
    real_trig_theta_hat,
    spline_interpolator,
)
from .radon import (
    DetectorGrid,
    Frame,
    Sinogram,
    fbp,
    radon_energy_check,
    radon_project,
)
from .recon import (
    MetricsRow,
    ProSepSolution,
    frame_metrics,
    mae,
    movie_metrics,
    naive_fbp,
    psnr,
    reconstruct_movie,
    ssim,
    synthesize_sinogram,
    temporal_functions,
)
from .sampling import AngularScheme, bit_reversed, progressive, random_scheme, span_for
from .solver import SolverConfig, SolverReport, VarproProblem, inner_beta, solve
from .tensorio import read_tensor, write_tensor

__version__ = "0.1.0"
