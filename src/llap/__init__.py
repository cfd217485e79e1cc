"""Spectral fixed-point solver for a nonlocal equation with a logarithmic symbol.

The public API re-exports the grid and transform layer, kernel families with
their solvability diagnostics, the built-in nonlinearities, the certified
Picard solver, and the kernel-sequence convergence study.
"""

from .grid import (
    GridSpec,
    Norms,
    RealField,
    SpectralField,
    SymbolSpec,
    boundary_decay,
    default_eta,
    forward_ft,
    inverse_ft,
    make_grid,
    norms,
    nudft,
    periodic_convolution,
    reciprocal_grid,
    sample,
    spectral_l2,
    symbol_grid,
)
from .fieldio import dump_field, load_field
from .kernels import (
    BoundCheck,
    Kernel,
    KernelDiagnostics,
    KernelSequence,
    OrthogonalityReport,
    Schedule,
    hat_on_sphere,
    inverse_symbol_gain,
    kernel_from_field,
    make_kernel,
    make_sequence,
    project_orthogonal,
    sphere_points,
    symbol_ratio_distance,
    verify_derivative_bound,
    verify_hat_bound,
)
from .nonlinearity import (
    GrowthReport,
    Nonlinearity,
    estimate_lipschitz,
    eval_F,
    make_nonlinearity,
    verify_growth,
)
from .solver import (
    CertificateError,
    ContractionCertificate,
    ResidualReport,
    SolveReport,
    apply_picard_map,
    certify,
    equation_residual,
    picard_multiplier,
    picard_solve,
    triviality_indicator,
)
from .sequence import (
    LemmaRow,
    LemmaTable,
    MemberCertificateError,
    SequenceRow,
    SequenceStudy,
    run_sequence,
    verify_lemmaA2,
)
from .config import ConfigError, RunConfig, load_config, parse_config

__version__ = "0.1.0"
