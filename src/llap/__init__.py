"""Spectral fixed-point solver for a nonlocal equation with a logarithmic symbol.

The top-level namespace holds what a run needs from start to finish: the
grid and field constructors, the symbol and its default regularization, the
kernel, nonlinearity and sequence builders, the certificate, the Picard
solve and the sequence study, and the config loader with its errors.
Everything else (transforms, diagnostics, the verify suite, report types
and field files) is imported from its module: ``llap.grid``, ``llap.kernels``,
``llap.nonlinearity``, ``llap.solver``, ``llap.sequence``, ``llap.checks``,
``llap.config`` and ``llap.fieldio``.
"""

from .grid import RealField, SymbolSpec, default_eta, make_grid, sample
from .kernels import Schedule, make_kernel, make_sequence
from .nonlinearity import make_nonlinearity
from .solver import ContractionCertificate, certify, picard_solve
from .sequence import MemberCertificateError, run_sequence, verify_lemmaA2
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"
