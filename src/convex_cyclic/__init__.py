"""Convex-cyclicity of matrices: classification, construction, certification.

The package decides from eigenstructure whether a real or complex matrix
admits a vector whose images under polynomials with nonnegative,
unit-sum coefficients are dense, constructs the peaking and interpolating
polynomials behind that theory, and certifies orbit-hull density
empirically through growth witnesses and hull-membership scans.

Modules import only from modules before them in the layer order
``errors``, ``_jsonutil``, ``_solvers``, ``convex_poly``, ``spectral``,
``jordan_forms``, ``suite``, ``dynamics``, ``interpolation``, ``cli``,
``acceptance``.  Each library module's ``__all__`` is its one list of
public names; the package re-exports all of them.  The command line
(``cli``) and the acceptance battery (``acceptance``) are not imported here.
"""

from . import convex_poly, dynamics, errors, interpolation, jordan_forms, spectral, suite
from .convex_poly import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .interpolation import *  # noqa: F401,F403
from .jordan_forms import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .suite import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *convex_poly.__all__,
    *spectral.__all__,
    *jordan_forms.__all__,
    *suite.__all__,
    *dynamics.__all__,
    *interpolation.__all__,
]
