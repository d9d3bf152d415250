"""Discrete chirality energies on spin lattices and their sharp wall limits."""

# Each module's __all__ is the package surface; errors has none, so its star
# import brings its exception classes, the only public names it defines.
from .errors import *  # noqa: F401,F403
from .lattice_core import *  # noqa: F401,F403
from .spin_energy import *  # noqa: F401,F403
from .ground_states import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .recovery_limsup import *  # noqa: F401,F403
from .relaxation import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403

__version__ = "0.1.0"
