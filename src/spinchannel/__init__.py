"""Open antiferromagnetic spin-1/2 Heisenberg chains as quantum channels.

Exact-diagonalization toolkit for chains with weakly coupled end probes:
teleportation fidelity versus temperature, state-transfer fidelity versus
time and length, entanglement sharing, and the scaling of the boundary
singlet-triplet gap.  The ``spinchannel`` command-line tool drives sweeps
and writes deterministic CSV/JSON output.
"""

# the package namespace is the union of the modules' public names: __all__,
# or every public class of errors
from .chain import *  # noqa: F403
from .eigensolve import *  # noqa: F403
from .entangle import *  # noqa: F403
from .errors import *  # noqa: F403
from .scaling import *  # noqa: F403
from .teleport import *  # noqa: F403
from .thermal import *  # noqa: F403
from .transfer import *  # noqa: F403

__version__ = "0.1.0"
