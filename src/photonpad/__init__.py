"""Verification toolkit for random-unitary encryption of polarization states.

The plaintext of an optical encryption scheme is the polarization of a
light pulse; the pulse may contain a superposition of photon numbers. A
qubit unitary drawn from a keyed ensemble acts on every photon at once,
i.e. through its symmetric lift on each photon-number sector. This package
computes those lifts, the resulting encryption channels and their
sector-pair Choi blocks, certifies unitary k-designs from the spin blocks
of one lift sweep, and classifies schemes as SECURE, PARITY_SECURE, or
INSECURE depending on which Choi blocks match the Haar channel.
"""

from . import channels, designs, errors, fock, linalg, security, su2
from .channels import *  # noqa: F403
from .designs import *  # noqa: F403
from .errors import *  # noqa: F403
from .fock import *  # noqa: F403
from .linalg import *  # noqa: F403
from .security import *  # noqa: F403
from .su2 import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *errors.__all__,
    *linalg.__all__,
    *fock.__all__,
    *su2.__all__,
    *designs.__all__,
    *channels.__all__,
    *security.__all__,
    "__version__",
]
