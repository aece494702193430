"""netsync: inner coupling matrix design for network synchronization.

Synthesize the inner coupling matrices that make diffusively coupled
linear networks synchronize with prescribed transverse-mode poles,
convert designs to and from multi-agent consensus feedback gains, and
verify them by spectral checks and time-domain simulation, including a
chaotic three-oscillator probe with state-dependent coupling.
"""

from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .gershgorin import *  # noqa: F401,F403
from .coupling import *  # noqa: F401,F403
from .duality import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .artifacts import *  # noqa: F401,F403

__version__ = "0.1.0"
