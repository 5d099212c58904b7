"""tensorsim: adaptive reduced-order power system transient simulation.

Builds Taylor-expanded dynamic models around load-level-specific
equilibria, compresses the quadratic and cubic terms with CP tensor
decomposition, and switches between full, hybrid, and reduced models
during time-domain simulation based on disturbance size.

The library logs to ``logging.getLogger("tensorsim")``, which has no
handler but a ``NullHandler`` until the application configures one.
"""

import logging

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
