"""Two qubits in a spatially correlated thermal bath.

The package models a pair of driven qubits coupled through their
``sigma_z`` components to a common bosonic environment.  Partial spatial
correlation of the bath (quantified by the deficit ``delta``) opens a
slow dissipative channel that first *builds* two-qubit entanglement and
only destroys it on the much longer timescale ``1/(delta gamma0)``.

Layout:

* :mod:`spinbath.states` - Pauli-product (generalized Bloch) vectors,
  density-matrix conversion, Wootters concurrence, canonical states.
* :mod:`spinbath.bath` - spectral density, thermal factors, spatial
  correlation profile, golden-rule rates, Lamb-shift integrals.
* :mod:`spinbath.liouvillian` - the 16x16 real generator, its classified
  eigensystem, analytic mode patterns.
* :mod:`spinbath.dynamics` - spectral and expm-stepping propagation,
  concurrence trajectories, generation conditions and survival times.
* :mod:`spinbath.iontrap` - mapping to linear-ion-trap parameters with a
  feasibility verdict.
* :mod:`spinbath.cli` - the ``spinbath`` command.
"""

from . import errors, states, bath, liouvillian, dynamics, iontrap
from .errors import *
from .states import *
from .bath import *
from .liouvillian import *
from .dynamics import *
from .iontrap import *

__version__ = "0.1.0"

#: each public name is listed once, in its own module's ``__all__``
__all__ = [
    name
    for module in (errors, states, bath, liouvillian, dynamics, iontrap)
    for name in module.__all__
] + ["__version__"]
