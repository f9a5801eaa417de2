"""lovelab: the Love/Lieb-Liniger integral equation, disc-capacitor
asymptotics, and numerical verification of the integral identities behind
the weak-coupling ground-state energy.

Each module's ``__all__`` is the one list of its public names; the package
republishes them all."""

from .errors import *
from .specfun import *
from .quadrature import *
from .love import *
from .capacitor2d import *
from .asymptotics import *
from .conjectures import *

__version__ = "0.1.0"
