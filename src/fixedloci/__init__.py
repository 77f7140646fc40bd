"""fixedloci: torus fixed-point decomposition of GIT quotients.

Exact-arithmetic computations of stability, toric quotient fans, quiver
cover enumeration, and fixed-point component certification.
"""

__version__ = "0.1.0"
