"""Equal-representation partitions of the naturals minus one arithmetic progression.

Library layout: ``intset`` (bounded bit-mask sets), ``builders`` (named set
families), ``repfn`` (two-element-sum counting), ``solver`` (forced extension
and grid classification), ``verify`` (identity checkers and the suite),
``cli`` (command-line front door).
"""

from .builders import *
from .intset import *
from .repfn import *
from .solver import *
from .verify import *

__version__ = "0.1.0"
