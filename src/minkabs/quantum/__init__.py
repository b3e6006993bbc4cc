"""Lattice realization of the scalar particle and its localization.

Re-exports the ``__all__`` of ``config``, ``state`` and ``pvm``.
"""

from . import config, pvm, state
from .config import *  # noqa: F403
from .state import *  # noqa: F403
from .pvm import *  # noqa: F403

__all__ = config.__all__ + state.__all__ + pvm.__all__
