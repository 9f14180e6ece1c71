"""Win-probability engine for one-protagonist-versus-n-opponents competitions."""

from .core import (
    Contest,
    ContestClass,
    UndefinedContestError,
    classify_contest,
    james_p,
    level_transform,
    p_n,
    strength,
)

__version__ = "0.1.0"

__all__ = [
    "Contest",
    "ContestClass",
    "UndefinedContestError",
    "classify_contest",
    "james_p",
    "level_transform",
    "p_n",
    "strength",
]
