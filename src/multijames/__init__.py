"""Win-probability engine for one-protagonist-versus-n-opponents competitions."""

from .core import (
    Contest,
    ContestClass,
    UndefinedContestError,
    balanced_opposition,
    classify_contest,
    james_p,
    level_transform,
    p_n,
    solve_protagonist_complement,
    strength,
    strength_inv,
)

__version__ = "0.1.0"

__all__ = [
    "Contest",
    "ContestClass",
    "UndefinedContestError",
    "balanced_opposition",
    "classify_contest",
    "james_p",
    "level_transform",
    "p_n",
    "solve_protagonist_complement",
    "strength",
    "strength_inv",
]
