"""Exception taxonomy shared across the package.

Plain ValueError covers malformed arguments (usage and domain errors).
The classes below mark conditions the command line maps to distinct exit
codes or that verification code must be able to tell apart.
"""

from __future__ import annotations

import reprlib

# Input echoed in a message shows three items of a list, two of an object, none
# nested in them and 30 characters of a string or number: one short line.
brief = reprlib.Repr()
brief.maxlevel, brief.maxlist, brief.maxdict = 1, 3, 2
brief.maxstring = brief.maxlong = brief.maxother = 30


class OutOfFamilyError(ValueError):
    """A plane outside the classified family (it misses the nucleus plane)."""


class ConfigurationError(RuntimeError):
    """A request the package cannot serve: an unknown orbit label or a
    parameter the orbit does not take, no parameter value satisfying a
    representative's constraints, or a field size a suite does not support;
    never silently substituted."""


class ClassificationError(RuntimeError):
    """Internal consistency failure: an input matched no class, or an
    invariant computation met a configuration it cannot name."""


class VerificationError(RuntimeError):
    """A verification suite ran to completion and found a violated claim."""


class ResourceBudgetError(RuntimeError):
    """An orbit enumeration exceeded its memory budget.

    ``partial`` carries the number of keys discovered before the abort so
    reports can show progress.
    """

    def __init__(self, message: str, partial: int = 0):
        super().__init__(message)
        self.partial = partial
