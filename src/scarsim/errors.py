"""Exception taxonomy shared across the toolkit, and the type predicates of
the checks that raise :class:`ConfigError`.

The CLI maps these to distinct exit codes, so commands stay scriptable:
config problems, capacity-guard refusals, and numerical-guard violations
are distinguishable without parsing stderr.
"""

import sys


def is_int(value) -> bool:
    """An integer that is not a bool (JSON true/false load as Python bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or float that is not a bool and has a finite float value (JSON
    NaN and Infinity load as floats, and integers can exceed the float range)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


class ScarsimError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ScarsimError):
    """Invalid configuration or unsupported parameter combination."""


class GeometryError(ScarsimError):
    """Lattice construction or classification failure."""


class CapacityError(ScarsimError):
    """A guarded size limit (basis dimension, dense matrix size) was exceeded."""


class NumericalError(ScarsimError):
    """A numerical guard (normalization, positivity, convergence) was violated."""
