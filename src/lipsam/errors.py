"""Shared exception types, and the type rule the config objects share.

Error classes are deliberately coarse: each names a contract violation that
callers may want to catch, not an implementation detail.
"""

from numbers import Integral, Real


class ShapeError(ValueError):
    """Operands have incompatible shapes, lengths, or sample rates."""


class InvalidWindowError(ValueError):
    """A window prototype cannot be normalized into a tight analysis window."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. zero reference)."""


class UncertifiedError(RuntimeError):
    """A Lipschitz certificate was required but is missing."""


class UnboundedModifierError(RuntimeError):
    """No finite Lipschitz bound exists for the requested architecture."""


class NonFiniteError(ArithmeticError):
    """A NaN or infinity poisoned a value that must stay finite."""


class FormatError(ValueError):
    """A file is corrupt, truncated, or not in the expected format."""


class ConfigError(ValueError):
    """A configuration document failed schema validation."""


def check_field_types(config, integers=(), numbers=(), pairs=()) -> None:
    """Raise DomainError unless each field of ``config`` named in ``integers``
    holds an integer, each named in ``numbers`` a real number, and each
    named in ``pairs`` a tuple or list of two real numbers.

    numpy scalars count; a bool is neither, so a flag cannot pass for a
    count or a knob.  Range checks stay with each config.
    """
    for names, kind, what in ((integers, Integral, "an integer"), (numbers, Real, "a number")):
        for name in names:
            value = getattr(config, name)
            if not _is_a(value, kind):
                raise DomainError(f"{name} must be {what}, got {value!r}")
    for name in pairs:
        value = getattr(config, name)
        if not (isinstance(value, (tuple, list)) and len(value) == 2
                and all(_is_a(v, Real) for v in value)):
            raise DomainError(f"{name} must be a pair of numbers, got {value!r}")


def _is_a(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)
