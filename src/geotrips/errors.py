"""Exception types shared across the pipeline."""


class GeotripsError(Exception):
    """Base class for all errors raised by this package."""


class FormatMismatchError(GeotripsError):
    """Input does not look like the declared format (bad header, mostly-rejected lines)."""


class ConfigError(GeotripsError):
    """Invalid or missing configuration (paths, parameters, zone metadata)."""


class InvalidGeometryError(GeotripsError):
    """A polygon or ring violates the geometry contract."""


class ValidationError(GeotripsError):
    """A value fails a documented precondition (e.g. unnormalized series)."""


class EmptyODError(GeotripsError):
    """No displacements survive the OD filters; there is nothing to normalize."""

