"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid parameter domain, malformed input, or inconsistent configuration."""

