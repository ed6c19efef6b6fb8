"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value; the message names the offending key."""


class DivergenceError(ArithmeticError):
    """A round overflowed, divided by zero or made a NaN; the message names the round and the operation."""
