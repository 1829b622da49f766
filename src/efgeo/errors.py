"""Exception types shared across the package.

Every refused input raises ConfigError and every failed check raises
VerificationFailure; the command line exits 2 and 1 on them.
"""


class ConfigError(Exception):
    """Invalid input: a parameter, grid, field, state, recipe or run setting."""


class VerificationFailure(Exception):
    """A run failed a check: a residual above its tolerance, a step above the
    accuracy guard or a diverging norm; carries the report when there is one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
