"""Exception hierarchy; the CLI maps these to exit codes."""


class RealWonderError(Exception):
    pass


class InputError(RealWonderError):
    """Bad user input: schema violations, degenerate geometry, invalid
    building sets, inconsistent Smith data.  CLI exit code 2."""


class EngineError(RealWonderError):
    """Internal guard tripped.  CLI exit code 3.  A run sets step to
    "step k (a+b)", the blow-up step and event that raised it, and the
    CLI puts it before the message."""

    step = None


class UnsupportedExcessIntersection(EngineError):
    """Dominant transforms keep meeting in an excess locus the table
    rules cannot represent; the run is aborted rather than mis-counted."""


class InternalCheckError(EngineError):
    """An always-on consistency identity (ledger, Euler, Smith, duality)
    failed after a step, or a retired table row was read."""
