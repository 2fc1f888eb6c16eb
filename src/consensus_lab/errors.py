"""Exception types shared across the package."""


class ScenarioError(ValueError):
    """A scenario file failed to parse; the message carries file and field context."""


class CapabilityError(RuntimeError):
    """The operation needs data the model does not carry (e.g. per-agent priors)."""


class PreconditionError(ValueError):
    """Inputs violate a documented precondition of the operation."""


class ReducibleError(PreconditionError):
    """A computation requiring irreducibility was handed a reducible matrix.

    The ``certificate`` attribute holds a nonempty proper closed set of
    states (signal labels or indices) witnessing reducibility.
    """

    def __init__(self, message, certificate=()):
        super().__init__(message)
        self.certificate = tuple(certificate)
