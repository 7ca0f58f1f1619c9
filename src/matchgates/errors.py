"""Exception hierarchy shared across the package."""


class MatchgatesError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitaryInput(MatchgatesError):
    """A matrix required to be unitary failed the unitarity check."""


class NotParityPreserving(MatchgatesError):
    """A gate required to be parity-preserving has off-block weight."""


class NotMatchgate(MatchgatesError):
    """A parity-preserving gate violates the equal-determinant condition."""


class UnknownGate(MatchgatesError):
    """Gate name not present in the library."""


class BadArity(MatchgatesError):
    """Wrong number of parameters for a library gate."""


class BadTargets(MatchgatesError):
    """Target qubit indices are out of range, repeated, or of wrong count."""


class BadSampleCount(MatchgatesError):
    """Sample/shot count must be a positive integer."""


class TooLarge(MatchgatesError):
    """Problem size exceeds the configured cap for the requested mode."""


class DecompositionFailure(MatchgatesError):
    """A decomposition's reconstruction residual exceeded tolerance.

    Signals a numerics bug in this package, not bad user input.
    """


class TargetNotPP(MatchgatesError):
    """Compiler target gate is not parity-preserving."""


class TargetIsMatchgate(MatchgatesError):
    """Compiler target gate is a matchgate and cannot grant universality."""


class UnsupportedLogicalGate(MatchgatesError):
    """Logical circuit contains a gate outside the accepted set."""


class SynthesisError(MatchgatesError):
    """Repetition search failed to reach the requested tolerance within r_max."""


class BackendRefusal(MatchgatesError):
    """Simulator backend cannot run the circuit; message names the offending op."""


class ParseError(MatchgatesError):
    """Malformed circuit document or gate specification."""
