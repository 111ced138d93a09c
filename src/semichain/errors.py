"""Exception types shared across the package.

Names follow the failure condition they report rather than a generic
Error suffix, so call sites read like the contract they enforce.
"""


class SemichainError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(SemichainError):
    """Array shapes are inconsistent with the declared dimensions."""


class NonFiniteInput(SemichainError):
    """An input array contains NaN or Inf entries."""


class NonHermitianH0(SemichainError):
    """The atomic Hamiltonian is not Hermitian within tolerance."""


class EmptyModeList(SemichainError):
    """A model was declared with no field modes."""


class ZeroNormConditionalState(SemichainError):
    """A conditional state has (numerically) zero norm, so the
    expectation ratio is undefined."""


class SamplerStuck(SemichainError):
    """The Metropolis sampler's acceptance rate stayed below the floor
    after proposal adaptation."""


class DegenerateIncrement(SemichainError):
    """A chain increment collapsed (|d alpha*| below 1e-8) while the
    conditional states still differ; the finite-difference derivative is
    unusable and the chain needs reformatting."""


class InterpolationDegraded(SemichainError):
    """Reformatting shifted the validation estimates beyond tolerance."""


class TailMassExceeded(SemichainError):
    """Probability mass near the Fock cutoff exceeds the configured
    threshold; the truncated state no longer represents the dynamics."""


class ConfigError(SemichainError):
    """A run configuration failed validation.

    Carries the full list of diagnostics so callers can report every
    problem at once rather than the first.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
