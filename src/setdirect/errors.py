"""Exception types shared across the package."""


class GroupError(Exception):
    """Base class for every error raised by this package."""


class NotAGroup(GroupError):
    """A multiplication table violates one of the group axioms."""


class OrderLimitExceeded(GroupError):
    """A construction or enumeration exceeded the configured order bound."""


class EmptyGeneratingSet(GroupError):
    """generated_subgroup was called with an empty set."""


class EmptySet(GroupError):
    """An operation requires a nonempty subset."""


class NotNormal(GroupError):
    """A subset is not closed under conjugation."""


class NotSubgroup(GroupError):
    """A subset is not a subgroup (or not a normal subgroup where required)."""


class NotNormalSubgroup(GroupError):
    """Quotient construction requires a normal subgroup."""


class NotCentral(GroupError):
    """A subset is not contained in the center where the operation needs it."""


class NotIsomorphism(GroupError):
    """A pairing does not define an isomorphism of central subgroups."""


class NotAbelian(GroupError):
    """An operation restricted to abelian groups received a non-abelian one."""


class NotCyclic(GroupError):
    """An operation restricted to cyclic groups received a non-cyclic one."""


class IndexMismatch(GroupError):
    """Indexed families of a factorization system have inconsistent lengths."""


class SystemMismatch(GroupError):
    """A factorization system does not match the orbit data it must index."""


class InvalidChoice(GroupError):
    """A per-orbit class choice does not belong to its orbit."""


class HypothesisViolated(GroupError):
    """A constructive routine was called outside its stated hypotheses."""


class NotADirectFactorizationOfZ(GroupError):
    """The supplied pair does not factor the central subgroup directly."""


class NotSemiRegular(GroupError):
    """The element fixes some conjugacy class (or is not central)."""


class OrderNotPrimePowerAtLeastSquare(GroupError):
    """The element order is not p**k with p prime and k >= 2."""


class NotCertified(GroupError):
    """The operation requires a certified full-group factorization."""


class ForeignSubset(GroupError, ValueError):
    """A subset belongs to another group table than the one it is used in.

    Also a ValueError, so that callers catching that still catch it."""


class ContainmentViolated(GroupError, ValueError):
    """A subset is not contained in the subgroup it must live in.

    Also a ValueError, as ForeignSubset is."""


class ElementOutOfRange(GroupError, ValueError):
    """An element index is not an integer in 0..order-1 of the group it is
    used in.

    Also a ValueError, as ForeignSubset is."""


class SearchSpaceTooLarge(GroupError):
    """An exhaustive search would exceed the configured budget."""


class TimeBudgetExceeded(SearchSpaceTooLarge):
    """Wall-clock budget ran out mid-search; carries partial results and the
    phase it ran out in."""

    def __init__(self, message, partial=None, phase=None):
        super().__init__(message)
        self.partial = partial
        self.phase = phase


class InternalCheckFailed(GroupError):
    """A cross-check that must hold mathematically failed; indicates a bug."""


def internal_check(condition, message):
    if not condition:
        raise InternalCheckFailed(message)
