"""Exception hierarchy for multifunction construction and analysis."""

from __future__ import annotations


class MfError(Exception):
    """Base class for all library errors."""


class OutOfDomainError(MfError):
    """A point or set lies outside the multifunction's domain."""


class NoSuchSideError(MfError):
    """One-sided limit requested on a side that does not exist."""


class DomainMismatchError(MfError):
    """Two multifunctions do not share the same domain interval."""


class RangeEscapeError(MfError):
    """Inner multifunction produces values outside the outer one's domain."""


class StructureError(MfError):
    """Representation-level invariant violated (tiling, ordering, typing)."""


class InvalidMultifunctionError(MfError):
    """validate() found violations; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"invalid multifunction: {report.summary()}")


class ParseError(MfError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class NotAJumpError(MfError):
    """The given point is not a set-valued point of the multifunction."""


class NoSingleTargetError(MfError):
    """A partition interval's image straddles a jump (Lemma-2.4 failure).

    Witnesses intensity > 1 for the branch part of the multifunction.
    """

    def __init__(self, interval_index: int, witness_jump):
        self.interval_index = interval_index
        self.witness_jump = witness_jump
        super().__init__(
            f"image of interval {interval_index} straddles jump {witness_jump}"
        )


class NotExclusiveError(MfError):
    """Operation requires intensity 1 (an exclusive multifunction)."""


class NotIncreasingError(MfError):
    """Operation requires a strictly increasing multifunction."""


class NotDecreasingError(MfError):
    """Operation requires a strictly decreasing multifunction."""


class InexactCutError(MfError):
    """Splitting would cut at a fixed point only known approximately."""


class RootConstructionError(MfError):
    """Base for scalar-root and builder construction failures."""


class HasInteriorFixedPointError(RootConstructionError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map has an interior fixed point near {witness}")


class WrongSideError(RootConstructionError):
    """g(x) > x where g(x) < x was required; caller should reflect."""


class BadSeedError(RootConstructionError):
    """Seed data violates the ordering/containment constraints."""


class IncompatiblePatternError(RootConstructionError):
    def __init__(self, description: str):
        self.description = description
        super().__init__(description)


class NonCompactJumpValueError(RootConstructionError):
    """J2 jump whose value is not a single compact interval."""

    def __init__(self, jump_location):
        self.jump_location = jump_location
        super().__init__(
            f"jump value at {jump_location} is not a single compact interval"
        )


class ConditionJStarViolatedError(RootConstructionError):
    """Jump-isolation condition for decreasing roots fails at a jump."""

    def __init__(self, jump_location, detail: str = ""):
        self.jump_location = jump_location
        super().__init__(
            f"jump-isolation condition fails at {jump_location}"
            + (f": {detail}" if detail else "")
        )


class UnsupportedCaseError(RootConstructionError):
    """Configuration the construction theory leaves open (e.g. low-order
    J3, any J4, chain routing)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class EvaluationRangeError(RootConstructionError):
    """A lazily constructed map was evaluated (or inverted) outside the
    region its orbit extension covers."""


class NoExactProofError(MfError):
    """An equality could not be proved in exact arithmetic: a map carries
    no witness (an opaque user map), gives an inexact value, or a witness
    does not fit where it is used.  The reason names the map; callers fall
    back to a grid comparison."""
