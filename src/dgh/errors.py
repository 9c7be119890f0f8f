"""Typed errors shared across the library.

The CLI maps these onto exit codes: InputError (and subclasses) -> 2,
kind "input"; InternalError (and subclasses) -> 2, kind "internal";
BudgetExceeded -> 3.  Failed checks are reported, not raised.
"""


class DghError(Exception):
    """Base class for all library errors."""


class InputError(DghError):
    """Malformed or inconsistent user input (files, labels, indices)."""


class UnknownVertex(InputError):
    """A vertex label that is not in the digraph."""


class NotDigraphMap(InputError):
    """A vertex assignment that does not preserve arrows-or-equality."""


class NotInduced(InputError):
    """A map whose source is not the induced subdigraph it claims to be."""


class BadIndex(InputError):
    """An index outside the admissible range of a structured construction."""


class ParityError(BadIndex):
    """An odd parameter where an even one is required."""


class BudgetExceeded(DghError):
    """An enumeration or matrix exceeded its configured budget."""


class NotInClosed(InputError):
    """A vertex subset that is required to be in-closed but is not."""


class NotACover(InputError):
    """A family of subdigraphs that does not cover the ambient digraph."""


class MixedClosedness(InputError):
    """A cover mixing in-closed and out-closed members where one kind is required."""


class NotAUnion(InputError):
    """Two parts that do not union to the whole vertex set."""


class IndexMismatch(InputError):
    """Two families whose member names do not line up."""


class InternalError(DghError):
    """A failed invariant of the library's own constructions: a defect of
    the program, not of its input."""


class InvalidCubicalSet(InternalError):
    """A truncated cubical set whose structure tables violate an identity."""


class NotChainMap(InternalError):
    """A level map that does not commute with the boundary."""


class NotConnected(DghError):
    """An operation requiring a connected object got a disconnected one."""
