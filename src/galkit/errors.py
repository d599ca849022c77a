"""Exception types shared across the toolkit."""


class GalkitError(Exception):
    """Base class for all toolkit errors."""


class DuplicateElement(GalkitError):
    pass


class UnknownElement(GalkitError):
    pass


class CycleDetected(GalkitError):
    """The reflexive-transitive closure of the given pairs violates antisymmetry."""


class TooLarge(GalkitError):
    """An enumeration would exceed the configured size guard."""


class NotCompleteLattice(GalkitError):
    """A poset is missing a lub or glb; carries the offending pair.  A
    missing top, bottom or element has no pair, ``()``, and is named alone."""

    def __init__(self, pair, direction):
        super().__init__(f"no {direction} for pair {pair}" if pair else f"no {direction}")
        self.pair = pair
        self.direction = direction


class ShapeMismatch(GalkitError):
    """Tables are not total or refer to the wrong domains."""


class NotInClass(GalkitError):
    """A transform input (or output) failed its connection-class checker."""


class NotIsomorphic(GalkitError):
    pass


class NotSound(GalkitError):
    pass


class NotBlockPreserving(GalkitError):
    pass


class NotGI(GalkitError):
    pass


class UnknownName(GalkitError):
    pass


class BoundTooSmall(GalkitError):
    pass


class SizeGuard(GalkitError):
    pass


class DomainMismatch(GalkitError):
    pass


class FormatError(GalkitError):
    """Malformed domain or function file."""


class WhileSyntaxError(GalkitError):
    """Parse error in a while-language program, with position info."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UseBeforeAssign(GalkitError):
    pass


class UnknownVariable(GalkitError):
    pass
