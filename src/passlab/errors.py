"""Exception taxonomy shared by all passlab modules."""


class PasslabError(Exception):
    """Base class for all passlab errors."""


class InvalidPoint(PasslabError):
    """A point's dimension does not match the field it is evaluated on."""


class InvalidRegionSpec(PasslabError):
    """A fixed-region spec is malformed, or too close in value to the push
    bands."""


class VectorFieldSingular(PasslabError):
    """The gradient norm fell below the floor where the cutoff is nonzero,
    at ``point`` (a list of coordinates)."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class PinMoved(PasslabError):
    """A pinned path node was not preserved exactly by the deformation."""


class InvalidInstance(PasslabError):
    """The two minimax levels coincide; the proof trace requires c1 != c2."""


class GridTooLarge(PasslabError):
    """Exhaustive path enumeration was requested on a grid above the size cap."""


class ConfigError(PasslabError):
    """An experiment config failed validation."""
