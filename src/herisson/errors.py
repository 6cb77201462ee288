"""Exception types shared across the kernel."""


class HerissonError(Exception):
    """Base class for every error raised by this package."""


class MalformedFan(HerissonError):
    """The sphere-partition combinatorics cannot represent a closed surface."""


class SingularVertex(HerissonError):
    """Three coplanar normals at a cell: the vertex solve is singular."""


class InconsistentVertex(HerissonError):
    """A cell with more than three faces whose extra planes miss the vertex."""


class DegenerateFace(HerissonError):
    """A face collapsed: an edge or an oriented area fell below tolerance."""


class DegenerateEquipment(HerissonError):
    """Equipment vectors do not span 3-space (defensive; valid fans always do)."""


class NotSameClass(HerissonError):
    """Herissons are not parallel and of the same orientation (one fan, one class)."""


class ProbeFailed(HerissonError):
    """A finite-difference probe point left the orientation class."""
