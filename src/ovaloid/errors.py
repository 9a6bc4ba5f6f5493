"""Exception and warning types shared across the toolkit."""


class OvaloidError(Exception):
    """Base class for all toolkit errors."""


# --- geometry construction ---

class DegenerateInput(OvaloidError):
    """Input points are collinear/coplanar or otherwise span too little."""


class UnboundedBody(OvaloidError):
    """Halfspace normals do not positively span space."""


class EmptyBody(OvaloidError):
    """Halfspace intersection is empty or has empty interior."""


class DegenerateVertex(OvaloidError):
    """Vertex has fewer than 3 incident faces or a flat normal cone."""


class DegenerateFace(OvaloidError):
    """A prescribed face vanished at the solver optimum."""


class MalformedGeometry(OvaloidError, ValueError):
    """Points or normals are not a finite (n, 3) array, normals are not of
    unit length, or per-face arrays differ in length."""


class InvalidPolytope(OvaloidError, ValueError):
    """Vertices and face cycles break a boundary-complex invariant: a face
    with fewer than 3 vertices, a vertex outside a face halfspace or on
    fewer than 3 face planes, a face that is not planar, or a closing
    defect."""


class NonPositiveScale(OvaloidError, ValueError):
    """A body was scaled by a factor that is not positive."""


class NegativeCurvature(OvaloidError, ValueError):
    """Curvature samples must be strictly positive."""


# --- Minkowski problem ---

class MalformedMinkowskiData(OvaloidError, ValueError):
    """Normals, face areas or sphere cells have the wrong count, sign or total."""


class DegenerateNormals(OvaloidError, ValueError):
    """Face normals repeat or do not span space."""


class OpenAreaVector(OvaloidError, ValueError):
    """The area-weighted normals do not sum to zero, and no positive areas
    that do were found."""


# --- file ingestion ---

class ParseError(OvaloidError):
    """Malformed file; carries line/field diagnostics."""

    def __init__(self, message, path=None, line=None, field=None):
        self.path = path
        self.line = line
        self.field = field
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        prefix = " (" + ", ".join(where) + ")" if where else ""
        super().__init__(message + prefix)


class SchemaError(OvaloidError):
    """Parsed content violates a named schema constraint."""

    def __init__(self, constraint, message=""):
        self.constraint = constraint
        super().__init__(f"{constraint}: {message}" if message else constraint)


# --- intrinsic metric ---

class InvalidNet(OvaloidError):
    """Net fails the closedness or edge-length gluing conditions."""


class NonConvexPolygon(InvalidNet):
    """A polygon of the net has a reflex corner, so straight unfoldings
    cannot find its geodesics."""


class MalformedNet(OvaloidError, ValueError):
    """Net polygons are not finite CCW arrays, or an identification names
    an edge that is not there."""


class PointOutsidePolygon(OvaloidError, ValueError):
    """A surface point does not lie in the polygon that names it."""


class CoincidentPoints(OvaloidError, ValueError):
    """The two ends of a geodesic query are one surface point."""


class ArclengthOutOfRange(OvaloidError, ValueError):
    """An arclength lies outside the geodesic it is measured on."""


class SearchBudgetExceeded(OvaloidError):
    """Geodesic search expanded more face sequences than its state budget."""


class TooFewSamples(OvaloidError, ValueError):
    """A scan needs more sample points than it was given."""


class TriangleInequalityViolated(OvaloidError):
    """Side lengths cannot form a planar triangle."""


# --- Monge-Ampere solver ---

class NotEnvelopeVertex(OvaloidError):
    """Node is not a vertex of the lower convex envelope."""


class DuplicateNodes(OvaloidError, ValueError):
    """Two nodes of a PL convex function share a position."""


class MalformedMAProblem(OvaloidError, ValueError):
    """Monge-Ampere problem arrays have the wrong shape, sign or placement:
    collinear boundary nodes, interior nodes off the domain's interior, a
    weight that is not positive."""


class MalformedPLFunction(OvaloidError, ValueError):
    """A PL convex function has not exactly one value per node."""


class MalformedSchedule(OvaloidError, ValueError):
    """Continuation parameters are fewer than 2 or not strictly increasing."""


class NonPositiveDensity(OvaloidError, ValueError):
    """A constant Monge-Ampere density is not positive."""


class UnboundedCell(OvaloidError, ValueError):
    """A subgradient cell is unbounded and no clip window was given."""


class QuadratureFailure(OvaloidError):
    """Weight function evaluated to a non-finite value."""


class Infeasible(OvaloidError):
    """Target masses exceed the attainable slope-image mass."""


class IncomparableProblems(OvaloidError):
    """Comparison preconditions (ordered masses/boundaries) fail."""


class MaxIterExceeded(OvaloidError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message, best=None, residual=None):
        self.best = best
        self.residual = residual
        super().__init__(message)


class MinStepReached(OvaloidError):
    """Homotopy step fell below the minimum; carries progress so far."""

    def __init__(self, message, last_t=None, solutions=None):
        self.last_t = last_t
        self.solutions = solutions
        super().__init__(message)


# --- rigidity ---

class DegenerateGeometry(OvaloidError):
    """Vertex set too degenerate to span the trivial motion space."""


class MalformedSurface(OvaloidError, ValueError):
    """Surface arrays have the wrong shape or name a vertex that is not there."""


class OpenSurface(OvaloidError, ValueError):
    """An edge of a surface meant to be closed does not border exactly two triangles."""


class MalformedGrid(OvaloidError, ValueError):
    """Grid patch arrays differ in shape or have fewer than 3 nodes per axis."""


class NotStrictlyConvex(OvaloidError):
    """Discrete Hessian fails positive definiteness; carries node list."""

    def __init__(self, message, nodes=None):
        self.nodes = nodes or []
        super().__init__(message)


# --- CLI ---

class UnknownDemo(OvaloidError):
    """Requested demo name is not registered."""


class PrecisionWarning(UserWarning):
    """Result is returned but its supporting residual is suspiciously large."""
