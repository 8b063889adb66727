"""Exception types raised across the package."""


class NotPositiveSemidefiniteError(ValueError):
    """A block-probability matrix has an eigenvalue below the PSD tolerance."""


class ModelError(ValueError):
    """A sparsity factor, edge probability or adjacency is invalid; nothing is clamped."""


class InvalidDistributionError(ValueError):
    """A latent distribution cannot produce valid inner products."""


class InsufficientSampleError(ValueError):
    """Too few points for the requested statistic."""


class DegenerateRowError(ValueError):
    """Rows too close to the origin for the unit-sphere projection."""

    def __init__(self, vertices, floor):
        self.vertices = list(vertices)
        self.floor = floor
        super().__init__(
            f"{len(self.vertices)} row(s) have norm <= {floor:g} and cannot be "
            f"projected onto the unit sphere (vertices {self.vertices[:10]}"
            f"{'...' if len(self.vertices) > 10 else ''})"
        )


class EdgeListFormatError(ValueError):
    """Malformed edge-list file, carrying the offending line number."""

    def __init__(self, message, line_number):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
