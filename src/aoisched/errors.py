"""Exception types shared across the package."""


class SurfaceError(Exception):
    """Base class for problems with loss-surface files or data."""


class ParseError(SurfaceError):
    """Malformed surface file: bad header, bad row, bad shape, duplicate cell."""


class HoleError(SurfaceError):
    """Surface grid has missing cells."""


class NonFiniteError(SurfaceError):
    """Surface contains NaN or infinite loss values."""


class BadSpec(ValueError):
    """Generator spec is unknown or its parameters are out of range."""


class OutOfDomain(LookupError):
    """An age pair fell outside the stored grid."""

    def __init__(self, delta1: int, delta2: int, d1_max: int, d2_max: int, note: str = ""):
        self.delta1 = delta1
        self.delta2 = delta2
        self.d1_max = d1_max
        self.d2_max = d2_max
        self.note = note
        msg = f"age pair ({delta1}, {delta2}) outside stored grid {d1_max}x{d2_max}"
        if note:
            msg = f"{msg} ({note})"
        super().__init__(msg)

    def __reduce__(self):
        # the default replays only (msg,), which __init__ cannot take; worker
        # processes pickle their exceptions back to the parent
        return (OutOfDomain, (self.delta1, self.delta2, self.d1_max, self.d2_max, self.note))

