"""Exception types shared across the package."""


class ChemlmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ChemlmError, ValueError):
    """A model, training or sampling setting is out of range."""


class ArtifactError(ChemlmError, ValueError):
    """A vocabulary or checkpoint file is malformed or belongs to another run."""


class UnknownElementError(ChemlmError, ValueError):
    """An element symbol is not in the bundled periodic table."""


class InvalidLatticeError(ChemlmError, ValueError):
    """Lattice parameters do not define a realizable unit cell."""


class ParseError(ChemlmError, ValueError):
    """A structure file violates the expected grammar.

    Carries the 1-based line number of the first offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EncodeError(ChemlmError, ValueError):
    """A structure cannot be encoded under the given vocabulary."""

    def __init__(self, message: str, token: str = ""):
        super().__init__(message)
        self.token = token


class DecodeError(ChemlmError, ValueError):
    """A token sequence violates the scheme grammar.

    `kind` names the violation ("truncated_group", "expected_atom",
    "expected_coord", "malformed_char_stream", "unknown_indicator", ...)
    and `position` is the 1-based index of the offending content token.
    """

    def __init__(self, kind: str, position: int, message: str = ""):
        detail = message or kind.replace("_", " ")
        super().__init__(f"{detail} (content position {position})")
        self.kind = kind
        self.position = position


class TrainingDiverged(ChemlmError, RuntimeError):
    """A loss, gradient or parameter went non-finite; the last good checkpoint survives."""

    def __init__(self, step: int, checkpoint_path=None):
        where = f"step {step}"
        if checkpoint_path is not None:
            where += f" (last good checkpoint: {checkpoint_path})"
        super().__init__(f"training diverged at {where}")
        self.step = step
        self.checkpoint_path = checkpoint_path
