"""Exception hierarchy shared across the toolkit.

Every error raised by this package derives from PotsError so callers can
catch one base class. The CLI maps subclasses onto exit codes.
"""

from __future__ import annotations


class PotsError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(PotsError):
    """An argument violates a documented precondition."""


class ShapeError(InvalidInputError):
    """Tensor operation received incompatible shapes."""


class FormatError(PotsError):
    """A file or byte stream does not follow the expected layout."""


class CorruptionError(FormatError):
    """Stored bytes fail their integrity check."""


class StorageError(PotsError):
    """The underlying file system refused an operation."""


class UnsupportedTaskError(PotsError):
    """A model was asked to perform a task it does not implement."""

    def __init__(self, kind: str, task: str):
        super().__init__(f"model kind {kind!r} does not support task {task!r}")
        self.kind = kind
        self.task = task


class TrainingDivergedError(PotsError):
    """Training produced a non-finite loss or validation metric.

    batch is None when the value is an epoch's validation metric.
    """

    def __init__(self, epoch: int, batch: int | None, loss: float):
        if batch is None:
            where = f"validation metric {loss!r} after epoch {epoch}"
        else:
            where = f"training loss {loss!r} at epoch {epoch}, batch {batch}"
        super().__init__(f"non-finite {where}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
