"""Exception types shared across the package."""


class SitsformerError(Exception):
    """Base class for all package errors."""


class ShapeError(SitsformerError, ValueError):
    """Tensor dimensions are incompatible with the requested operation."""


class ContractError(SitsformerError, ValueError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class ConfigError(SitsformerError, ValueError):
    """A configuration value is invalid or inconsistent."""


class DataError(SitsformerError, ValueError):
    """Sample content is invalid (labels out of range, palette overflow, ...)."""


class FormatError(SitsformerError, ValueError):
    """A file does not conform to its binary or text format.

    ``offset``, when not None, is the byte position at which parsing failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CompatibilityError(SitsformerError, ValueError):
    """A checkpoint does not match the model or config it is loaded into."""


class MetricError(SitsformerError, ValueError):
    """A metric is undefined for the given inputs (e.g. empty confusion matrix)."""


class TrainingDiverged(SitsformerError, RuntimeError):
    """Training aborted on a non-finite loss or gradient.

    Carries the step/lr at failure, the gradient norm and the recent loss
    history for diagnosis.
    """

    def __init__(self, step: int, lr: float, loss_history: list[float],
                 grad_norm: float):
        tail = ", ".join(f"{v:.6g}" for v in loss_history[-10:])
        super().__init__(
            f"non-finite loss or gradient at step {step} (lr={lr:.6g}, "
            f"gradient norm {grad_norm:.6g}); recent losses: [{tail}]"
        )
        self.step = step
        self.lr = lr
        self.grad_norm = grad_norm
        self.loss_history = list(loss_history)
