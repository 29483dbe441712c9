"""Fixtures shared by every test module."""

from contextlib import contextmanager

import pytest

from sitsformer import training
from sitsformer.tensor import active_tape


@pytest.fixture(autouse=True)
def empty_tape():
    """Run each test on an empty tape for this thread, and empty it after.

    A test that records a forward and never calls ``backward`` would
    otherwise leave its entries for the next test to count.
    """
    active_tape().clear()
    yield
    active_tape().clear()


class _Killed(Exception):
    """Where a killed run would have stopped."""


@pytest.fixture
def kill_after_state():
    """``with kill_after_state(k): train_loop(...)`` runs training as a
    process killed right after it writes epoch k's training state.

    ``training.save_training_state`` raises once it has written that state,
    and the block must end there, with the schedule of the full run.
    """

    @contextmanager
    def killed(epoch):
        save = training.save_training_state

        def save_then_kill(path, model, opt, at, *rest):
            save(path, model, opt, at, *rest)
            if at == epoch:
                raise _Killed(epoch)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "save_training_state", save_then_kill)
            with pytest.raises(_Killed):
                yield

    return killed
