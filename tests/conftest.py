import builtins
import errno

import pytest

from dvcm.evaluation import load_fixture
from dvcm.generator import GenParams, generate_corpus


@pytest.fixture(scope="session")
def f1():
    return load_fixture("f1")


@pytest.fixture(scope="session")
def medium_corpus():
    """A 300-shot seeded corpus shared by the engine and index tests."""
    return generate_corpus(GenParams(n_shots=300, n_dancers=6, n_step_defs=10, seed=5))


class _HalfWrittenFile:
    """A file whose first write stores half its text, then fails; reads pass."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def read(self, *args):
        return self._fh.read(*args)

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def disk_full(monkeypatch):
    """Make every file the corpus and index savers open fail partway."""
    import dvcm.model

    monkeypatch.setattr(
        dvcm.model,
        "open",
        lambda path, *args, **kwargs: _HalfWrittenFile(builtins.open(path, *args, **kwargs)),
        raising=False,
    )
