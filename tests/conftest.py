import pytest
from hypothesis import settings

from stagedsl import runtime

# sandboxed CI boxes jitter too much for per-example deadlines
settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


@pytest.fixture
def sources(monkeypatch):
    """The texts the runtime compiles into hot loops' functions, in order."""
    texts = []

    def counted(text, *args):
        texts.append(text)
        return compile(text, *args)

    monkeypatch.setattr(runtime, "compile", counted, raising=False)
    return texts
