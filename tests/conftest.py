import pytest
from hypothesis import settings

from stagedsl import lowexpr

# sandboxed CI boxes jitter too much for per-example deadlines
settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


@pytest.fixture
def sources(monkeypatch):
    """The texts compiled into the functions of hot loops and Iters, in
    order: every text goes through lowexpr.Source.function."""
    texts = []

    def counted(text, *args):
        texts.append(text)
        return compile(text, *args)

    monkeypatch.setattr(lowexpr, "compile", counted, raising=False)
    return texts
