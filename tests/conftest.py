import pytest
from hypothesis import settings

from stagedsl import hot

# sandboxed CI boxes jitter too much for per-example deadlines
settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


class Sources(list):
    """The texts compiled, in order.  `seen` pairs each text with what
    `probe()` returned as it was compiled, such as the output so far."""

    def __init__(self):
        super().__init__()
        self.seen = []
        self.probe = lambda: None


@pytest.fixture
def sources(monkeypatch):
    """The texts compiled into the functions of hot loops and Iters, in
    order: every text goes through hot.Source.function, which compiles a
    text once per process, so the cache starts empty."""
    texts = Sources()

    def counted(text, *args):
        texts.append(text)
        texts.seen.append((text, texts.probe()))
        return compile(text, *args)

    monkeypatch.setattr(hot, "compile", counted, raising=False)
    hot._code.cache_clear()
    return texts


@pytest.fixture(params=["default", "hot"])
def tier(request, monkeypatch):
    """A differential test's run at the default HOT, and again with every
    staged loop and Iter hot on its first run that takes a trip: hot.loop
    reads HOT on every run."""
    if request.param == "hot":
        monkeypatch.setattr(hot, "HOT", 1)
