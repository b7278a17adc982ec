import pytest
from hypothesis import settings

import support
from stagedsl import hot
from stagedsl.cgen import have_c_compiler

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
    order: every text goes through hot._record, which compiles a text once
    per process for its inputs, so its cache starts empty."""
    texts = Sources()

    def counted(text, *args):
        texts.append(text)
        texts.seen.append((text, texts.probe()))
        return compile(text, *args)

    monkeypatch.setattr(hot, "compile", counted, raising=False)
    hot._record.cache_clear()
    return texts


@pytest.fixture(params=["default", "hot"])
def tier(request, monkeypatch):
    """A differential test's run at the default HOT, and again with every
    staged loop and Iter hot on its first run that takes a trip: hot.loop
    reads HOT on every run.  A test that parametrizes it indirectly with
    "native" too runs a third time with NATIVE and PER_CALL at 1 as well,
    so every pure hot body runs as C from its first run, however short (see
    the native fixture)."""
    if request.param != "default":
        monkeypatch.setattr(hot, "HOT", 1)
    if request.param == "native":
        monkeypatch.setattr(hot, "PER_CALL", 1)
        yield from _native(monkeypatch, 1)
    else:
        yield


@pytest.fixture
def native(monkeypatch):
    """Whether each build the native tier tried, in order, gave a kernel,
    with hot.NATIVE at support.SMALL_NATIVE; skipped without a C compiler."""
    yield from _native(monkeypatch, support.SMALL_NATIVE)


def _native(monkeypatch, trips):
    """hot.NATIVE at trips, and no text counted, kernel built or refusal
    made before the test or kept after it: the records start and end empty."""
    if not have_c_compiler():
        pytest.skip("no C compiler")
    built, build = [], hot._build

    def recorded(source):
        kernel = build(source)
        built.append(kernel is not None)
        return kernel

    monkeypatch.setattr(hot, "NATIVE", trips)
    monkeypatch.setattr(hot, "_build", recorded)
    hot._record.cache_clear()
    yield built
    hot._record.cache_clear()
