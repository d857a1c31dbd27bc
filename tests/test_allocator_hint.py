"""The allocator hint the package gives glibc's malloc at import, and its silent fallback elsewhere."""

import ctypes
import os
import subprocess
import sys
import warnings

import pytest

import vortexlens

USER_SETTINGS = {  # each of these in the environment leaves the allocator to the user
    "MALLOC_TOP_PAD_": "131072",
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "GLIBC_TUNABLES": "glibc.malloc.top_pad=131072",
}


@pytest.fixture
def no_user_setting(monkeypatch):
    for name in USER_SETTINGS:
        monkeypatch.delenv(name, raising=False)


def raising(exc):
    def cdll(name):
        raise exc

    return cdll


class NoMallopt:  # a C library without mallopt, as on musl or macOS
    pass


def test_hint_pads_the_heap_top_and_pins_the_mmap_threshold(monkeypatch, no_user_setting):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: type("Libc", (), {"mallopt": staticmethod(mallopt)})())
    vortexlens._pad_heap_top()
    assert calls == [(-2, 2 << 20), (-3, 32 << 20)]  # M_TOP_PAD, M_MMAP_THRESHOLD


@pytest.mark.parametrize(
    "cdll",
    [raising(OSError("no C library handle")), raising(TypeError("no default library")), lambda name: NoMallopt()],
    ids=["OSError", "TypeError", "no mallopt"],
)
def test_hint_without_mallopt_returns_quietly(monkeypatch, capfd, no_user_setting, cdll):
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or cdll(name))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert vortexlens._pad_heap_top() is None
    assert opened == [None]
    assert seen == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("name", USER_SETTINGS)
def test_user_allocator_setting_wins(name):
    # a fresh interpreter whose environment tunes malloc: the import opens no C library
    script = "import ctypes; opened = []; ctypes.CDLL = opened.append; import vortexlens; print(opened)"
    env = dict(os.environ, **{name: USER_SETTINGS[name]})
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert (run.stdout, run.stderr) == ("[]\n", "")
