"""Fixtures shared by the test modules: a cold start of the package's
memos, and a spy that counts Velu isogeny builds."""

import functools
import sys

import pytest


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty caches in place of every lru_cache of the package, under each
    module binding that reads one, so the test sees a cold start.
    monkeypatch puts the warm caches back afterwards, untouched, so the
    test leaves no value behind and no later test pays for it."""
    fresh = {}
    for name, module in list(sys.modules.items()):
        if name != "fiverank" and not name.startswith("fiverank."):
            continue
        for attr, fn in list(vars(module).items()):
            if callable(getattr(fn, "cache_clear", None)) and hasattr(fn, "__wrapped__"):
                if fn not in fresh:
                    fresh[fn] = functools.lru_cache(**fn.cache_parameters())(fn.__wrapped__)
                monkeypatch.setattr(module, attr, fresh[fn])


@pytest.fixture
def velu_builds(monkeypatch):
    """The domain curve of every Velu quotient built during the test, in
    the order built: every isogeny of the package goes through
    isogeny.velu_quotient."""
    from fiverank import isogeny

    built = []
    real = isogeny.velu_quotient

    def spy(E, kernel):
        built.append(E)
        return real(E, kernel)

    monkeypatch.setattr(isogeny, "velu_quotient", spy)
    return built
