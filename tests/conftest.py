import pytest


@pytest.fixture
def forbid(monkeypatch):
    """``forbid(message, target, *names)`` replaces each ``target.name`` with
    a stub that fails the test with ``message`` when it is called, for the
    test's duration, and returns the stub (with no ``target``, only returns
    it)."""

    def install(message, target=None, *names):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{message}, called with {args!r} {kwargs!r}")

        for name in names:
            monkeypatch.setattr(target, name, refuse)
        return refuse

    return install
