"""Wall-clock safety net: no test may hang the suite.

The simulator's failure mode for a lost wakeup used to be an engine
that never drains -- i.e. a silently hung pytest run.  The watchdog
(DESIGN.md §8) converts in-simulation hangs into drained engines, and
this cap converts everything else (a genuine infinite loop in the
harness itself) into a failed test.

When the pytest-timeout plugin is registered (the ``dev`` extra; CI
installs it) it enforces the ``timeout`` ini option from pyproject.toml
and the ``--timeout`` flag, and this file stays out of its way.  When
it is not -- not installed, or blocked with ``-p no:timeout`` -- we
register the same ini option and flag ourselves (the flag overriding
the ini value, 0 meaning no cap) and enforce them with SIGALRM where
the platform supports that.
"""

import math
import signal

import pytest

_DEFAULT_TIMEOUT_S = 120


def _fallback(pluginmanager) -> bool:
    """True unless the pytest-timeout plugin is registered."""
    return not pluginmanager.has_plugin("timeout")


def pytest_addoption(parser, pluginmanager):
    if _fallback(pluginmanager):
        parser.addini("timeout",
                      "per-test wall-clock cap in seconds "
                      "(fallback for the pytest-timeout plugin)",
                      default=None)
        parser.addoption("--timeout", type=float, default=None,
                         help="per-test wall-clock cap in seconds, "
                              "overriding the timeout ini value; 0 for "
                              "none (fallback for the pytest-timeout "
                              "plugin)")


if hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        config = item.config
        if not _fallback(config.pluginmanager):
            return (yield)
        seconds = config.getoption("timeout")
        if seconds is None:
            raw = config.getini("timeout")
            seconds = float(raw) if raw else _DEFAULT_TIMEOUT_S
        # alarm() takes whole seconds; a fraction rounds up, not to 0.
        seconds = math.ceil(seconds)
        if seconds <= 0:
            return (yield)

        def _expired(signum, frame):
            raise TimeoutError(
                f"{item.nodeid} exceeded the {seconds}s wall-clock cap")

        old_handler = signal.signal(signal.SIGALRM, _expired)
        old_alarm = signal.alarm(seconds)
        try:
            return (yield)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old_handler)
            if old_alarm:
                signal.alarm(old_alarm)
