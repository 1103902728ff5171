"""The root conftest's wall-clock cap when pytest-timeout is absent.

Every CI pytest command passes ``--timeout=``.  Where the plugin is not
registered -- not installed, or blocked with ``-p no:timeout`` -- the
conftest must accept that flag itself (overriding the ini value) and
enforce it with SIGALRM.
"""

import os
import shutil
import signal
import subprocess
import sys

import pytest

ROOT_CONFTEST = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "conftest.py")

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                                reason="the fallback needs SIGALRM")


def _run(tmp_path, *args):
    shutil.copy(ROOT_CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\ntimeout = 1\n")
    (tmp_path / "test_sleepy.py").write_text(
        "import time\n\n\ndef test_sleeps():\n    time.sleep(1.5)\n")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:timeout",
         "-p", "no:cacheprovider", *args, str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)


def test_ini_cap_fires_with_the_plugin_blocked(tmp_path):
    out = _run(tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "exceeded the 1s wall-clock cap" in out.stdout


def test_flag_overrides_the_ini_cap(tmp_path):
    out = _run(tmp_path, "--timeout=10")
    assert out.returncode == 0, out.stdout + out.stderr
