import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    """Keep every reference the program caches inside the test's directory."""
    monkeypatch.setenv("NTCENTRAL_CACHE_DIR", str(tmp_path / "cache"))
