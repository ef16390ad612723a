"""Canonical JSON (``repro.serve.canonical_json``).

Byte-identical-results comparisons -- a failed-over cluster result
against the fault-free one, a gateway digest against a direct submit --
only work because :func:`canonical_json` renders equal objects to equal
bytes regardless of insertion order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import canonical_json

pytestmark = pytest.mark.serving


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
        b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b

    def test_minimal_separators(self):
        assert canonical_json({"a": [1, 2], "b": "c"}) == '{"a":[1,2],"b":"c"}'

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinities_are_rejected(self, value):
        with pytest.raises(ValueError):
            canonical_json({"x": value})

    def test_output_is_ascii(self):
        """Non-ASCII text is escaped, so a body's bytes (and a digest
        over them) do not depend on the encoder the caller picks."""
        body = canonical_json({"model": "réseau"})
        assert body == '{"model":"r\\u00e9seau"}'
        assert body.encode("ascii")


def test_importing_serve_leaves_the_gateway_unloaded():
    """``canonical_json`` lives beside ``result_payload``, so the core
    serving package never pulls in the HTTP gateway that also uses it."""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve; print('repro.serve.http' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"
