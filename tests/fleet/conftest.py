"""Fleet-test fixtures: golden report digests.

``golden_digests.json`` holds sha256 digests of fleet reports (JSON and
rendered text) and of a ``sim``-channel stream, recorded from the
standalone epoch loop the time-stepped :class:`FleetEngine` preset
replaced. Tests that once compared the two engines byte for byte now
compare the preset against these digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_DIGESTS = Path(__file__).with_name("golden_digests.json")


@pytest.fixture(scope="session")
def golden_digest():
    """``golden_digest(name, kind, text)`` asserts ``text`` hashes to
    the stored digest ``[name][kind]``."""
    digests = json.loads(GOLDEN_DIGESTS.read_text())

    def check(name: str, kind: str, text: str) -> None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == digests[name][kind], (
            f"{name} {kind} drifted from its golden digest"
        )

    return check
