import sys
from pathlib import Path

import pytest

# let acceptance tests reuse helpers from sibling test modules
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def weight_bytes():
    """``weight_bytes(model)``: every weight's bytes, keyed like
    ``zoo.copy_weights``. Two models compare equal only bit for bit, so -0.0
    and NaN payloads count."""
    from tinyasc import zoo

    return lambda model: {k: a.tobytes() for k, a in zoo.copy_weights(model).items()}
