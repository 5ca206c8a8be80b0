"""Settings shared by every test module."""

import numpy as np

# numpy 1.25 moved ComplexWarning into numpy.exceptions; older releases
# keep it at the top level, where numpy 2 no longer has it.
_COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    # A silently dropped imaginary part fails the run.
    config.addinivalue_line(
        "filterwarnings",
        f"error::{_COMPLEX_WARNING.__module__}.{_COMPLEX_WARNING.__name__}")
