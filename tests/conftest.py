"""Set-up shared by every test module."""

import warnings

# When a property fails, hypothesis imports its patch printer, and with it
# libcst, whose mypy_extensions import warns DeprecationWarning. Under a
# test's filterwarnings("error") that warning ends the run in a pytest
# INTERNALERROR in place of the falsifying example, so the import is made
# here, once, with the warning ignored.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:  # hypothesis or libcst is not installed
    pass
