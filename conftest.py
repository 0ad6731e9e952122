"""Root pytest set-up.

hypothesis imports libcst while it reports a failing test, and importing
libcst raises mypy_extensions' TypedDict DeprecationWarning. Under
``python -m pytest -W error`` that warning is an error there, and the
session ends in INTERNALERROR instead of reporting the failure. Importing
libcst once here, with only that warning ignored, leaves the later import a
cached module lookup.
"""
import importlib.util
import warnings

if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                category=DeprecationWarning)
        import libcst  # noqa: F401
