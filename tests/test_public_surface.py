"""The public surface: every exported name resolves, the error module keeps
only the classes code raises or catches by name, and the README example runs."""

import contextlib
import io
import re
from pathlib import Path

import blockmin
from blockmin import errors

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(blockmin.__all__)) == len(blockmin.__all__)
    for name in blockmin.__all__:
        assert getattr(blockmin, name) is not None, name


def test_errors_define_the_seven_kept_classes():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert defined == {"BlockminError", "ConfigError", "TraceParseError", "SolverError",
                       "NotSpd", "NoPositiveRoot", "TooShort"}
    assert all(issubclass(getattr(errors, name), errors.BlockminError) for name in defined)


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().split()[0] == "True"
