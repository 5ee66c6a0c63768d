"""Every ``>>>`` example in the package runs and prints what it claims.

The modules are found by scanning the installed package's sources for
``>>>``, so a new example is covered the moment it is written.  Failures
print doctest's own report (expected vs got) in the captured output.
"""

import doctest
import importlib
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent


def _modules_with_examples() -> list[str]:
    names = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


MODULES = _modules_with_examples()


def test_examples_are_found():
    assert {"repro", "repro.api", "repro.database.distributed"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    failed, attempted = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert attempted > 0, f"{name} has '>>>' text but no runnable example"
    assert failed == 0, f"{failed} of {attempted} examples in {name} failed"
