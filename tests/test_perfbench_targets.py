"""Every function the traced benchmark wraps must still exist.

``perfbench/launch.py`` patches each ``(module, attribute path)`` of its
``TARGETS`` list before it starts the CLI, and ``install()`` raises
``AttributeError`` on a name that moved or was renamed, which fails
every traced run.  The list is read with :mod:`ast` so that this test
neither imports nor edits the launcher.
"""

import ast
import importlib
import pathlib

import pytest

LAUNCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def _targets():
    tree = ast.parse(LAUNCH.read_text(encoding="utf-8"), filename=str(LAUNCH))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return [tuple(entry[:2]) for entry in ast.literal_eval(node.value)]
    raise LookupError(f"no TARGETS list in {LAUNCH}")


def test_targets_list_is_found():
    assert len(_targets()) > 0


@pytest.mark.parametrize("module, path", _targets(),
                         ids=lambda value: str(value))
def test_target_resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
