"""Every function, class and method that src/sfkit defines, and every
UPPER_CASE constant that a module of it assigns at module level, is named
again somewhere in src/sfkit or perfbench, and every field of the settings
dataclasses is read there as ``.<field>``: a name that no library or
benchmark code reads is dead.

Names are matched as whole words over the raw text, comments, docstrings and
strings included (perfbench names its hooks in strings).  A dead name that
collides with another identifier, such as a ``shape`` property, therefore
passes: this check is a floor, not a proof.
"""

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

from sfkit.pipeline import RunConfig
from sfkit.pointcloud import EgoMotion, MoverSpec, SceneConfig
from sfkit.voxelizer import VoxelGrid

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "sfkit").glob("*.py"))
READERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
# Kept with no library reader: the dense oracle, the ego-motion helper and
# the fixture constructors that tests build from.
ALLOWED = {"to_dense", "warp_to_frame", "zeros", "identity"}


def definitions(path):
    """The function, class and method names defined in one file, dunders
    aside, and the UPPER_CASE names that its module level assigns."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in ast.walk(node):
                if (isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                        and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id)):
                    yield name.id


def test_every_library_name_is_read_outside_its_definition():
    defined = Counter(name for path in LIBRARY for name in definitions(path))
    text = "\n".join(path.read_text() for path in READERS)
    dead = sorted(
        name for name, n_defs in defined.items()
        if name not in ALLOWED and len(re.findall(rf"\b{name}\b", text)) <= n_defs
    )
    assert dead == []


def test_every_settings_field_is_read_outside_its_definition():
    # A definition spells ``name: type``; only a read spells ``.name``.
    text = "\n".join(path.read_text() for path in READERS)
    unread = sorted(
        f"{cls.__name__}.{field.name}"
        for cls in (RunConfig, SceneConfig, MoverSpec, EgoMotion, VoxelGrid)
        for field in dataclasses.fields(cls)
        if not re.search(rf"\.{field.name}\b", text)
    )
    assert unread == []
