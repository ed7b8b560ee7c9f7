"""Source-level guards over the `cohsim` package."""

import ast
import dataclasses
import pathlib
import re
import sys

import cohsim
from cohsim import cli
from cohsim.system import SystemConfig
from cohsim.ucode import asm
from cohsim.ucode.engine import default_program
from cohsim.ucode.isa import Op

SRC = pathlib.Path(cohsim.__file__).parent
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_no_assert_statements():
    """`python -O` strips asserts, so no check in the package may be one."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def _unused_imports(tree):
    """Names a module imports but never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{line}: {name}"
                  for name, line in _unused_imports(tree).items()]
    assert not found, found


def test_stdlib_only_imports():
    """The runtime uses only the standard library: every absolute import
    names a standard-library module or `cohsim` itself."""
    allowed = sys.stdlib_module_names | {"cohsim"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                      for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, found


def test_documented_config_keys_are_the_system_config_fields():
    """README's "Config files" section and the `cli` docstring name every
    `SystemConfig` field as a config key, and nothing else."""
    fields = [f.name for f in dataclasses.fields(SystemConfig)]
    section = README.read_text().split("### Config files", 1)[1]
    readme_keys = re.search(r"fields:(.*?)\.\s", section, re.S).group(1)
    assert re.findall(r"`(\w+)`", readme_keys) == fields
    cli_keys = re.search(r"SystemConfig fields \((.*?)\)", cli.__doc__,
                         re.S).group(1)
    assert [key.strip() for key in cli_keys.split(",")] == fields


def test_readme_microcode_sizes_match_the_assembler():
    """README's "Microcode" section gives each shipped program's size as
    the assembler counts it."""
    section = README.read_text().split("## Microcode", 1)[1]
    sizes = re.search(r"`moesif\.ucs`, (\d+)\s+instructions; `mesi\.ucs`, "
                      r"(\d+)\)", section)
    assert sizes is not None
    assert [int(n) for n in sizes.groups()] == [
        len(asm.assemble(default_program(name)))
        for name in ("moesif", "mesi")]


def test_engines_use_the_cores_memory_command_unit():
    """Only the engine core sends memory commands or checks memory
    credits; both engines go through its `_to_memory` unit."""
    found = []
    for name in ("fsm_cce.py", "ucode/engine.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found += [f"{name}:{node.lineno}: {node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("_send_mem", "has_mem_credit")]
    assert not found, found


def test_assembler_grammar_names_every_mnemonic():
    """The grammar in `asm`'s docstring names every opcode's mnemonic."""
    missing = [op.name.lower() for op in Op
               if not re.search(rf"\b{op.name.lower()}\b", asm.__doc__)]
    assert not missing, missing
