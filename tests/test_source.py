"""Source-level guards over the `cohsim` package."""

import ast
import dataclasses
import inspect
import pathlib
import re
import sys

import cohsim
from cohsim import checker, cli
from cohsim.fsm_cce import FsmCce
from cohsim.lce import Lce
from cohsim.messages import CceCommand
from cohsim.system import SystemConfig
from cohsim.ucode import asm
from cohsim.ucode.engine import UcodeCce, default_program
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


def _shared_random_uses(tree):
    """Uses of the `random` module other than building a seeded
    `random.Random(...)`: (line, what) for each."""
    found = []
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "random"}
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [(node.lineno, f"from random import {alias.name}")
                      for alias in node.names]
    seeded = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and (node.args or node.keywords)}
    found += [(node.lineno, f"{node.value.id}.{node.attr}")
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases
              and not (node.attr == "Random" and id(node) in seeded)]
    return found


def test_random_draws_come_from_a_seeded_generator():
    """`random` serves only to build a seeded `random.Random(...)`: no
    module-level draw or reseed such as `random.random()`,
    `random.choice()` or `random.seed()`, so every trace is reproducible
    from its seed."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{line}: {what}"
                  for line, what in _shared_random_uses(tree)]
    assert not found, found


def test_shared_random_uses_are_found():
    source = ("import random\n"
              "import random as r\n"
              "from random import choice\n"
              "rng = random.Random(1)\n"
              "rng2 = r.Random(seed)\n"
              "random.seed(1)\n"
              "r.random()\n"
              "random.Random()\n")
    assert _shared_random_uses(ast.parse(source)) == [
        (3, "from random import choice"), (6, "random.seed"),
        (7, "r.random"), (8, "random.Random")]


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


def test_engines_sequence_through_one_generator():
    """Both engines give the core one sequencer, a generator of cycle
    tags; no module keeps a per-cycle `_step` or a unit-starting
    `_start`."""
    assert inspect.isgeneratorfunction(FsmCce._sequencer)
    assert inspect.isgeneratorfunction(UcodeCce._sequencer)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}: {node.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("_step", "_start")]
    assert not found, found


def test_only_the_directory_reads_its_tag_sets():
    """No module but `directory` reads `DirectorySegment.way_groups`: the
    engines see the tag sets only through a way-group read's record."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        if name == "directory.py":
            continue
        tree = ast.parse(path.read_text(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "way_groups"]
    assert not found, found


def test_only_the_protocol_picks_a_write_column():
    """No module but `protocol` reads a write column of `DirRequestKind`:
    everything else takes a request's column from `request_kind`."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        if name == "protocol.py":
            continue
        tree = ast.parse(path.read_text(), filename=name)
        found += [f"{name}:{node.lineno}: {node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("ReqWrFromI", "ReqWrFromS",
                                    "ReqWrFromOF")]
    assert not found, found


def _on_store_calls(node):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "on_store"]


def test_one_access_path_in_the_cache_controller():
    """Every access on a line, hit or completed miss, is done by
    `Lce._perform`: it alone calls the `on_store` hook, the per-path
    helpers are gone, and a fill command carries no access size."""
    tree = ast.parse((SRC / "lce.py").read_text())
    lce = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Lce")
    methods = {node.name: node for node in lce.body
               if isinstance(node, ast.FunctionDef)}
    assert _on_store_calls(methods["_perform"])
    assert len(_on_store_calls(tree)) == len(
        _on_store_calls(methods["_perform"]))
    assert not {"_store_conditional", "_apply_write_op"} & set(methods)
    assert "size" not in {f.name for f in dataclasses.fields(CceCommand)}


def _message_tags(tree):
    """The tags of the message tuples a module builds: the leading string
    of each tuple literal whose second element is not a string."""
    return {node.elts[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and len(node.elts) > 1
            and isinstance(node.elts[0], ast.Constant)
            and isinstance(node.elts[0].value, str)
            and not (isinstance(node.elts[1], ast.Constant)
                     and isinstance(node.elts[1].value, str))}


def test_one_command_path():
    """Every directory command, grants included, goes through its table
    cell: the cache controller has no fill or upgrade path beside
    `handle_command`, and every message the checker sends a cache is a
    "cmd" tuple, delivered by `_cmd_rule`."""
    assert not {"apply_fill", "_complete_write_upgrade"} & set(vars(Lce))
    tags = {"req", "invack", "wb", "cohack", "cmd"}
    assert set(checker._KIND) == tags
    assert _message_tags(ast.parse((SRC / "checker.py").read_text())) == tags


def test_message_tags_are_found():
    source = ('MUTATIONS = ("a", "b")\n'
              'x in ("cmd", "wb")\n'
              'adds = (("fill", i, 0), ("inv", t))\n')
    assert _message_tags(ast.parse(source)) == {"fill", "inv"}


def test_assembler_grammar_names_every_mnemonic():
    """The grammar in `asm`'s docstring names every opcode's mnemonic."""
    missing = [op.name.lower() for op in Op
               if not re.search(rf"\b{op.name.lower()}\b", asm.__doc__)]
    assert not missing, missing
