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


def _scoped(tree, match):
    """(line, enclosing class and function) of each node for which
    `match` is true; `<module>` outside any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(tree, [])
    return found


def _local_wgs_uses(tree):
    """Each use of a `local_wgs` or `_local_wgs` attribute (see
    `_scoped`)."""
    return _scoped(tree, lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ("local_wgs", "_local_wgs"))


def test_one_way_group_lookup():
    """`CceCore.local_wg` is the one function that maps an address to its
    local way group: the set-to-way-group table is used only where the
    directory segment builds it and names its sets in a snapshot, and
    where the engine core keeps it and looks an address up."""
    allowed = {("directory.py", "DirectorySegment.__init__"),
               ("directory.py", "DirectorySegment.snapshot"),
               ("cce.py", "CceCore.__init__"),
               ("cce.py", "CceCore.local_wg")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=name)
        found += [f"{name}:{line}: {scope}"
                  for line, scope in _local_wgs_uses(tree)
                  if (name, scope) not in allowed]
    assert not found, found


def test_local_wgs_uses_are_found():
    source = ("x = seg.local_wgs\n"
              "class A:\n"
              "    def f(self):\n"
              "        return [w for w in self._local_wgs]\n"
              "    def g(self):\n"
              "        self.local_wg = 1\n"
              "        return lambda: self.directory.local_wgs\n")
    assert _local_wgs_uses(ast.parse(source)) == [
        (1, "<module>"), (4, "A.f"), (7, "A.g")]


def _tick_uses(tree):
    """Each use of a `tick` attribute, called or not (see `_scoped`)."""
    return _scoped(tree, lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "tick")


def test_one_cycle_path():
    """Every simulated cycle is one `System.step`: it alone ticks a CCE
    (or memory), so no caller, `advance` included, keeps a second
    per-cycle path beside it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=name)
        found += [f"{name}:{line}: {scope}"
                  for line, scope in _tick_uses(tree)
                  if (name, scope) != ("system.py", "System.step")]
    assert not found, found


def test_tick_uses_are_found():
    source = ("cce.tick(0)\n"
              "class A:\n"
              "    def step(self):\n"
              "        for c in self.cces:\n"
              "            c.tick(self.now)\n"
              "    def f(self):\n"
              "        tick = self.mem.tick\n"
              "        return tick(1), self.ticks, lambda: c.tick(2)\n"
              "    def tick(self, now):\n"
              "        self.now = now\n")
    assert _tick_uses(ast.parse(source)) == [
        (1, "<module>"), (5, "A.step"), (7, "A.f"), (8, "A.f")]


def _is_tag_write(node):
    """An assignment to a `tag` attribute, a `setattr` of one, or a tag
    passed to the constructor of a cache line or directory entry."""
    if isinstance(node, ast.Attribute):
        return node.attr == "tag" and isinstance(node.ctx, ast.Store)
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id == "setattr":
        return any(isinstance(arg, ast.Constant) and arg.value == "tag"
                   for arg in node.args)
    return (node.func.id in ("CacheLine", "TagSetEntry")
            and any(kw.arg == "tag" for kw in node.keywords))


def test_tags_are_written_only_with_their_index():
    """A cache line's or directory entry's tag is written only by
    `directory.install_tag`, which indexes it, and by
    `DirectorySegment.clear_row`, which clears the row's indexes: a tag
    written anywhere else would leave its set's index stale."""
    allowed = {("directory.py", "install_tag"),
               ("directory.py", "DirectorySegment.clear_row")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=name)
        found += [f"{name}:{line}: {scope}"
                  for line, scope in _scoped(tree, _is_tag_write)
                  if (name, scope) not in allowed]
    assert not found, found


def test_tag_writes_are_found():
    source = ("line.tag = 1\n"
              "class A:\n"
              "    def f(self, e):\n"
              "        e.tag += 1\n"
              "        x = e.tag\n"
              "        a, self.sets[0][1].tag = 1, 2\n"
              "    def g(self, e):\n"
              "        setattr(e, 'tag', 0)\n"
              "        return CacheLine(tag=3), TagSetEntry(), f(tag=1)\n")
    assert _scoped(ast.parse(source), _is_tag_write) == [
        (1, "<module>"), (4, "A.f"), (6, "A.f"), (8, "A.g"), (9, "A.g")]


def _engine_core_uses(tree):
    """Each message a module builds (a `CceCommand` or `MemCmd` call)
    and each use of `read_way_group` (see `_scoped`)."""
    def match(node):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            return name in ("CceCommand", "MemCmd")
        return (isinstance(node, ast.Attribute)
                and node.attr == "read_way_group")
    return _scoped(tree, match)


def test_engines_only_sequence():
    """The engine core reads the way group and builds every message:
    neither engine builds a `CceCommand` or `MemCmd` or reads a way group
    itself, and no module but the core names the transfer commands or
    keeps a cache-table memo of its own."""
    found = []
    for name in ("fsm_cce.py", "ucode/engine.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found += [f"{name}:{line}: {scope}"
                  for line, scope in _engine_core_uses(tree)]
    assert not found, found
    transfers = [str(path.relative_to(SRC))
                 for path in sorted(SRC.rglob("*.py"))
                 if re.search(r"^TRANSFERS\b", path.read_text(), re.M)]
    assert transfers == ["cce.py"]
    assert not hasattr(Lce, "_action")


def test_engine_core_uses_are_found():
    source = ("cmd = CceCommand(kind, addr)\n"
              "class A:\n"
              "    def f(self):\n"
              "        self._to_memory(messages.MemCmd(addr=1))\n"
              "        return self.directory.read_way_group(wg, t, 0, 0)\n"
              "    def g(self, read=seg.read_way_group):\n"
              "        return CceCommandKind(), self._command(INV, 0, 0)\n")
    assert _engine_core_uses(ast.parse(source)) == [
        (1, "<module>"), (4, "A.f"), (5, "A.f"), (6, "A.g")]


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


# The modules `System` is built from; `system` imports each of them.
COMPONENTS = ("lce.py", "directory.py", "network.py", "memory.py",
              "messages.py", "protocol.py", "cce.py", "fsm_cce.py",
              "ucode/engine.py")


def _imports_system(tree):
    """The lines of a module that import the `system` module."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom)
                and ((node.module or "").split(".")[-1] == "system"
                     or any(a.name == "system" for a in node.names)))
            or (isinstance(node, ast.Import)
                and any(a.name.split(".")[-1] == "system"
                        for a in node.names))]


def test_one_configuration():
    """Every component reads the one `SystemConfig`: no other class named
    `...Config` is defined but the checker's `CheckConfig`, and no
    component imports `system`, which imports them."""
    configs = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        configs += [f"{path.relative_to(SRC)}:{node.name}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")]
    assert configs == ["checker.py:CheckConfig", "system.py:SystemConfig"]
    found = [f"{name}:{line}" for name in COMPONENTS
             for line in _imports_system(ast.parse((SRC / name).read_text()))]
    assert not found, found


def test_system_imports_are_found():
    source = ("from .system import SystemConfig\n"
              "from . import system\n"
              "from ..system import System\n"
              "import cohsim.system\n"
              "from .systems import x\n"
              "from . import protocol\n")
    assert _imports_system(ast.parse(source)) == [1, 2, 3, 4]


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
