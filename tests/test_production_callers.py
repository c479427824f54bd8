"""Every function or method defined under ``src/`` has a production caller.

The scan reads the AST of every module under ``src/``, ``perfbench/`` and
``examples/``, plus the ``python - <<'EOF'`` blocks of the CI workflow.  A
name counts as referenced when one of them reads it: an ``ast.Name`` id, an
``ast.Attribute`` attr, an identifier inside a ``"module:qualname"`` string
constant (the form perfbench's tracer wraps by name), or a literal name
passed to ``getattr`` or ``hasattr``.  Docstrings, comments and ``__all__``
entries do not count, and neither does test code (any path with a ``tests``
component, ``perfbench/tests`` included): a function only tests call
belongs in ``tests/helpers.py``.  Dunder methods are exempt, because the
interpreter calls them.

A function kept without a caller is named in :data:`ALLOWLIST` with its
reason; an allowlist entry that no longer exists, or now has a caller,
fails the test too, so the list cannot go stale.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Production trees whose references count, and the CI workflow whose
#: inline Python counts too.
SCANNED = ("src", "perfbench", "examples")
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: ``path:qualname`` of each function kept under ``src/`` with no
#: production caller, and why.
ALLOWLIST = {
    # Builder methods the heap-program fuzzer of ROADMAP item 3 will call.
    "src/repro/program/builder.py:FunctionBuilder.sub_imm",
    "src/repro/program/builder.py:FunctionBuilder.mul",
    "src/repro/program/builder.py:FunctionBuilder.xor",
    "src/repro/program/builder.py:FunctionBuilder.fload",
    "src/repro/program/builder.py:FunctionBuilder.fstore",
    "src/repro/program/builder.py:FunctionBuilder.nop",
    # The compiler pass that emits pointer hints for item 3's programs.
    "src/repro/program/compiler.py:annotate_pointer_hints",
    # The per-index schedule that tests hold windows() and measured_count()
    # to.
    "src/repro/sim/sampling.py:SamplingSchedule.phase_of",
}

_HEREDOC = re.compile(r"python - [^\n]*<<'EOF'\n(.*?)\n[ \t]*EOF\n", re.S)
_QUALNAME = re.compile(r"^[\w.]+:([\w.]+)$")


def workflow_sources(text: str):
    """The Python source of each ``python - <<'EOF'`` block of a workflow."""
    for block in _HEREDOC.findall(text):
        lines = block.splitlines()
        indent = min(len(line) - len(line.lstrip())
                     for line in lines if line.strip())
        yield "\n".join(line[indent:] for line in lines)


def _docstrings(tree):
    """The ``ast.Constant`` node of each docstring in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.value


def references(source: str) -> set:
    """Every name ``source`` reads, in the forms the module docstring lists."""
    tree = ast.parse(source)
    skipped = {id(node) for node in _docstrings(tree)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skipped):
            match = _QUALNAME.match(node.value)
            if match:
                names.update(match.group(1).split("."))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def definitions(source: str):
    """``(line, qualname)`` of each non-dunder function ``source`` defines."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((child.lineno, prefix + name))
                visit(child, prefix + name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def uncalled(modules, referenced, allowlist):
    """Offenders among ``modules`` (``{path: source}``).

    Returns ``path:line qualname`` for each unreferenced definition outside
    the allowlist, then ``allowlisted path:qualname ...`` for each entry
    that is gone or has gained a reference.
    """
    offenders, defined = [], {}
    for path, source in sorted(modules.items()):
        for line, qualname in definitions(source):
            key = f"{path}:{qualname}"
            defined[key] = qualname.rsplit(".", 1)[-1]
            if defined[key] not in referenced and key not in allowlist:
                offenders.append(f"{path}:{line} {qualname}")
    for key in sorted(allowlist):
        if key not in defined:
            offenders.append(f"allowlisted {key} is not defined")
        elif defined[key] in referenced:
            offenders.append(f"allowlisted {key} has a production caller")
    return offenders


def production_modules(root: Path):
    """Each module under :data:`SCANNED` below ``root``, less test code: a
    path with a ``tests`` component (``perfbench/tests``) is no caller."""
    for tree in SCANNED:
        for path in sorted((root / tree).rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                yield path


def production_references() -> set:
    """The names every production module and CI heredoc reads."""
    names = set()
    for path in production_modules(ROOT):
        names |= references(path.read_text())
    for source in workflow_sources(WORKFLOW.read_text()):
        names |= references(source)
    return names


def test_every_function_under_src_has_a_production_caller():
    modules = {str(path.relative_to(ROOT)): path.read_text()
               for path in (ROOT / "src").rglob("*.py")}
    assert uncalled(modules, production_references(), ALLOWLIST) == []


def test_every_ci_heredoc_is_scanned():
    # A block the pattern missed would hide the names only CI calls.
    text = WORKFLOW.read_text()
    sources = list(workflow_sources(text))
    assert len(sources) == text.count("<<'EOF'") > 0
    for source in sources:
        ast.parse(source)


class TestTheScan:
    """The guard on a synthetic library: each form of reference on its own."""

    LIBRARY = ("class Cache:\n"
               "    def __len__(self):\n"
               "        return 0\n"
               "    def lookup(self):\n"
               "        return self.flush()\n"
               "    def flush(self):\n"
               "        pass\n"
               "def traced():\n"
               "    pass\n"
               "def from_ci():\n"
               "    pass\n"
               "def probed():\n"
               "    pass\n")
    UNCALLED = ["lib.py:4 Cache.lookup", "lib.py:8 traced",
                "lib.py:10 from_ci", "lib.py:12 probed"]

    def scan(self, *sources, allowlist=()):
        referenced = references(self.LIBRARY)
        for source in sources:
            referenced |= references(source)
        return uncalled({"lib.py": self.LIBRARY}, referenced, set(allowlist))

    def test_it_flags_each_unreferenced_def(self):
        # lookup() calls flush(); nothing calls the other four.
        assert self.scan() == self.UNCALLED

    def test_a_dunder_method_is_exempt(self):
        assert [name for _, name in definitions(self.LIBRARY)] == [
            "Cache.lookup", "Cache.flush", "traced", "from_ci", "probed"]

    def test_a_module_qualname_string_counts(self):
        # perfbench's tracer wraps its layers by name.
        perfbench = ('LAYERS = (("x", "lib:traced", None),\n'
                     '          ("y", "lib:Cache.lookup", None))\n')
        assert self.scan(perfbench) == ["lib.py:10 from_ci",
                                        "lib.py:12 probed"]

    def test_a_call_in_a_ci_heredoc_counts(self):
        workflow = ("    steps:\n"
                    "      - run: |\n"
                    "          python - \"$out\" <<'EOF'\n"
                    "          import lib\n"
                    "          lib.from_ci()\n"
                    "          EOF\n")
        assert self.scan(*workflow_sources(workflow)) == [
            "lib.py:4 Cache.lookup", "lib.py:8 traced", "lib.py:12 probed"]

    def test_a_literal_getattr_or_hasattr_name_counts(self):
        assert self.scan('getattr(cache, "lookup")\n'
                         'hasattr(lib, "probed")\n') == [
            "lib.py:8 traced", "lib.py:10 from_ci"]

    def test_a_reference_from_test_code_does_not_count(self, tmp_path):
        # perfbench's own tests sit under a scanned tree.
        for path, source in (("perfbench/run.py", "lib.traced()\n"),
                             ("perfbench/tests/test_run.py",
                              "lib.from_ci()\n")):
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_text(source)
        modules = list(production_modules(tmp_path))
        assert modules == [tmp_path / "perfbench" / "run.py"]
        assert self.scan(*(path.read_text() for path in modules)) == [
            "lib.py:4 Cache.lookup", "lib.py:10 from_ci", "lib.py:12 probed"]

    def test_docstrings_comments_and_all_do_not_count(self):
        assert self.scan('"""lib:traced"""\n'
                         '# from_ci()\n'
                         '__all__ = ["lookup", "probed"]\n') == self.UNCALLED

    def test_an_allowlisted_def_passes(self):
        assert self.scan(allowlist=["lib.py:Cache.lookup", "lib.py:traced",
                                    "lib.py:from_ci", "lib.py:probed"]) == []

    def test_a_stale_allowlist_entry_fails(self):
        assert self.scan("lookup(); traced(); from_ci(); probed()",
                         allowlist=["lib.py:Cache.lookup",
                                    "lib.py:Cache.gone"]) == [
            "allowlisted lib.py:Cache.gone is not defined",
            "allowlisted lib.py:Cache.lookup has a production caller"]
