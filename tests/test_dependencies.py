"""The package imports only the standard library, numpy and itself, so its
runtime dependency list stays ``["numpy"]``; test-only libraries such as
scipy and hypothesis stay out of ``src``."""

import ast
import sys
from pathlib import Path

import cdrpipe

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cdrpipe"}
PACKAGE = Path(cdrpipe.__file__).parent


def imported_top_levels(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    outside = {f"{path.relative_to(PACKAGE)}: {name}"
               for path in modules
               for name in imported_top_levels(path.read_text(encoding="utf-8"))
               if name not in ALLOWED}
    assert not outside


def test_the_guard_sees_nested_and_conditional_imports():
    source = ("import os, scipy.sparse\n"
              "from . import model\n"
              "def f():\n"
              "    try:\n"
              "        from hypothesis import given\n"
              "    except ImportError:\n"
              "        pass\n")
    assert imported_top_levels(source) - ALLOWED == {"scipy", "hypothesis"}


def open_mode(node: ast.Call) -> ast.expr:
    """The mode of an ``open`` call: its ``mode`` keyword, else the second
    argument of ``open`` or the first of ``Path.open``, else ``"r"``."""
    at = 1 if isinstance(node.func, ast.Name) else 0
    return next((kw.value for kw in node.keywords if kw.arg == "mode"),
                node.args[at] if len(node.args) > at else ast.Constant("r"))


def file_writes(source: str) -> list[str]:
    """Calls that write a file directly: ``write_text``, ``write_bytes``, and
    ``open`` with a mode that writes, appends, creates or updates, or that
    is not a literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("write_text", "write_bytes"):
            found.append(f"line {node.lineno}: {name}")
        elif name == "open":
            mode = open_mode(node)
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                found.append(f"line {node.lineno}: open")
    return found


def test_only_the_tables_module_writes_files():
    """Every output goes through tables.atomic_write, so it reaches disk whole."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "tables.py"]
    writes = {f"{path.relative_to(PACKAGE)} {call}"
              for path in modules
              for call in file_writes(path.read_text(encoding="utf-8"))}
    assert not writes


def test_the_write_guard_sees_every_form_of_write():
    source = ("open(p)\n"
              "open(p, 'rb')\n"
              "open(p, encoding='utf-8')\n"
              "open(p, 'w')\n"
              "open(p, mode='a')\n"
              "path.open('x')\n"
              "open(p, 'r+b')\n"
              "open(p, m)\n"
              "path.write_text(s)\n"
              "Path(p).write_bytes(b)\n")
    assert [call.split(": ")[0] for call in file_writes(source)] == [
        f"line {n}" for n in range(4, 11)]


def text_opens(source: str) -> list[str]:
    """Calls that open a file as text: ``read_text``, ``write_text``, and
    ``open`` with a mode that is not a literal holding ``b``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("read_text", "write_text"):
            found.append(f"line {node.lineno}: {name}")
        elif name == "open":
            mode = open_mode(node)
            if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                found.append(f"line {node.lineno}: open")
    return found


def test_only_the_tables_module_opens_text():
    """Text is decoded by tables.text_input alone, so every input follows
    one rule for UTF-8 and its byte-order mark; a checkpoint is read as
    bytes."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "tables.py"]
    opens = {f"{path.relative_to(PACKAGE)} {call}"
             for path in modules
             for call in text_opens(path.read_text(encoding="utf-8"))}
    assert not opens
    assert text_opens((PACKAGE / "tables.py").read_text(encoding="utf-8"))


def test_the_text_guard_sees_every_form_of_text_open():
    source = ("open(p, 'rb')\n"
              "path.open('wb')\n"
              "open(p, mode='r+b')\n"
              "path.read_bytes()\n"
              "open(p)\n"
              "open(p, encoding='utf-8-sig')\n"
              "open(p, 'r')\n"
              "path.open(mode='w')\n"
              "open(p, m)\n"
              "path.read_text()\n"
              "Path(p).write_text(s)\n")
    assert [call.split(": ")[0] for call in text_opens(source)] == [
        f"line {n}" for n in range(5, 12)]


def tape_constructions(source: str) -> list[str]:
    """Calls that build a tape: ``Tape()`` or ``<module>.Tape()``."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Tape"]


def test_only_training_and_autodiff_build_a_tape():
    """A tape is built only where a backward sweep runs; evaluation passes
    the tape None, which records nothing."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py"))
               if path.name not in ("training.py", "autodiff.py")]
    tapes = {f"{path.relative_to(PACKAGE)} {call}"
             for path in modules
             for call in tape_constructions(path.read_text(encoding="utf-8"))}
    assert not tapes


def test_the_tape_guard_sees_every_form_of_construction():
    source = ("Tape\n"
              "tape = None\n"
              "f(None, x)\n"
              "Tape()\n"
              "ad.Tape()\n"
              "autodiff.Tape()\n"
              "g(tape=cdrpipe.autodiff.Tape())\n")
    assert tape_constructions(source) == [f"line {n}" for n in range(4, 8)]


def module_imports(source: str, module: str) -> list[str]:
    """Statements that import ``module`` or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(name.split(".")[0] == module for name in modules):
            found.append(f"line {node.lineno}")
    return found


def test_only_autodiff_imports_ctypes():
    """The process-wide allocator setting has one home,
    autodiff.pin_allocator; no other module reaches into the C library."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "autodiff.py"]
    imports = {f"{path.relative_to(PACKAGE)} {stmt}"
               for path in modules
               for stmt in module_imports(path.read_text(encoding="utf-8"), "ctypes")}
    assert not imports
    assert module_imports((PACKAGE / "autodiff.py").read_text(encoding="utf-8"), "ctypes")


def test_the_ctypes_guard_sees_every_form_of_import():
    source = ("import os\n"
              "from . import ctypes\n"
              "from .ctypes import CDLL\n"
              "import ctypes\n"
              "import os, ctypes.util\n"
              "from ctypes import CDLL\n"
              "def f():\n"
              "    import ctypes as c\n")
    assert module_imports(source, "ctypes") == [f"line {n}" for n in (4, 5, 6, 8)]


def test_only_tables_imports_csv():
    """Quoting, the field-size limit and blank lines are csv's rules, so
    only tables.py parses or writes CSV."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "tables.py"]
    imports = {f"{path.relative_to(PACKAGE)} {stmt}"
               for path in modules
               for stmt in module_imports(path.read_text(encoding="utf-8"), "csv")}
    assert not imports
    assert module_imports((PACKAGE / "tables.py").read_text(encoding="utf-8"), "csv")


def test_the_csv_guard_sees_every_form_of_import():
    source = ("import os\n"
              "from . import csv\n"
              "from .tables import csv_rows\n"
              "import csv\n"
              "import os, csv\n"
              "from csv import reader\n"
              "import csvkit\n"
              "def f():\n"
              "    import csv as c\n")
    assert module_imports(source, "csv") == [f"line {n}" for n in (4, 5, 6, 9)]


def comma_splits(source: str) -> list[str]:
    """Calls that split text on a string literal holding a comma:
    ``split``, ``rsplit``, ``partition`` or ``rpartition`` with it as one of
    the first two arguments (the second in ``str.split(text, ",")``) or as
    ``sep``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("split", "rsplit", "partition", "rpartition")):
            continue
        seps = node.args[:2] + [kw.value for kw in node.keywords if kw.arg == "sep"]
        if any(isinstance(sep, ast.Constant) and "," in str(sep.value) for sep in seps):
            found.append(f"line {node.lineno}")
    return found


def test_only_tables_splits_text_on_commas():
    """A comma-separated file is read through tables.py, so quoting, the
    field-size limit and row numbering follow csv's rules; cli.py splits
    only INI list values such as ``gcn_layer_dims = 256,128``, in its one
    list converter, so every list key follows the same rules."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "tables.py"]
    splits = {f"{path.relative_to(PACKAGE)} {call}"
              for path in modules
              for call in comma_splits(path.read_text(encoding="utf-8"))}
    assert len(splits) == 1 and next(iter(splits)).startswith("cli.py "), splits


def test_the_comma_guard_sees_every_form_of_split():
    source = ("line.split()\n"
              "line.split('=', 1)\n"
              "np.split(a, [3])\n"
              "','.join(parts)\n"
              "line.split(',')\n"
              "line.strip().split(\", \")\n"
              "line.rsplit(',', 1)\n"
              "line.partition(',')\n"
              "text.rpartition(',')\n"
              "line.split(sep=',', maxsplit=2)\n"
              "re.split(',', line)\n"
              "str.split(line, ',')\n")
    assert comma_splits(source) == [f"line {n}" for n in range(5, 13)]


NUMPY_TEXT_READERS = {"loadtxt", "genfromtxt"}


def numpy_text_reads(source: str, exempt: str = "") -> list[str]:
    """Uses of numpy's text readers, ``loadtxt`` and ``genfromtxt``: a call
    or reference through any module path, a bare name, or a name imported
    from numpy; those in the top-level function named ``exempt`` aside."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == exempt
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        else:
            names = {getattr(node, "attr", getattr(node, "id", None))}
        if names & NUMPY_TEXT_READERS and id(node) not in inside:
            found.append(node.lineno)
    return [f"line {n}" for n in sorted(found)]


def test_only_tables_parses_text_with_numpy():
    """np.loadtxt reads a table only where tables.py has found every line
    plain, so that both of its readers give the same bytes and errors;
    another module calling it would skip that rule. Within tables.py it is
    named only in ``_parse``, so the keyed and the headerless reads make
    one call with one set of arguments."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "tables.py"]
    reads = {f"{path.relative_to(PACKAGE)} {use}"
             for path in modules
             for use in numpy_text_reads(path.read_text(encoding="utf-8"))}
    assert not reads
    source = (PACKAGE / "tables.py").read_text(encoding="utf-8")
    assert numpy_text_reads(source)
    assert not numpy_text_reads(source, exempt="_parse")


def test_the_numpy_text_guard_sees_every_form_of_use():
    source = ("np.savetxt(p, a)\n"
              "np.fromstring(s, sep=',')\n"
              "read_loadtxt(p)\n"
              "tables.read_headerless(p, E, 2)\n"
              "np.loadtxt(p, delimiter=',')\n"
              "numpy.genfromtxt(p)\n"
              "np.lib.npyio.loadtxt(p)\n"
              "from numpy import loadtxt\n"
              "loadtxt(lines)\n"
              "read = np.genfromtxt\n"
              "def f():\n"
              "    return [np.loadtxt(p) for p in paths]\n")
    assert numpy_text_reads(source) == [f"line {n}" for n in (5, 6, 7, 8, 9, 10, 12)]


def test_the_numpy_text_guard_exempts_only_the_named_top_level_function():
    source = ("def _parse(lines):\n"
              "    return np.loadtxt(lines, dtype=np.int32)\n"
              "def _plain(lines):\n"
              "    return np.loadtxt(lines)\n"
              "def outer():\n"
              "    def _parse(lines):\n"
              "        return np.loadtxt(lines)\n"
              "class Reader:\n"
              "    def _parse(self, lines):\n"
              "        return np.genfromtxt(lines)\n"
              "def _parse_all(lines):\n"
              "    return np.loadtxt(lines)\n"
              "parse = np.loadtxt\n"
              "def _parse(lines):\n"
              "    return [np.loadtxt(line) for line in lines]\n")
    assert numpy_text_reads(source, exempt="_parse") == [
        f"line {n}" for n in (4, 7, 10, 12, 13)]
    assert numpy_text_reads(source) == [f"line {n}" for n in (2, 4, 7, 10, 12, 13, 15)]


def vectors_reads(source: str) -> list[str]:
    """Uses of an attribute named ``vectors``: ``cells.vectors[c]``,
    ``cells.vectors.get(c)``, or the dict itself, however it is reached."""
    return [f"line {n}" for n in sorted(node.lineno for node in ast.walk(ast.parse(source))
                                       if isinstance(node, ast.Attribute)
                                       and node.attr == "vectors")]


def test_the_package_reads_cells_from_the_matrix():
    """Every module finds a cell line's row through the feature set's id ->
    row index (``rows``, ``in``) and takes it from the matrix, never per id
    from the ``vectors`` dict, so the matrix stays the one read path. The
    named exemption is the dict's one definition in omics.py, kept for the
    benchmark's tracer and input writer and for the tests."""
    reads = {f"{path.relative_to(PACKAGE)} {use}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for use in vectors_reads(path.read_text(encoding="utf-8"))}
    omics = (PACKAGE / "omics.py").read_text(encoding="utf-8").splitlines()
    definition = [n for n, text in enumerate(omics, 1)
                  if text.strip().startswith("self.vectors = ")]
    assert len(definition) == 1
    assert reads == {f"omics.py line {definition[0]}"}


def test_the_vectors_guard_sees_every_use_of_the_attribute():
    source = ("vectors[c]\n"
              "cells.matrix[rows]\n"
              "dataset.cells.vectors[c]\n"
              "cells.vectors.get(c)\n"
              "np.stack([ds.cells.vectors[c] for c in ids])\n"
              "lookup = train_set.cells.vectors\n")
    assert vectors_reads(source) == [f"line {n}" for n in range(3, 7)]


# public functions that nothing in the package calls, and why each stays
UNCALLED_PUBLIC_FUNCTIONS = {
    "autodiff.finite_diff_check": "demo 01 checks a gradient with it",
    "evaluation.grouped_pcc": "perfbench/tracing.py patches it by name (ROADMAP item 8)",
    "omics.alignment_stats": "perfbench/tracing.py patches it by name (ROADMAP items 8, 9)",
    "omics.expression_feature_set": "perfbench/tracing.py patches it by name (ROADMAP items 8, "
                                    "9); the whole-table oracle of the streamed read",
    "omics.load_expression": "perfbench/tracing.py patches it by name and reads its profiles "
                             "(ROADMAP items 8, 9); the whole-table oracle of the streamed read",
    "synthetic.make_benchmark": "the synthetic fixture the tests, demos and benchmark build on",
    "synthetic.noisy_projection_set": "the degraded cell source of the fixture's comparisons",
    "synthetic.write_benchmark_files": "writes the fixture as the CLI's input files",
}


def public_functions(source: str) -> set[str]:
    """Names of a module's top-level functions that do not start with ``_``."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def called_names(source: str) -> set[str]:
    """The name each call calls: ``f`` in ``f(x)``, ``ad.f(x)`` and
    ``cdrpipe.autodiff.f(x)``, wherever the call sits."""
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}


def test_every_public_function_is_called_in_the_package():
    """A function nothing in the program calls is code to keep for no
    behaviour; the named exemptions are the only ones."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    called = set().union(*map(called_names, sources.values()))
    uncalled = {f"{module}.{name}" for module, source in sources.items()
                for name in public_functions(source) - called}
    assert uncalled == set(UNCALLED_PUBLIC_FUNCTIONS)


def test_the_call_guard_sees_every_form_of_call():
    module = ("def matmul(a, b):\n"
              "    def nested():\n"
              "        pass\n"
              "def _private():\n"
              "    pass\n"
              "class Tape:\n"
              "    def method(self):\n"
              "        pass\n"
              "relu = matmul\n")
    assert public_functions(module) == {"matmul"}
    caller = ("ad.matmul(x, y)\n"
              "add(x, y)\n"
              "cdrpipe.autodiff.relu(x)\n"
              "f(ad.loss(p, t))\n"
              "g = lambda tape: ad.segment_max(tape, x, [1])\n"
              "def h():\n"
              "    return [ad.backward(t, l, w) for w in ws]\n"
              "h2 = ad.dropout\n"
              "ad.Tensor.shape\n")
    # a bare reference such as ad.dropout is not a call
    assert called_names(caller) == {"matmul", "add", "relu", "f", "loss", "segment_max",
                                    "backward"}


# what only the protocol steps in cli.py may call, and the commands that
# must reach it through them
PROTOCOL_CALLS = {"train", "derive_seed", "finite_predictions", "pearson", "lodo_splits",
                  "split_dataset", "build_eval_report"}
COMMANDS = ("cmd_train", "cmd_eval", "cmd_lodo")


def protocol_calls_in(source: str, functions) -> list[str]:
    """Calls in the named top-level functions of ``source`` to a name in
    ``PROTOCOL_CALLS``, however the callee is reached."""
    return sorted(f"{node.name}: {name}" for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name in functions
                  for name in called_names(ast.unparse(node)) & PROTOCOL_CALLS)


def test_the_commands_hold_no_protocol():
    """train, eval and lodo are config, file I/O and printing around the
    protocol steps, so the split, seeding, fitting and scoring of a run
    have one home, which every caller of the steps shares."""
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert set(COMMANDS) <= defined
    assert not protocol_calls_in(source, COMMANDS)


def test_the_protocol_guard_sees_a_planted_call():
    source = ("def cmd_train(cfg):\n"
              "    train_set, test_set = split_sets(cfg, ds)\n"
              "    params, _ = training.train(train_set, test_set, m, t)\n"
              "def cmd_eval(cfg):\n"
              "    return [pearson(p, y) for p, y in pairs]\n"
              "def cmd_lodo(cfg):\n"
              "    def inner():\n"
              "        return derive_seed(cfg.seed, 'x')\n"
              "    seed = cdrpipe.seeding.derive_seed\n"
              "def fit(cfg):\n"
              "    return train(a, b, c, d)\n")
    assert protocol_calls_in(source, COMMANDS) == [
        "cmd_eval: pearson", "cmd_lodo: derive_seed", "cmd_train: train"]
