"""What a CLI process loads at start-up.

With no bytecode cache, a process compiles every module it imports, so the
CLI imports only what each subcommand runs: ``generators`` and ``sampler``
are imported by the subcommands that use them, and the package's
``coproducts``, ``sampler`` and ``modelfile`` names load on first use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_AT_START = ("finkern.sampler", "finkern.generators", "finkern.coproducts",
                "dataclasses")


def _python(code: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, encoding="utf-8")
    return done.stdout.splitlines()


def test_cli_import_loads_only_what_it_runs():
    bare = set(ast.literal_eval(
        _python("import sys; print(sorted(sys.modules))")[0]))
    modules, resolved = _python(
        "import finkern.cli, sys; print(sorted(sys.modules)); import finkern; "
        "print(finkern.run_chain.__module__, finkern.oplus.__module__)")
    loaded = set(ast.literal_eval(modules))
    assert "finkern.cli" in loaded
    for name in NOT_AT_START:
        assert name not in loaded or name in bare, name
    assert resolved == "finkern.sampler finkern.coproducts"


def test_no_module_imports_dataclasses():
    for path in (SRC / "finkern").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_no_module_reads_the_environment():
    # what the CLI does depends on its argv and its files alone
    reads = {"environ", "getenv", "putenv"}
    for path in (SRC / "finkern").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "os" else set()
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & reads, f"{path.name} line {node.lineno}"


def _unnamed_encodings(source: str) -> list[int]:
    """The lines of the text reads, writes and subprocess pipes in ``source``
    that leave their encoding to the locale."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "open":
            # the mode follows the file in open(file, mode), and comes first
            # in Path.open(mode)
            at = 1 if isinstance(node.func, ast.Name) else 0
            mode = keywords.get("mode", node.args[at] if len(node.args) > at else None)
            text = not (isinstance(mode, ast.Constant) and "b" in mode.value)
        else:
            text = (name in ("read_text", "write_text")
                    or "text" in keywords or "universal_newlines" in keywords)
        if text and "encoding" not in keywords:
            lines.append(node.lineno)
    return lines


def test_every_text_read_and_write_names_its_encoding():
    # every file the package, its tests and its tools read or write is UTF-8,
    # whatever the locale. bench/ is left out: its files change only together
    # with the benchmark they define. (-X warn_default_encoding cannot stand
    # in: it sees only the lines a run reaches, and installed pytest plugins
    # trip it with their own reads.)
    for tree in ("src", "tests", "tools"):
        for path in (SRC.parent / tree).rglob("*.py"):
            lines = _unnamed_encodings(path.read_text(encoding="utf-8"))
            assert not lines, f"{path.relative_to(SRC.parent)} lines {lines}"


@pytest.mark.parametrize("call, flagged", [
    ("p.read_text()", True),
    ("p.write_text(s)", True),
    ("open(p)", True),
    ('open(p, "w")', True),
    ("p.open()", True),
    ("subprocess.run(a, text=True)", True),
    ('open(p, "rb")', False),
    ('p.read_text(encoding="utf-8")', False),
    ('p.write_text(s, encoding="utf-8")', False),
    ('open(p, encoding="utf-8")', False),
    ('open(p, "w", encoding="utf-8")', False),
    ('p.open(encoding="utf-8")', False),
    ('subprocess.run(a, text=True, encoding="utf-8")', False),
])
def test_the_encoding_guard_flags_a_text_call_without_an_encoding(call, flagged):
    assert _unnamed_encodings(call) == ([1] if flagged else [])


def test_lazy_names_resolve_and_list():
    import finkern
    from finkern import oplus, run_chain
    from finkern.coproducts import oplus as oplus_source
    from finkern.sampler import run_chain as run_chain_source

    assert oplus is oplus_source and run_chain is run_chain_source
    assert {"oplus", "ChainRun", "run_chain", "Kernel"} <= set(dir(finkern))
    with pytest.raises(AttributeError, match="no_such_name"):
        finkern.no_such_name


def test_import_leaves_modelfile_to_its_names():
    unloaded, same, listed, public = _python(
        "import finkern, sys; print('finkern.modelfile' not in sys.modules); "
        "names = ('ModelDocument', 'ModelError', 'emit', 'parse'); "
        "from finkern import modelfile; "
        "print(all(getattr(finkern, n) is getattr(modelfile, n) for n in names)); "
        "print(set(names) <= set(dir(finkern))); "
        "print(len([n for n in dir(finkern) if not n.startswith('_')]))")
    assert (unloaded, same, listed, public) == ("True", "True", "True", "97")


def test_no_module_exceeds_24_kib():
    """Without a bytecode cache a process compiles each module it imports
    from source, and compiling the largest one takes more memory, for a
    moment, than anything else at start-up: that transient is the peak RSS
    of a process that imports the package and does little else."""
    for path in (SRC / "finkern").glob("*.py"):
        assert path.stat().st_size <= 24 * 1024, path.name
