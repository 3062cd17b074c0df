"""Replay the golden CLI corpus in-process; see ``tests/golden/make_corpus.py``."""

import difflib
import importlib.util
import shlex
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "make_corpus", GOLDEN / "make_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_script()


def test_extra_models_are_the_ones_the_script_writes():
    expected = corpus.extra_documents()
    on_disk = {path.stem: path.read_text() for path in corpus.EXTRA.glob("*.fk")}
    assert on_disk == expected


def test_corpus_replays_without_a_difference(tmp_path):
    records = corpus.read_corpus(corpus.CORPUS.read_text())
    assert len(records) > 2000
    out_path = tmp_path / "out.txt"
    for words, expected in records:
        got = corpus.run_argv(words, out_path)
        if got != expected:
            diff = "".join(difflib.unified_diff(
                expected.splitlines(keepends=True), got.splitlines(keepends=True),
                "corpus", "replay"))
            raise AssertionError(
                f"first differing argv: {shlex.join(words)}\n{diff}")
    assert [words for words, _ in records] == corpus.argvs()
