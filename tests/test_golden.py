"""Replay the golden CLI corpus in-process; see ``tests/golden/make_corpus.py``."""

import importlib.util
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
    assert len(corpus.read_corpus(corpus.CORPUS.read_text())) > 2000
    problem = corpus.first_difference(tmp_path / "out.txt")
    assert problem is None, problem
