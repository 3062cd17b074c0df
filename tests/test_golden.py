"""Replay the golden CLI corpus in-process and the library's differential
hashes; see ``tests/golden/make_corpus.py`` and ``tests/golden/make_hashes.py``."""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_script("make_corpus")
hashes = _load_script("make_hashes")


def test_extra_models_are_the_ones_the_script_writes():
    expected = corpus.extra_documents()
    on_disk = {path.stem: path.read_text() for path in corpus.EXTRA.glob("*.fk")}
    assert on_disk == expected


def test_corpus_replays_without_a_difference(tmp_path):
    assert len(corpus.read_corpus(corpus.CORPUS.read_text())) > 2000
    problem = corpus.first_difference(tmp_path / "out.txt")
    assert problem is None, problem


def test_library_outputs_hash_as_recorded():
    problems = hashes.differences()
    assert not problems, "\n".join(problems)
