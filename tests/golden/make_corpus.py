"""Write the golden CLI corpus: one record per argv of ``finkern.cli.main``.

Run from anywhere, with the package importable::

    PYTHONPATH=src python3 tests/golden/make_corpus.py

The script first writes the extra model documents under
``tests/golden/models/`` (they are text built here from a fixed seed, not
from the library), then runs every argv of ``argvs()`` in-process from the
repository root and writes ``tests/golden/corpus.txt``. Each record holds
the exit code, stdout, stderr and the text written to ``--out``.
``tests/test_golden.py`` replays the corpus and names the first argv whose
record differs.

A deliberate change of the CLI's behaviour regenerates the corpus with this
script; the argvs whose records changed are then listed with the change.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
EXTRA = HERE / "models"
CORPUS = HERE / "corpus.txt"

#: Replaced in an argv by a fresh file path at run time.
OUT = "{out}"

#: The environment every argv runs in, apart from its own assignments.
BASE_ENV = {"FINKERN_INSTANCES": None}


# ---------------------------------------------------------------------------
# running one argv and writing its record


def run_argv(words: list[str], out_path: Path) -> str:
    """Run one corpus argv in-process and return its record text.

    ``words`` may start with ``NAME=value`` environment assignments; the
    rest is the CLI argv, with ``{out}`` standing for ``out_path``.
    """
    from finkern.cli import main

    env = dict(BASE_ENV)
    argv = list(words)
    while argv and "=" in argv[0] and argv[0].split("=", 1)[0].isupper():
        name, _, value = argv.pop(0).partition("=")
        env[name] = value
    argv = [str(out_path) if word == OUT else word for word in argv]
    if out_path.exists():
        out_path.unlink()
    saved = {name: os.environ.get(name) for name in env}
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        os.chdir(ROOT)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = str(main(argv))
            except SystemExit as exc:
                status = f"{exc.code} (SystemExit)"
            except Exception as exc:  # a crash is behaviour to record too
                status = f"raised {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    written = out_path.read_text() if out_path.exists() else None
    return format_record(words, status, stdout.getvalue(),
                         _unwrap_usage(stderr.getvalue()), written)


def _unwrap_usage(text: str) -> str:
    """argparse's usage block joined into one line: where it wraps depends
    on the Python version, not on the CLI."""
    lines = text.splitlines(keepends=True)
    if not lines or not lines[0].startswith("usage:"):
        return text
    end = next((i for i, line in enumerate(lines) if i and not line.startswith(" ")),
               len(lines))
    return " ".join(line.strip() for line in lines[:end]) + "\n" + "".join(lines[end:])


def _section(name: str, text: str | None) -> list[str]:
    if text is None:
        return [f"--- {name}: none"]
    lines = text.splitlines()
    tail = "" if text.endswith("\n") or not text else ", no final newline"
    return [f"--- {name}: {len(lines)} lines{tail}", *lines]


def format_record(words: list[str], status: str, stdout: str, stderr: str,
                  out: str | None) -> str:
    lines = [f"### {shlex.join(words)}", f"exit {status}",
             *_section("stdout", stdout), *_section("stderr", stderr),
             *_section("out", out)]
    return "\n".join(lines) + "\n"


def read_corpus(text: str) -> list[tuple[list[str], str]]:
    """The corpus's (argv words, record text) pairs, in order."""
    records = []
    lines = text.splitlines(keepends=True)
    i = 0
    while i < len(lines):
        if not lines[i].startswith("### "):
            raise ValueError(f"corpus line {i + 1}: expected a record header")
        start = i
        i += 2  # the header and the exit line
        for _ in range(3):  # stdout, stderr, out
            head = lines[i]
            i += 1
            if not head.endswith(": none\n"):
                i += int(head.split(": ", 1)[1].split(" ", 1)[0])
        words = shlex.split(lines[start][4:])
        records.append((words, "".join(lines[start:i])))
    return records


# ---------------------------------------------------------------------------
# the extra model documents


INF_ENTRIES = """\
# inf entries in a measure, an effect and a kernel
space X { a b c }
space Y { u v }
measure big on X { a = inf  b = 1/2 }
measure fin on X { a = 1  b = 1/2  c = 3 }
effect w on X { a = inf  c = 2 }
probability p on X { a = 1  b = 1/3 }
kernel K : X -> Y { a -> u = inf  a -> v = 1  b -> v = 1  c -> u = 1/2  c -> v = 1/2 }
kernel L : X -> Y { a -> u = 1  b -> v = 1  c -> u = inf }
kernel S : X -> X { a -> a = inf  b -> c = 1  c -> b = 1 }
involution flip on X { a -> b  b -> a }
"""

UNNORMALIZED = """\
# kernels that are not normalized: heavy, light and zero rows
space X { a b c }
measure mu on X { a = 1/4  b = 1/4  c = 1/2 }
measure nu on X { a = 1  c = 1 }
kernel heavy : X -> X { a -> a = 1  a -> b = 1  b -> b = 3/2  c -> c = 1 }
kernel light : X -> X { a -> b = 1/2  b -> a = 1/3  c -> c = 1 }
kernel zero_row : X -> X { a -> a = 1  b -> a = 1 }
kernel stoch : X -> X { a -> b = 1  b -> a = 1/2  b -> c = 1/2  c -> c = 1 }
involution cyc on X { a -> c  c -> a }
probability half on X { a = 1/2  b = 1/2  c = 1/2 }
balancing bk = barker
"""

OFF_ORBIT = """\
# targets whose support is not a union of phi-orbits: phi sends a charged
# point onto a null one
space X { a b c d }
measure mu on X { a = 1/6  b = 1/3  c = 1/2 }
measure nu on X { a = 1  c = 1 }
involution phi on X { a -> b  b -> a  c -> d  d -> c }
involution swap_cd on X { c -> d  d -> c }
involution keep on X { }
# zero where phi leaves the support: the condition's product form holds
probability tierney on X { a = 1  b = 1/2 }
# accepts a move onto a null point
probability greedy on X { a = 1  b = 1/2  c = 1 }
probability none on X { }
probability all on X { a = 1  b = 1  c = 1  d = 1 }
kernel walk : X -> X { a -> b = 1  b -> a = 1/2  b -> b = 1/2  c -> c = 1  d -> d = 1 }
balancing met = metropolis
balancing bk = barker
"""

SPARSE_EXCHANGE = """\
# an exchange model with a sparse likelihood and a sparse proposal
space X { t1 t2 t3 }
space Z { z1 z2 z3 }
measure prior on X { t1 = 1/4  t2 = 1/4  t3 = 1/2 }
measure flat on X { t1 = 1  t3 = 1 }
kernel lik : X -> Z { t1 -> z1 = 2  t2 -> z2 = 1  t2 -> z3 = 1  t3 -> z1 = 1  t3 -> z3 = 5 }
kernel q : X -> X { t1 -> t2 = 1  t2 -> t1 = 1/2  t2 -> t3 = 1/2  t3 -> t3 = 1 }
kernel full : X -> X {
  t1 -> t1 = 1/3  t1 -> t2 = 1/3  t1 -> t3 = 1/3
  t2 -> t1 = 1/3  t2 -> t2 = 1/3  t2 -> t3 = 1/3
  t3 -> t1 = 1/3  t3 -> t2 = 1/3  t3 -> t3 = 1/3
}
"""

#: The documents of ``test_parse_errors_carry_lines``.
PARSE_ERRORS = [
    "space X { a a }",
    "space X { a }\nspace X { b }",
    "measure m on Y { }",
    "space X { a }\nmeasure m on X { b = 1 }",
    "space X { a }\nmeasure m on X { a = 1 a = 2 }",
    "space X { a }\nmeasure m on X { a = -1 }",
    "space X { a }\nmeasure m on X { a = 1/0 }",
    "space X { a b }\nprobability p on X { a = 3/2 }",
    "space X { a b }\ninvolution i on X { a -> b }",
    "space X { a b c }\ninvolution i on X { a -> b  b -> c  c -> a }",
    "space X { a }\nkernel k : X -> X { a -> a = 1 a -> a = 2 }",
    "balancing b = nope",
    "widget w { }",
    "space X { a } measure m on X { a = ",
]

BIG_N = 64


def _weights(rng: random.Random, n: int, density: float) -> list[int]:
    weights = [rng.randint(1, 12) if rng.random() < density else 0
               for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    return weights


def _kernel_lines(rng: random.Random, src_labels, dst_labels,
                  density: float) -> list[str]:
    """Normalized rows, written unevenly: mostly one entry a line, some
    pairs joined by a comma, some entries split after ``->`` or ``=``,
    and comments here and there."""
    lines = []
    pending = None
    for src in src_labels:
        weights = _weights(rng, len(dst_labels), density)
        total = sum(weights)
        for dst, w in zip(dst_labels, weights):
            if not w:
                continue
            entry = f"{src} -> {dst} = {w}/{total}"
            shape = rng.random()
            if pending is not None:
                lines.append(f"  {pending}, {entry}")
                pending = None
            elif shape < 0.05:
                pending = entry
            elif shape < 0.08:
                lines.extend([f"  {src} ->", f"    {dst} = {w}/{total}"])
            elif shape < 0.10:
                lines.extend([f"  {src} -> {dst} =", f"    {w}/{total}"])
            elif shape < 0.14:
                lines.append(f"  {entry}  # {src} to {dst}")
            else:
                lines.append(f"  {entry}")
        if rng.random() < 0.1:
            lines.append(f"  # end of row {src}")
    if pending is not None:
        lines.append(f"  {pending}")
    return lines


def big_document() -> str:
    """An n = 64 document: atom, tuple and tagged labels, commas, comments
    and entries split across lines, with two kernel blocks of over a
    thousand lines between them."""
    rng = random.Random(64)
    atoms = [f"x{i}" for i in range(BIG_N)]
    pairs = [f"(a{i},b{j})" for i in range(8) for j in range(8)]
    tagged = [f"L:x{i}" for i in range(32)] + [f"R:(a{i // 8},b{i % 8})"
                                               for i in range(32)]
    lines = ["# a 64-point document in an uneven layout",
             "space X {"]
    lines += ["  " + ", ".join(atoms[k:k + 16]) for k in range(0, BIG_N, 16)]
    lines += ["}", "space P { " + " ".join(pairs) + " }  # 8 x 8 pairs",
              "space T {"]
    lines += ["  " + " ".join(tagged[k:k + 8]) for k in range(0, BIG_N, 8)]
    lines.append("}")
    masses = [rng.randint(1, 9) for _ in atoms]
    lines.append("measure mu on X { " + "  ".join(
        f"{x} = {w}/{sum(masses)}" for x, w in zip(atoms, masses)) + " }")
    lines.append("measure nu on P { " + ", ".join(
        f"{x} = {rng.randint(1, 5)}" for x in pairs[::3]) + " }")
    perm = list(range(BIG_N))
    rng.shuffle(perm)
    moves = [(perm[k], perm[k + 1]) for k in range(0, 40, 2)]
    lines.append("involution phi on X {")
    lines += [f"  x{a} -> x{b}  x{b} -> x{a}" for a, b in moves]
    lines.append("}")
    lines.append("probability alpha on X { " + "  ".join(
        f"{x} = {rng.randint(0, 4)}/4" for x in atoms) + " }")
    lines.append("kernel K : X -> X {")
    lines += _kernel_lines(rng, atoms, atoms, 0.3)
    lines.append("}")
    lines.append("kernel M : P -> T {")
    lines += _kernel_lines(rng, pairs, tagged, 0.15)
    lines.append("}")
    lines.append("kernel N : X -> X {  # sparse and unnormalized")
    lines += [f"  x{i} -> x{(7 * i + 1) % BIG_N} = {i % 5}, x{i} -> x{i} = 1/{i + 1}"
              for i in range(BIG_N)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _line_in(lines: list[str], start: str, after: int, pred) -> int:
    """The 0-based index of the first line at or after ``after`` inside the
    block opened by the line ``start`` that satisfies ``pred``."""
    i = lines.index(start) + 1
    while not (i >= after and pred(lines[i])):
        if lines[i] == "}":
            raise ValueError(f"no such line in block {start!r}")
        i += 1
    return i


def big_error_documents(text: str) -> dict[str, str]:
    """The big document with one error on a line above 1000: a bad value,
    an unknown label and a duplicate entry in ``K``'s plain-atom entries,
    and an unknown label and a bad value in ``M``'s tuple-label entries."""
    lines = text.splitlines()

    def plain(line):
        words = line.split()
        return len(words) == 5 and words[1] == "->" and words[3] == "="

    docs = {}
    k = _line_in(lines, "kernel K : X -> X {", 1000, plain)
    m = _line_in(lines, "kernel M : P -> T {", 1000, plain)
    for name, index, old, new in (
            ("big64_bad_value", k, "= ", "= 2/0 "),
            ("big64_unknown_label", k, " -> ", " -> y"),
            ("big64_tuple_unknown_label", m, "(", "(c"),
            ("big64_tuple_bad_value", m, "/", "//")):
        changed = list(lines)
        changed[index] = changed[index].replace(old, new, 1)
        docs[name] = "\n".join(changed) + "\n"
    dup = list(lines)
    dup.insert(k + 1, lines[k])  # the same entry twice, the second deep
    docs["big64_duplicate"] = "\n".join(dup) + "\n"
    return docs


def extra_documents() -> dict[str, str]:
    docs = {"inf_entries": INF_ENTRIES, "unnormalized": UNNORMALIZED,
            "off_orbit": OFF_ORBIT, "sparse_exchange": SPARSE_EXCHANGE}
    for k, text in enumerate(PARSE_ERRORS, start=1):
        docs[f"parse_error_{k:02d}"] = text
    big = big_document()
    docs["big64"] = big
    docs.update(big_error_documents(big))
    return docs


# ---------------------------------------------------------------------------
# the argvs


def _names(doc) -> dict[str, list[str]]:
    return {"measure": list(doc.measures), "kernel": list(doc.kernels),
            "effect": list(doc.effects) + list(doc.probabilities),
            "involution": list(doc.involutions),
            "balancing": list(doc.balancing)}


def _check_argvs(path: str, doc) -> list[list[str]]:
    from finkern.cli import CHECKS

    kinds = _names(doc)
    names = kinds["measure"] + kinds["effect"] + kinds["kernel"]
    argvs = []
    for predicate, (arity, _, _) in CHECKS.items():
        if len(arity) == 1:
            combos = [[a] for a in names]
        elif len(arity) == 2:
            combos = [[a, b] for a in names for b in names]
        elif predicate == "ae-equal":
            combos = [[m, a, b] for m in kinds["measure"]
                      for a in kinds["kernel"] + kinds["measure"]
                      for b in kinds["kernel"] + kinds["measure"]]
        elif predicate == "skew-reversible":
            combos = [[m, s, k] for m in kinds["measure"]
                      for s in kinds["involution"] for k in kinds["kernel"]]
        else:  # balanced
            combos = [[m, s, e] for m in kinds["measure"]
                      for s in kinds["involution"] for e in kinds["effect"]]
        argvs += [["check", "--model", path, predicate, *combo] for combo in combos]
    return argvs


def _subcommand_argvs(path: str, doc) -> list[list[str]]:
    kinds = _names(doc)
    model = ["--model", path]
    argvs = []
    firsts = kinds["measure"] + kinds["kernel"]
    seconds = kinds["involution"] + kinds["measure"] + kinds["kernel"]
    argvs += [["decompose", *model, a, b] for a in firsts for b in seconds]
    problems = [[m, s] for m in kinds["measure"] for s in kinds["involution"]]
    accepts = ([["--acceptance", e] for e in kinds["effect"]]
               + [["--balancing", b] for b in kinds["balancing"]]
               + [["--balancing", "metropolis"], ["--balancing", "barker"]])
    for m, s in problems:
        flags = ["--target", m, "--involution", s]
        for accept in accepts:
            argvs.append(["build-mh", *model, *flags, *accept])
            argvs.append(["verify-mh", *model, *flags, *accept])
            if accept[0] == "--acceptance":
                argvs += [["verify-skew", *model, *flags, *accept, "--twist", t]
                          for t in kinds["involution"]]
    for m in kinds["measure"]:
        argvs += [["classical-mh", *model, "--target", m, "--proposal", k]
                  for k in kinds["kernel"]]
        spaces = list(doc.spaces)
        argvs.append(["gibbs", *model, "--target", m, "--factors", ",".join(spaces)])
        argvs.append(["gibbs", *model, "--target", m, "--factors", spaces[0]])
        for k in kinds["kernel"]:
            labels = doc.kernels[k].dom.labels
            init = labels[0] if isinstance(labels[0], str) else "nosuch"
            argvs.append(["sample", *model, "--kernel", k, "--target", m,
                          "--init", init, "--steps", "300", "--burn", "20",
                          "--seed", "7"])
    for p in kinds["measure"]:
        for lik in kinds["kernel"]:
            observed = doc.kernels[lik].cod.labels
            for q in kinds["kernel"]:
                if isinstance(observed[0], str):
                    argvs.append(["exchange", *model, "--prior", p, "--likelihood",
                                  lik, "--obs", observed[0], "--proposal", q])
    return argvs


def _out_argvs(argvs: list[list[str]]) -> list[list[str]]:
    """The build subcommands again, writing to ``--out``."""
    builds = ("decompose", "build-mh", "classical-mh", "exchange", "gibbs")
    return [[*argv, "--out", OUT] for argv in argvs if argv[0] in builds]


def usage_argvs() -> list[list[str]]:
    """The usage and reference errors the CLI tests use, and a few more."""
    two = "models/two_state_mh.fk"
    skew = "models/skew_four_point.fk"
    gibbs = "models/gibbs_2x2.fk"
    mh = ["--target", "mu", "--involution", "flip"]
    return [
        [],
        ["bogus"],
        ["check"],
        ["check", "--model", two, "bogus", "walk"],
        ["check", "--model", two, "leq", "walk"],
        ["check", "--model", two, "normalized", "ghost"],
        ["check", "--model", two, "normalized", "walk", "mu"],
        ["check", "--model", two, "leq", "flip", "walk"],
        ["check", "--model", two, "normalized", "walk", "--instances", "5"],
        ["check", "--model", two, "normalized", "walk", "--seed", "5"],
        ["build-mh", "--model", two, *mh, "--balancing", "met", "--seed", "5"],
        ["build-mh", "--model", two, *mh],
        ["build-mh", "--model", two, *mh, "--acceptance", "alpha",
         "--balancing", "met"],
        ["build-mh", "--model", two, *mh, "--balancing", "nope"],
        ["verify-skew", "--model", skew, "--target", "mu", "--involution", "prop",
         "--acceptance", "alpha", "--twist", "twist", "--instances", "5"],
        ["sample", "--model", two, "--kernel", "walk", "--target", "mu",
         "--init", "a", "--steps", "10", "--instances", "5"],
        ["sample", "--model", two, "--kernel", "walk", "--target", "mu",
         "--init", "zz", "--steps", "10"],
        ["gibbs", "--model", gibbs, "--target", "joint", "--factors", "X,Y",
         "--seed", "1"],
        ["gibbs", "--model", gibbs, "--target", "joint", "--factors", "X,Q"],
        ["verify-mh", "--model", two, "--instances", "-3"],
        ["verify-mh", "--model", two, "--instances", "0"],
        ["verify-mh", "--model", two, "--instances", "x"],
        ["verify-mh", "--model", two, *mh, "--acceptance", "alpha_bad",
         "--instances", "3"],
        ["verify-mh", "--model", two, "--balancing", "met", "--instances", "3"],
        ["verify-mh", "--model", two, "--target", "mu", "--instances", "3"],
        ["verify-mh", "--model", two, "--target", "mu"],
        ["FINKERN_INSTANCES=abc", "verify-mh", "--model", two, "--instances"],
        ["FINKERN_INSTANCES=0", "verify-mh", "--model", two, "--instances"],
        ["FINKERN_INSTANCES=", "verify-mh", "--model", two, "--instances"],
        ["FINKERN_INSTANCES=4", "verify-mh", "--model", two, "--instances"],
        ["FINKERN_INSTANCES=abc", "check", "--model", two, "normalized", "walk"],
        ["verify-mh", "--model", two, "--instances", "3"],
        ["verify-mh", "--model", two, "--instances", "40", "--seed", "4"],
        ["verify-mh", "--model", two, "--instances", "40", "--seed", "4",
         "--out", OUT],
        ["check", "--model", "models/nonexistent.fk", "normalized", "walk"],
        ["check", "--model", "models", "normalized", "walk"],
        ["verify-mh", "--model", "models/nonexistent.fk", "--instances", "3"],
        ["check", "--model", two, "normalized", "walk", "--out",
         "tests/golden/missing/report.txt"],
        ["check", "--model", two, "normalized", "walk", "--out", OUT],
        ["exchange", "--model", "models/exchange_small.fk", "--prior", "prior",
         "--likelihood", "lik", "--obs", "(z1", "--proposal", "q"],
    ]


def big_argvs() -> list[list[str]]:
    big = "tests/golden/models/big64.fk"
    argvs = [["check", "--model", big, *rest] for rest in (
        ["normalized", "K"], ["normalized", "M"], ["normalized", "N"],
        ["substochastic", "N"], ["finite", "M"], ["copyable", "K"],
        ["reversible", "mu", "K"], ["invariant", "mu", "K"],
        ["leq", "N", "K"], ["abs-cont", "N", "K"], ["equivalent", "K", "K"],
        ["singular", "N", "K"], ["ae-equal", "mu", "K", "N"],
        ["balanced", "mu", "phi", "alpha"],
        ["invariant", "nu", "M"], ["normalized", "nu"])]
    argvs += [
        ["decompose", "--model", big, "N", "K", "--out", OUT],
        ["decompose", "--model", big, "mu", "phi"],
        ["verify-mh", "--model", big, "--target", "mu", "--involution", "phi",
         "--acceptance", "alpha"],
        ["build-mh", "--model", big, "--target", "mu", "--involution", "phi",
         "--balancing", "barker", "--out", OUT],
        ["sample", "--model", big, "--kernel", "K", "--target", "mu",
         "--init", "x3", "--steps", "500", "--seed", "3"],
    ]
    return argvs


def argvs() -> list[list[str]]:
    from finkern.modelfile import parse

    models = sorted(ROOT.glob("models/*.fk"))
    models += [EXTRA / f"{name}.fk" for name in
               ("inf_entries", "unnormalized", "off_orbit", "sparse_exchange")]
    out = []
    for path in models:
        rel = str(path.relative_to(ROOT))
        doc = parse(path.read_text())
        subcommands = _subcommand_argvs(rel, doc)
        out += _check_argvs(rel, doc) + subcommands + _out_argvs(subcommands)
    out += usage_argvs()
    out += big_argvs()
    for name in sorted(extra_documents()):
        if name.startswith(("parse_error_", "big64_")):
            out.append(["check", "--model", f"tests/golden/models/{name}.fk",
                        "normalized", "m"])
    return out


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    EXTRA.mkdir(exist_ok=True)
    for name, text in extra_documents().items():
        (EXTRA / f"{name}.fk").write_text(text)
    out_path = HERE / "out.tmp"
    records = [run_argv(words, out_path) for words in argvs()]
    if out_path.exists():
        out_path.unlink()
    CORPUS.write_text("".join(records))
    print(f"{len(records)} records, {CORPUS.stat().st_size} bytes -> "
          f"{CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
