"""The records' equality, hash, immutability, repr and validation."""

import pickle

import pytest

from finkern.semiring import ExtNonneg, INF
from finkern.spaces import FinSpace, Tagged
from finkern.kernels import (
    Involution, SpaceMismatchError, effect, identity, measure,
)
from finkern.enrichment import Decomposition, NotCancellative
from finkern.mcmc import BARKER, METROPOLIS, BalancingFunction, MhProblem
from finkern.modelfile import ModelDocument, emit, parse
from finkern.sampler import ChainRun, run_chain, to_float


def q(num, den=1):
    return ExtNonneg(num, den)


X = FinSpace.atoms("a b")
Y = FinSpace.atoms("a b c")
MU = measure(X, [q(1, 3), q(2, 3)])
FLIP = Involution(X, (1, 0))
ALPHA = effect(X, [q(1), q(1, 2)])


def _frozen_pairs():
    # (record, an equal record built afresh, a different record, a field)
    return [
        (Tagged("L", "a"), Tagged(side="L", label="a"), Tagged("R", "a"), "side"),
        (FLIP, Involution(space=X, perm=[1, 0]), Involution.identity(X), "perm"),
        (Decomposition(MU, MU), Decomposition(ac=MU, si=MU),
         Decomposition(MU, MU + MU), "ac"),
        (METROPOLIS, BalancingFunction("metropolis", METROPOLIS.fn), BARKER,
         "name"),
        (MhProblem(MU, FLIP, ALPHA),
         MhProblem(target=MU, involution=FLIP, acceptance=ALPHA),
         MhProblem(MU, Involution.identity(X), ALPHA), "target"),
    ]


@pytest.mark.parametrize("record, same, other, field", _frozen_pairs())
def test_frozen_record_equality_and_hash(record, same, other, field):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("record, same, other, field", _frozen_pairs())
def test_assigning_a_field_of_a_frozen_record_raises(record, same, other, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    assert getattr(record, field) is before


@pytest.mark.parametrize("record, same, other, field", _frozen_pairs())
def test_frozen_records_pickle(record, same, other, field):
    assert pickle.loads(pickle.dumps(record)) == record


def test_tagged_never_equals_a_tuple():
    assert Tagged("L", "a") != ("L", "a")
    assert ("L", "a") != Tagged("L", "a")
    assert ("L", "a") not in {Tagged("L", "a")}
    space = FinSpace([("L", "a"), Tagged("L", "a")])
    assert space.index(Tagged("L", "a")) == 1


def test_tagged_rejects_a_bad_side_by_position_and_keyword():
    for build in (lambda: Tagged("M", "a"), lambda: Tagged(side="M", label="a")):
        with pytest.raises(ValueError, match="tag must be 'L' or 'R', got 'M'"):
            build()


def test_involution_normalizes_and_validates():
    assert Involution(X, [1, 0]).perm == (1, 0)
    with pytest.raises(ValueError, match="not a permutation"):
        Involution(X, (0, 0))
    with pytest.raises(ValueError, match="not self-inverse at index 0"):
        Involution(space=Y, perm=(1, 2, 0))


def test_decomposition_total():
    assert Decomposition(MU, MU).total == MU + MU


def _bad_problems():
    other = FinSpace.atoms("c d")
    return [
        ((identity(X), FLIP, ALPHA), SpaceMismatchError, "target must be a measure"),
        ((MU, Involution.identity(other), ALPHA), SpaceMismatchError,
         "involution lives on a different space"),
        ((MU, FLIP, MU), SpaceMismatchError,
         "acceptance must be an effect on the target space"),
        ((measure(X, [q(1), INF]), FLIP, ALPHA), NotCancellative,
         "target must have finite atoms"),
        ((MU, FLIP, effect(X, [q(3, 2), q(1)])), ValueError,
         "acceptance value 3/2 exceeds 1"),
    ]


@pytest.mark.parametrize("fields, error, message", _bad_problems())
def test_mh_problem_validation_by_position_and_keyword(fields, error, message):
    target, involution, acceptance = fields
    with pytest.raises(error) as positional:
        MhProblem(target, involution, acceptance)
    with pytest.raises(error) as keyword:
        MhProblem(target=target, involution=involution, acceptance=acceptance)
    assert str(positional.value) == str(keyword.value) == message


def test_mh_problem_space():
    assert MhProblem(MU, FLIP, ALPHA).space == X


DOC = """
space X { a b }
measure mu on X { a = 1/3  b = 2/3 }
involution flip on X { a -> b  b -> a }
probability alpha on X { a = 1  b = 1/2 }
"""


def test_model_document_compares_by_content():
    doc = parse(DOC)
    assert doc == parse(DOC)
    assert parse(emit(doc)) == doc
    built = ModelDocument(spaces={"X": X}, measures={"mu": MU},
                          involutions={"flip": FLIP})
    built.probabilities["alpha"] = ALPHA
    assert built == doc
    positional = ModelDocument({"X": X}, {"mu": MU}, {}, {"alpha": ALPHA}, {},
                               {"flip": FLIP})
    assert positional == doc
    built.balancing["met"] = "metropolis"
    assert built != doc
    assert ModelDocument() == ModelDocument()
    assert ModelDocument().spaces is not ModelDocument().spaces
    with pytest.raises(TypeError):
        hash(doc)
    assert pickle.loads(pickle.dumps(doc)) == doc
    assert repr(ModelDocument()).startswith("ModelDocument(spaces={}, ")


def test_chain_run_repr_omits_the_trace():
    run = run_chain(to_float(identity(X)), 0, 1, 10**5)
    assert len(run.trace) == 10**5 + 1
    text = repr(run)
    assert "trace" not in text and len(text) < 200
    assert text.startswith("ChainRun(kernel=((1.0, 0.0), (0.0, 1.0)), initial=0")
    assert text.endswith("rng_name='python-mersenne-twister')")


def test_chain_run_equality():
    matrix = to_float(identity(X))
    run = ChainRun(matrix, 0, 1, 2, [0, 0, 0])
    assert run == ChainRun(kernel=matrix, initial=0, seed=1, length=2,
                           trace=[0, 0, 0], rng_name="python-mersenne-twister")
    assert run != ChainRun(matrix, 0, 2, 2, [0, 0, 0])
    assert run != ChainRun(matrix, 0, 1, 2, [0, 0, 1])
    with pytest.raises(TypeError):
        hash(run)
