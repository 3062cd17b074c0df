"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (zero tolerance) except the sampler criterion, whose
total-variation threshold and runtime bounds are stated inline. Seeds are
fixed; instance counts meet or exceed the stated minimums.
"""

import random
import time
from itertools import product as iproduct
from pathlib import Path

from finkern.semiring import ExtNonneg, ONE, ZERO
from finkern.spaces import FinSpace, UNIT, product, product_many
from finkern.kernels import (
    Involution, Kernel, associator, compose, copy, delete, deterministic,
    effect, effect_mul, identity, is_copyable, is_normalized,
    is_substochastic, left_unitor, lift_involution, measure, pushforward,
    reweight, right_unitor, row_mass, swap, tensor,
)
from finkern.enrichment import (
    abs_cont, cancellation_counterexample, equivalent, involutive_decompose,
    is_cancellative, is_finite_morphism, is_singular, kernel_zero,
    leq_kernel, meet, rn_derivative,
)
from finkern.mcmc import (
    METROPOLIS, MhProblem, balancing_alpha, build_mh, build_skew_mh,
    check_balancing, classical_mh, exchange_algorithm, gibbs,
    is_invariant, is_reversible, is_skew_reversible, verify_mh_theorem,
    verify_skew_theorem,
)
from finkern.generators import (
    rand_involution, rand_kernel, rand_measure, rand_mh_problem,
    rand_normalized_kernel, rand_probability_measure, rand_value,
)
from finkern.modelfile import parse, emit
from finkern.sampler import empirical, run_chain, to_float, tv_distance
from finkern import cli
from strategies import leq_witness, rand_skew_instance

MODELS = Path(__file__).resolve().parent.parent / "models"
SEED = 20260808


def q(num, den=1):
    return ExtNonneg(num, den)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- 1: flagship biconditional --------------------------------------------------

def test_criterion_01_flagship_biconditional():
    rng = random.Random(SEED)
    instances = 10_000
    start = time.perf_counter()
    agree = 0
    reversible_count = 0
    for _ in range(instances):
        flags = verify_mh_theorem(rand_mh_problem(rng, 2, 6, mode="mixed"))
        agree += flags.reversible == flags.balanced
        reversible_count += flags.reversible
    elapsed = time.perf_counter() - start
    ok = agree == instances and elapsed < 60.0
    _report(1, "flagship-biconditional", ok,
            f"({agree}/{instances} agree, {reversible_count} reversible, "
            f"{elapsed:.1f}s < 60s)")


# -- 2: involutive Lebesgue decomposition ----------------------------------------

def test_criterion_02_involutive_decomposition():
    rng = random.Random(SEED + 2)
    instances = 10_000
    passed = 0
    for _ in range(instances):
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 6))))
        phi = rand_involution(rng, space)
        mu = rand_measure(rng, space, zero_weight=0.5)
        support, d = involutive_decompose(mu, phi)
        lifted_ac = pushforward(phi, d.ac)
        lifted_si = pushforward(phi, d.si)
        good = (d.ac + d.si == mu
                and equivalent(d.ac, lifted_ac)
                and is_singular(d.si, lifted_si)
                and is_singular(d.ac, d.si)
                and support == tuple(
                    x for x, v in zip(space.labels, d.ac.entries[0])
                    if v.num != 0))
        passed += good
    _report(2, "involutive-lebesgue-decomposition", passed == instances,
            f"({passed}/{instances})")


# -- 3: classical MH recovery ------------------------------------------------------

def test_criterion_03_classical_mh_recovery():
    rng = random.Random(SEED + 3)
    instances = 1_000
    passed = 0
    for _ in range(instances):
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
        target = rand_probability_measure(rng, space, zero_weight=0.2)
        proposal = rand_normalized_kernel(rng, space, space, zero_weight=0.3)
        via, direct = classical_mh(target, proposal)
        passed += (via == direct
                   and is_reversible(target, via)
                   and is_reversible(target, direct))
    _report(3, "classical-mh-recovery", passed == instances,
            f"({passed}/{instances})")


# -- 4: exchange algorithm ----------------------------------------------------------

def test_criterion_04_exchange_algorithm():
    rng = random.Random(SEED + 4)
    instances = 200
    passed = 0
    for _ in range(instances):
        nx, nz = rng.randint(2, 3), rng.randint(2, 3)
        base = FinSpace(tuple(f"t{i}" for i in range(nx)))
        data = FinSpace(tuple(f"z{i}" for i in range(nz)))
        prior = measure(base, [rand_value(rng, 8) + ONE for _ in range(nx)])
        likelihood = Kernel(base, data, [
            [rand_value(rng, 8) + q(1, 8) for _ in range(nz)]
            for _ in range(nx)])  # unnormalized, strictly positive rows
        proposal = rand_normalized_kernel(rng, base, base)
        observed = data.labels[rng.randrange(nz)]
        augmented, phi, alpha = exchange_algorithm(
            prior, likelihood, observed, proposal)
        problem = MhProblem(target=augmented, involution=phi, acceptance=alpha)
        # rescale each likelihood row by its own random positive constant
        constants = [q(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(nx)]
        scaled = Kernel(base, data, [
            [v * c for v in row]
            for c, row in zip(constants, likelihood.entries)])
        _, _, alpha_scaled = exchange_algorithm(
            prior, scaled, observed, proposal)
        passed += check_balancing(problem) and alpha == alpha_scaled
    _report(4, "exchange-algorithm", passed == instances,
            f"({passed}/{instances})")


# -- 5: Gibbs invariance ---------------------------------------------------------------

def test_criterion_05_gibbs_invariance():
    rng = random.Random(SEED + 5)
    instances = 1_000
    passed = 0
    for _ in range(instances):
        n_factors = rng.randint(2, 3)
        factors = [FinSpace(tuple(f"c{i}_{j}" for j in range(rng.randint(2, 3))))
                   for i in range(n_factors)]
        grid = product_many(factors)
        joint = rand_probability_measure(rng, grid, zero_weight=0.3)
        passed += is_invariant(joint, gibbs(joint, factors))
    _report(5, "gibbs-invariance", passed == instances,
            f"({passed}/{instances})")


# -- 6: skew suite ------------------------------------------------------------------------

def _target_preserving_involution(rng, target):
    space = target.cod
    masses = target.measure_values()
    perm = list(range(len(space)))
    indices = list(range(len(space)))
    rng.shuffle(indices)
    while len(indices) >= 2:
        a, b = indices.pop(), indices.pop()
        if masses[a] == masses[b] and rng.random() < 0.8:
            perm[a], perm[b] = b, a
    return Involution(space, tuple(perm))


def test_criterion_06_skew_suite():
    rng = random.Random(SEED + 6)
    passed = 0
    equivalence_instances = 1_000
    for _ in range(equivalence_instances):
        target, twist, chain = rand_skew_instance(rng, max_size=6)
        lifted = lift_involution(twist)
        c1 = is_skew_reversible(target, twist, chain)
        c2 = is_reversible(target, compose(chain, lifted))
        c3 = is_reversible(target, compose(lifted, chain))
        c4 = c2 and c3 and compose(compose(chain, lifted), lifted) == chain
        passed += (c1 == c2 == c3 == c4)
    theorem_instances = 1_000
    for _ in range(theorem_instances):
        problem = rand_mh_problem(rng, 2, 6, mode="mixed")
        twist = _target_preserving_involution(rng, problem.target)
        flags = verify_skew_theorem(problem, twist)
        passed += flags.reversible == flags.balanced
    total = equivalence_instances + theorem_instances
    _report(6, "skew-suite", passed == total, f"({passed}/{total})")


# -- 7: enrichment law suite ----------------------------------------------------------------

def _random_same_type_pair(rng, max_size=4, inf_weight=0.1):
    dom = FinSpace(tuple(f"a{i}" for i in range(rng.randint(1, max_size))))
    cod = FinSpace(tuple(f"b{i}" for i in range(rng.randint(1, max_size))))
    p = rand_kernel(rng, dom, cod, max_den=12, zero_weight=0.3, inf_weight=inf_weight)
    q_ = rand_kernel(rng, dom, cod, max_den=12, zero_weight=0.3, inf_weight=inf_weight)
    return p, q_


def _check_cd_axioms_exhaustive():
    for n in range(1, 5):
        space = FinSpace(tuple(f"x{i}" for i in range(n)))
        cop = copy(space)
        left = compose(left_unitor(space),
                       compose(tensor(delete(space), identity(space)), cop))
        right = compose(right_unitor(space),
                        compose(tensor(identity(space), delete(space)), cop))
        if left != identity(space) or right != identity(space):
            return False
        coassoc_l = compose(associator(space, space, space),
                            compose(tensor(cop, identity(space)), cop))
        coassoc_r = compose(tensor(identity(space), cop), cop)
        if coassoc_l != coassoc_r:
            return False
        if compose(swap(space, space), cop) != cop:
            return False
        if not (is_normalized(cop) and is_copyable(cop)
                and is_normalized(delete(space))):
            return False
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 4)):
        a = FinSpace(tuple(f"a{i}" for i in range(n)))
        b = FinSpace(tuple(f"b{i}" for i in range(m)))
        ab = product(a, b)
        collapse = deterministic(product(UNIT, UNIT), UNIT, lambda p: "*")
        if delete(ab) != compose(collapse, tensor(delete(a), delete(b))):
            return False
        rearrange = deterministic(
            product(product(a, a), product(b, b)), product(ab, ab),
            lambda p: ((p[0][0], p[1][0]), (p[0][1], p[1][1])))
        if copy(ab) != compose(rearrange, tensor(copy(a), copy(b))):
            return False
    return delete(UNIT) == identity(UNIT)


def test_criterion_07_enrichment_laws():
    rng = random.Random(SEED + 7)
    instances = 1_000
    failures = []

    def batch(name, check):
        bad = 0
        for _ in range(instances):
            if not check():
                bad += 1
        if bad:
            failures.append(f"{name}:{bad}")

    def bilinearity():
        p, q_ = _random_same_type_pair(rng)
        r = rand_kernel(rng, q_.cod, FinSpace(("w0", "w1")), max_den=8,
                        inf_weight=0.1)
        s = rand_kernel(rng, FinSpace(("v0",)), p.dom, max_den=8,
                        inf_weight=0.1)
        return (compose(r, p + q_) == compose(r, p) + compose(r, q_)
                and compose(p + q_, s) == compose(p, s) + compose(q_, s)
                and tensor(p + q_, identity(UNIT)) ==
                tensor(p, identity(UNIT)) + tensor(q_, identity(UNIT)))

    def annihilation():
        p, _ = _random_same_type_pair(rng)
        z = kernel_zero(p.cod, p.dom)
        return (compose(z, p).is_zero() and compose(p, z).is_zero()
                and tensor(p, kernel_zero(UNIT, UNIT)).is_zero())

    def pathologies():
        p, q_ = _random_same_type_pair(rng)
        ok = True
        if (p + q_).is_zero():
            ok &= p.is_zero() and q_.is_zero()
        if row_mass(p).is_zero():
            ok &= p.is_zero()
        if tensor(p, q_).is_zero():
            ok &= p.is_zero() or q_.is_zero()
        return ok

    def preorders():
        p, q_ = _random_same_type_pair(rng)
        total = p + q_
        ok = leq_kernel(p, total) and abs_cont(p, total)
        w = leq_witness(p, q_)
        ok &= leq_kernel(p, q_) == (w is not None)
        if w is not None:
            ok &= p + w == q_
            ok &= abs_cont(p, q_)
        post = rand_kernel(rng, p.cod, FinSpace(("r0", "r1")), max_den=6)
        ok &= leq_kernel(compose(post, p), compose(post, total))
        ok &= abs_cont(compose(post, p), compose(post, total))
        return ok

    def cancellativity():
        p, q_ = _random_same_type_pair(rng, inf_weight=0.15)
        finite_atoms = all(v.is_finite for row in p.entries for v in row)
        ok = is_cancellative(p) == finite_atoms
        witness = cancellation_counterexample(p)
        if is_cancellative(p):
            ok &= witness is None
            other = rand_kernel(rng, p.dom, p.cod, max_den=6)
            if p + q_ == p + other:
                ok &= q_ == other
        else:
            left, right = witness
            ok &= p + left == p + right and left != right
        ok &= (not is_finite_morphism(p)) or is_cancellative(p)
        return ok

    def prop_reversible_implies_invariant():
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        target = rand_probability_measure(rng, space, zero_weight=0.2)
        proposal = rand_normalized_kernel(rng, space, space, zero_weight=0.2)
        _, chain = classical_mh(target, proposal)
        other = rand_normalized_kernel(rng, space, space)
        ok = is_reversible(target, chain) and is_invariant(target, chain)
        if is_invariant(target, other):
            ok &= is_invariant(target, compose(chain, other))
        return ok

    def prop_invariant_involution_reversible():
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
        phi = rand_involution(rng, space)
        masses = [rand_value(rng, 8, zero_weight=0.3) for _ in space.labels]
        for i, j in enumerate(phi.perm):
            if i < j:
                masses[j] = masses[i]
        target = measure(space, masses)
        lifted = lift_involution(phi)
        return is_invariant(target, lifted) and is_reversible(target, lifted)

    def prop_sums_and_differences():
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        target = rand_probability_measure(rng, space)
        _, p = classical_mh(target, rand_normalized_kernel(rng, space, space))
        _, q_ = classical_mh(target, rand_normalized_kernel(rng, space, space))
        half = effect(space, [ExtNonneg(1, 2)] * len(space))
        sub = reweight(half, q_)
        total = p + sub
        ok = is_reversible(target, total)
        ok &= is_substochastic(sub)
        recovered = leq_witness(sub, total)
        ok &= recovered == p and is_reversible(target, recovered)
        return ok

    def importance_sampling():
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
        masses = [rand_value(rng, 8, zero_weight=0.3) for _ in space.labels]
        density = [rand_value(rng, 8, zero_weight=0.3) for _ in space.labels]
        mu = measure(space, masses)
        pi = measure(space, [d * m for d, m in zip(density, masses)])
        r = rn_derivative(pi, mu)
        f = effect(space, [rand_value(rng, 8, zero_weight=0.2, inf_weight=0.1)
                           for _ in space.labels])
        return compose(f, pi) == compose(effect_mul(f, r), mu)

    batch("bilinearity", bilinearity)
    batch("annihilation", annihilation)
    batch("zero-pathologies", pathologies)
    batch("preorders", preorders)
    batch("cancellativity", cancellativity)
    batch("reversible-implies-invariant", prop_reversible_implies_invariant)
    batch("invariant-involution-reversible", prop_invariant_involution_reversible)
    batch("sum-difference-reversibility", prop_sums_and_differences)
    batch("importance-sampling", importance_sampling)
    cd_ok = _check_cd_axioms_exhaustive()
    if not cd_ok:
        failures.append("cd-axioms")
    ok = not failures
    _report(7, "enrichment-law-suite", ok,
            f"(9 randomized batches x {instances} + exhaustive CD axioms"
            + (f"; failures: {', '.join(failures)}" if failures else ")"))


# -- 8: meet universal property -----------------------------------------------------------------

def test_criterion_08_meet_universal_property():
    grid_values = (ZERO, q(1, 2), ONE, q(3, 2))
    space = FinSpace.atoms("x0 x1 x2")
    checked = 0
    ok = True
    vectors = list(iproduct(grid_values, repeat=3))
    for p_vals in vectors:
        p = measure(space, list(p_vals))
        for q_vals in vectors:
            q_ = measure(space, list(q_vals))
            m = meet(p, q_)
            ok &= abs_cont(m, p) and abs_cont(m, q_)
            for support in iproduct((False, True), repeat=3):
                r = measure(space, [ONE if s else ZERO for s in support])
                if abs_cont(r, p) and abs_cont(r, q_):
                    ok &= abs_cont(r, m)
            checked += 1
    # kernel case: 2x2 supports with unit masses
    dom = FinSpace.atoms("a b")
    cod = FinSpace.atoms("u v")
    patterns = list(iproduct((ZERO, ONE), repeat=4))
    for p_vals in patterns:
        p = Kernel(dom, cod, [p_vals[:2], p_vals[2:]])
        for q_vals in patterns:
            q_ = Kernel(dom, cod, [q_vals[:2], q_vals[2:]])
            m = meet(p, q_)
            ok &= abs_cont(m, p) and abs_cont(m, q_)
            for r_vals in patterns:
                r = Kernel(dom, cod, [r_vals[:2], r_vals[2:]])
                if abs_cont(r, p) and abs_cont(r, q_):
                    ok &= abs_cont(r, m)
            checked += 1
    _report(8, "meet-universal-property", ok, f"({checked} exhaustive pairs)")


# -- 9: sampler sanity ---------------------------------------------------------------------------

def test_criterion_09_sampler_sanity():
    target = measure(FinSpace.atoms("a b"), [q(1, 3), q(2, 3)])
    phi = Involution.from_mapping(target.cod, {"a": "b", "b": "a"})
    problem = MhProblem(target=target, involution=phi,
                        acceptance=balancing_alpha(METROPOLIS, target, phi))
    matrix = to_float(build_mh(problem))
    start = time.perf_counter()
    run = run_chain(matrix, 0, SEED, 10**6)
    frequencies = empirical(run, 10_000)
    elapsed = time.perf_counter() - start
    tv = tv_distance(frequencies, [v.to_float() for v in target.measure_values()])
    ok = tv < 0.02 and elapsed < 5.0
    _report(9, "sampler-sanity", ok, f"(tv={tv:.5f} < 0.02, {elapsed:.2f}s < 5s)")


# -- 10: CLI round trip and witnesses --------------------------------------------------------------

def test_criterion_10_cli_round_trip_and_witnesses(capsys):
    corpus = sorted(MODELS.glob("*.fk"))
    ok = bool(corpus)
    for path in corpus:
        doc = parse(path.read_text(encoding="utf-8"))
        ok &= parse(emit(doc)) == doc

    # a failing verify-mh must report a witness that re-fails the predicates
    model = str(MODELS / "two_state_mh.fk")
    code = cli.main(["verify-mh", "--model", model, "--target", "mu",
                     "--involution", "flip", "--acceptance", "alpha_bad"])
    out = capsys.readouterr().out
    report = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            report[key] = value
    ok &= code == 1
    doc = parse(Path(model).read_text(encoding="utf-8"))
    target = doc.measures["mu"]
    phi = doc.involutions["flip"]
    accept = doc.probabilities["alpha_bad"]
    chain = build_mh(MhProblem(target=target, involution=phi, acceptance=accept))
    x, y = report["witness_x"], report["witness_y"]
    ok &= (target.entry("*", x) * chain.entry(x, y)
           != target.entry("*", y) * chain.entry(y, x))
    point = report["witness_balancing"]
    ratio = rn_derivative(pushforward(phi, target), target)
    i = target.cod.index(point)
    ok &= (accept.effect_values()[i]
           != accept.effect_values()[phi.perm[i]] * ratio.effect_values()[i])

    # same for verify-skew with the identity twist
    code = cli.main(["verify-skew", "--model", model, "--target", "mu",
                     "--involution", "flip", "--acceptance", "alpha_bad",
                     "--twist", "stay"])
    out = capsys.readouterr().out
    skew_report = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            skew_report[key] = value
    ok &= code == 1
    sx, sy = skew_report["witness_x"], skew_report["witness_y"]
    twist = doc.involutions["stay"]
    skew_chain = build_skew_mh(
        MhProblem(target=target, involution=phi, acceptance=accept), twist)
    conjugated = compose(lift_involution(twist),
                         compose(skew_chain, lift_involution(twist)))
    ok &= (target.entry("*", sx) * skew_chain.entry(sx, sy)
           != target.entry("*", sy) * conjugated.entry(sy, sx))
    _report(10, "cli-round-trip-and-witnesses", ok,
            f"({len(corpus)} corpus files)")
