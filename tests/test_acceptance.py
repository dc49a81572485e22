"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go;
under plain pytest the prints surface only for failures.  Every loop is
driven by a fixed-seed random.Random, so reruns are bit-for-bit identical.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from corpus import run_child
from genutil import (
    mutate_atlas,
    random_atlas,
    random_carrier_bijection,
    random_partial_bijection,
    random_relation,
    random_valid_system,
    rename_carrier,
)
from sincov import (
    FlowSpec,
    NotIsomorphic,
    Relation,
    Seed,
    build_system,
    carrier,
    check_sincov,
    find_isomorphism,
    flow_eval,
    reconstruct,
    solve_atlas,
    solve_via_fixed_index,
    vector_field_residual,
    verify_isomorphism,
)
from test_atlas import witness_checks_out

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_round_trip():
    rng = random.Random(101)
    runs = 1000
    started = time.perf_counter()
    exact = 0
    for i in range(runs):
        system = random_valid_system(rng, thin=i % 2 == 1)
        if reconstruct(solve_atlas(system)) == system:
            exact += 1
    elapsed = time.perf_counter() - started
    ok = exact == runs and elapsed < 10.0
    report(1, ok, f"{exact}/{runs} systems round-tripped exactly in {elapsed:.2f}s")


def test_criterion_2_converse():
    rng = random.Random(202)
    runs = 1000
    clean = sum(
        1 for _ in range(runs) if check_sincov(reconstruct(random_atlas(rng))) == []
    )
    report(2, clean == runs, f"{clean}/{runs} reconstructed atlases satisfy all laws")


def test_criterion_3_isomorphism():
    rng = random.Random(303)
    runs = 500

    recovered = 0
    for _ in range(runs):
        a1 = random_atlas(rng)
        omega = random_carrier_bijection(rng, carrier(a1))
        a2 = rename_carrier(a1, omega)
        iso = find_isomorphism(a1, a2)
        if (
            iso.omega == omega
            and verify_isomorphism(a1, a2, iso)
            and reconstruct(a2) == reconstruct(a1)
        ):
            recovered += 1

    refuted = 0
    for _ in range(runs):
        a1 = random_atlas(rng)
        a2 = mutate_atlas(rng, a1)
        if reconstruct(a1) == reconstruct(a2):
            continue
        try:
            find_isomorphism(a1, a2)
        except NotIsomorphic as exc:
            if witness_checks_out(exc, a1, a2):
                refuted += 1

    ok = recovered == runs and refuted == runs
    report(
        3,
        ok,
        f"{recovered}/{runs} renamed pairs recovered, "
        f"{refuted}/{runs} distinct pairs refuted with verified witnesses",
    )


def test_criterion_4_predicate_criteria():
    rng = random.Random(404)
    runs = 2000
    agree = 0
    for _ in range(runs):
        rho = random_relation(rng, max_pairs=30)
        inj = rho.is_injective() == (
            rho.inverse().compose(rho) == Relation.identity_on(rho.domain)
        )
        coinj = rho.is_coinjective() == (
            rho.compose(rho.inverse()) == Relation.identity_on(rho.range)
        )
        if inj and coinj:
            agree += 1

    closed = 0
    for _ in range(runs):
        rho = random_partial_bijection(rng)
        sigma = random_partial_bijection(rng)
        composed = rho.compose(sigma)
        if (
            composed.is_injective()
            and composed.is_coinjective()
            and rho.inverse().is_injective()
            and rho.inverse().is_coinjective()
        ):
            closed += 1

    ok = agree == runs and closed == runs
    report(
        4,
        ok,
        f"{agree}/{runs} relations match both criterion equalities, "
        f"{closed}/{runs} compositions stay in the subalgebra",
    )


BLOWUP_GRID = [F(-1), F(0), F(1, 3), F(1, 2), F(1), F(2)]


def blowup_fleet(rng, extra=50):
    seeds = [Seed(F(0), F(1)), Seed(F(0), F(-1)), Seed(F(0), F(0))]
    for _ in range(extra):
        t = rng.choice(BLOWUP_GRID)
        value = F(rng.randint(-9, 9), rng.randint(1, 9))
        seeds.append(Seed(t, value))
    return seeds


def test_criterion_5_flow_laws():
    rng = random.Random(505)
    seeds = blowup_fleet(rng)
    system = build_system(FlowSpec.blowup(), BLOWUP_GRID, seeds)
    violations = check_sincov(system)

    strict = False
    for alpha in sorted(system.indices):
        for beta in sorted(system.indices):
            composed = system.get(alpha, beta).compose(system.get(beta, alpha))
            diagonal = system.get(alpha, alpha)
            if composed <= diagonal and composed != diagonal:
                strict = True

    ok = violations == [] and strict and len(seeds) >= 50
    report(
        5,
        ok,
        f"{len(seeds)} seeds, {len(violations)} law violations, "
        f"strict containment observed: {strict}",
    )


def trajectory_groups(spec, seeds):
    groups = []
    for seed in seeds:
        for group in groups:
            rep = group[0]
            if flow_eval(spec, rep.time, seed.time, seed.value) == rep.value:
                group.append(seed)
                break
        else:
            groups.append([seed])
    return groups


def test_criterion_6_quotient_counts_trajectories():
    rng = random.Random(606)
    spec = FlowSpec.blowup()
    matched = 0
    runs = 40
    for i in range(runs):
        seeds = blowup_fleet(rng, extra=rng.randint(1, 12)) if i else blowup_fleet(rng)
        system = build_system(spec, BLOWUP_GRID, seeds)
        classes = len(carrier(solve_atlas(system)))
        if classes == len(trajectory_groups(spec, seeds)):
            matched += 1
    report(6, matched == runs, f"{matched}/{runs} systems: class count == trajectory count")


def test_criterion_7_vector_field_recovery():
    spec = FlowSpec.blowup()
    expected = {
        F(1, 10): F(1, 9),
        F(1, 100): F(1, 99),
        F(1, 1000): F(1, 999),
    }
    got = {h: vector_field_residual(spec, 0, 1, h) for h in expected}
    ok = got == expected
    report(7, ok, "residuals at (0,1): " + ", ".join(f"h={h}: {r}" for h, r in got.items()))


def group_case_systems():
    doubling = build_system(
        FlowSpec.doubling(),
        [F(-2), F(-1), F(0), F(1), F(3)],
        [Seed(F(0), F(3)), Seed(F(1), F(1, 2)), Seed(F(-1), F(-4))],
    )
    permutation = build_system(
        FlowSpec.of_permutation({"0": "1", "1": "2", "2": "0", "3": "4", "4": "3"}),
        [F(0), F(1), F(2), F(5)],
        [Seed(F(0), "0"), Seed(F(1), "3")],
    )
    return {"doubling": doubling, "permutation": permutation}


def test_criterion_8_group_case():
    outcomes = []
    for name, system in group_case_systems().items():
        quotient = solve_atlas(system)
        for gamma in sorted(system.indices):
            fixed = solve_via_fixed_index(system, gamma)
            iso = find_isomorphism(fixed, quotient)
            agreed = (
                verify_isomorphism(fixed, quotient, iso)
                and reconstruct(fixed) == system
            )
            outcomes.append(agreed)
    ok = all(outcomes) and outcomes
    report(8, ok, f"{sum(outcomes)}/{len(outcomes)} fixed-index atlases agree with the quotient")


FLOW_DESCRIPTORS = {
    "translation": '{"kind":"translation","grid":["0","1","5/2"],'
    '"seeds":[{"t":"0","x":"0"},{"t":"1","x":"7/3"}]}',
    "blowup": '{"kind":"blowup","grid":["0","1/2","1"],'
    '"seeds":[{"t":"0","x":"1"},{"t":"0","x":"-2"}]}',
    "doubling": '{"kind":"doubling","grid":["-1","0","2"],'
    '"seeds":[{"t":"0","x":"3"},{"t":"-1","x":"1/5"}]}',
    "permutation": '{"kind":"permutation","permutation":'
    '{"0":"1","1":"2","2":"0","9":"9"},"grid":["0","1","2","3"],'
    '"seeds":[{"t":"0","x":"0"},{"t":"2","x":"9"}]}',
}


def test_criterion_9_cli_pipeline(tmp_path):
    identical = []
    for kind, descriptor in sorted(FLOW_DESCRIPTORS.items()):
        path = tmp_path / f"{kind}.json"
        path.write_text(descriptor, encoding="utf-8")
        code1, generated, _ = run_child(["flow-gen", str(path)])
        code2, solved, _ = run_child(["solve", "-"], generated)
        code3, rebuilt, _ = run_child(["reconstruct", "-"], solved)
        identical.append((code1, code2, code3, rebuilt) == (0, 0, 0, generated))

    atlas = run_child(["solve", str(GOLDEN / "pair_system.json")])[:2]
    goldens = [
        atlas == (0, (GOLDEN / "pair_system.atlas.json").read_bytes()),
        run_child(["flow-gen", str(GOLDEN / "blowup_flow.json")])[:2]
        == (0, (GOLDEN / "blowup_flow.system.json").read_bytes()),
        run_child(["axioms", "-"], atlas[1])[:2]
        == (0, (GOLDEN / "axioms_pass.report.json").read_bytes()),
    ]

    ok = all(identical) and all(goldens)
    report(
        9,
        ok,
        f"{sum(identical)}/{len(identical)} pipelines byte-identical, "
        f"{sum(goldens)}/{len(goldens)} golden files matched",
    )
