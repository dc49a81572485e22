from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genutil import oracle_build_system
from sincov import (
    DomainExceeded,
    FlowKind,
    FlowSpec,
    KindMismatch,
    Relation,
    Seed,
    SincovSystem,
    build_system,
    check_sincov,
    flow_eval,
    solve_atlas,
    validate_atlas,
    vector_field_residual,
)
from sincov.flows import _trajectory_atlas

F = Fraction

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
small_integers = st.integers(min_value=-6, max_value=6).map(Fraction)

CONTINUOUS = [FlowSpec.translation(), FlowSpec.blowup()]
PERMUTATION = FlowSpec.of_permutation({"0": "1", "1": "2", "2": "0", "9": "9"})
ALL_SPECS = CONTINUOUS + [FlowSpec.doubling(), PERMUTATION]


@st.composite
def flow_inputs(draw):
    """(spec, grid, seeds) on a small grid; some seeds lie on an earlier
    seed's trajectory, so that they merge."""
    spec = draw(st.sampled_from(ALL_SPECS))
    discrete = spec.kind in (FlowKind.DOUBLING, FlowKind.PERMUTATION)
    times = small_integers if discrete else small_rationals
    grid = draw(st.lists(times, min_size=1, max_size=4, unique=True))
    if spec.kind is FlowKind.PERMUTATION:
        values = st.sampled_from(sorted(spec.mapping))
    else:
        values = small_rationals
    seeds = []
    for t in draw(st.lists(st.sampled_from(grid), max_size=4)):
        if seeds and draw(st.booleans()):
            earlier = draw(st.sampled_from(seeds))
            value = flow_eval(spec, t, earlier.time, earlier.value)
            if value is not None:
                seeds.append(Seed(t, value))
                continue
        seeds.append(Seed(t, draw(values)))
    return spec, grid, seeds


def eval_args_for(spec, draw_time, draw_value, data):
    times = small_integers if spec.kind in (FlowKind.DOUBLING, FlowKind.PERMUTATION) else small_rationals
    tau, alpha = data.draw(times), data.draw(times)
    if spec.kind is FlowKind.PERMUTATION:
        a = data.draw(st.sampled_from(sorted(spec.mapping)))
    else:
        a = data.draw(small_rationals)
    return tau, alpha, a


class TestFlowEval:
    def test_blowup_closed_form(self):
        assert flow_eval(FlowSpec.blowup(), F(1, 2), 0, 1) == 2

    def test_blowup_hits_singularity(self):
        assert flow_eval(FlowSpec.blowup(), 1, 0, 1) is None

    def test_blowup_beyond_singularity(self):
        assert flow_eval(FlowSpec.blowup(), 2, 0, 1) is None

    def test_blowup_negative_value_runs_forward(self):
        assert flow_eval(FlowSpec.blowup(), 1, 0, -1) == F(-1, 2)

    def test_translation(self):
        assert flow_eval(FlowSpec.translation(), 2, 0, 3) == 5

    def test_doubling(self):
        assert flow_eval(FlowSpec.doubling(), 3, 1, F(3, 4)) == 3
        assert flow_eval(FlowSpec.doubling(), 0, 2, 8) == 2

    def test_doubling_rejects_fractional_time(self):
        with pytest.raises(KindMismatch):
            flow_eval(FlowSpec.doubling(), F(1, 2), 0, 1)

    def test_permutation_orbit(self):
        swap = FlowSpec.of_permutation({"0": "1", "1": "0"})
        assert flow_eval(swap, 1, 0, "0") == "1"
        assert flow_eval(swap, 2, 0, "0") == "0"
        assert flow_eval(swap, 0, 1, "0") == "1"

    def test_permutation_outside_carrier(self):
        assert flow_eval(PERMUTATION, 1, 0, "7") is None

    def test_permutation_table_must_be_bijection(self):
        with pytest.raises(ValueError):
            FlowSpec.of_permutation({"0": "1", "1": "1"})

    @given(data=st.data(), spec=st.sampled_from(ALL_SPECS))
    def test_identity_incidence(self, data, spec):
        alpha, _, a = eval_args_for(spec, None, None, data)
        assert flow_eval(spec, alpha, alpha, a) == (
            a if spec.kind is FlowKind.PERMUTATION else Fraction(a)
        )

    @given(data=st.data(), spec=st.sampled_from(ALL_SPECS))
    @settings(max_examples=150)
    def test_composition_incidence(self, data, spec):
        beta, gamma, b = eval_args_for(spec, None, None, data)
        alpha = data.draw(
            small_integers
            if spec.kind in (FlowKind.DOUBLING, FlowKind.PERMUTATION)
            else small_rationals
        )
        c = flow_eval(spec, beta, gamma, b)
        assume(c is not None)
        via_beta = flow_eval(spec, alpha, beta, c)
        assume(via_beta is not None)
        direct = flow_eval(spec, alpha, gamma, b)
        assert direct == via_beta

    @given(data=st.data(), spec=st.sampled_from(ALL_SPECS))
    @settings(max_examples=150)
    def test_symmetry_incidence(self, data, spec):
        alpha, beta, b = eval_args_for(spec, None, None, data)
        a = flow_eval(spec, alpha, beta, b)
        assume(a is not None)
        back = flow_eval(spec, beta, alpha, a)
        assert back == (b if spec.kind is FlowKind.PERMUTATION else Fraction(b))


class TestBlowupAgainstNumericIntegration:
    def test_matches_solve_ivp(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        for x0, t_end in [(F(1), F(1, 2)), (F(-1), F(1)), (F(1, 3), F(2)), (F(2), F(1, 4))]:
            solution = scipy_integrate.solve_ivp(
                lambda _, y: y * y,
                (0.0, float(t_end)),
                [float(x0)],
                rtol=1e-10,
                atol=1e-12,
                dense_output=True,
            )
            exact = flow_eval(FlowSpec.blowup(), t_end, 0, x0)
            numeric = solution.sol(float(t_end))[0]
            assert abs(float(exact) - numeric) < 1e-6


def blowup_grid_system():
    grid = [F(0), F(1, 2), F(1)]
    return build_system(FlowSpec.blowup(), grid, [Seed(F(0), F(1))])


class TestBuildSystem:
    def test_blowup_partial_trajectory(self):
        system = blowup_grid_system()
        assert system.indices == frozenset({"0", "1/2", "1"})
        assert system.get("1/2", "0") == Relation([("1", "2")])
        assert system.get("1", "0") == Relation()
        assert system.get("0", "0") == Relation([("1", "1")])
        assert check_sincov(system) == []

    def test_translation_shift(self):
        system = build_system(FlowSpec.translation(), [F(0), F(1)], [Seed(F(0), F(0))])
        assert system == SincovSystem(
            ["0", "1"],
            {
                ("1", "0"): Relation([("0", "1")]),
                ("0", "1"): Relation([("1", "0")]),
                ("0", "0"): Relation([("0", "0")]),
                ("1", "1"): Relation([("1", "1")]),
            },
        )

    def test_permutation_orbit_closes(self):
        swap = FlowSpec.of_permutation({"0": "1", "1": "0"})
        system = build_system(swap, [F(0), F(1), F(2)], [Seed(F(0), "0")])
        assert system.get("2", "0") == Relation([("0", "0")])
        assert system.get("1", "0") == Relation([("0", "1")])
        assert check_sincov(system) == []

    def test_seed_must_sit_on_grid(self):
        with pytest.raises(ValueError):
            build_system(FlowSpec.translation(), [F(0)], [Seed(F(1), F(0))])

    def test_permutation_seed_must_be_in_carrier(self):
        with pytest.raises(ValueError):
            build_system(PERMUTATION, [F(0)], [Seed(F(0), "42")])

    def test_discrete_grid_must_be_integers(self):
        with pytest.raises(KindMismatch):
            build_system(FlowSpec.doubling(), [F(0), F(1, 2)], [Seed(F(0), F(1))])

    def test_shared_trajectory_seeds_merge(self):
        # (0, 1) and (1/2, 2) lie on one blow-up solution.
        grid = [F(0), F(1, 2)]
        one = build_system(FlowSpec.blowup(), grid, [Seed(F(0), F(1))])
        two = build_system(
            FlowSpec.blowup(), grid, [Seed(F(0), F(1)), Seed(F(1, 2), F(2))]
        )
        assert one == two

    @given(flow_inputs())
    @example((FlowSpec.translation(), [F(0), F(1), F(3)], [Seed(F(0), F(0)), Seed(F(3), F(3))]))
    @example((FlowSpec.blowup(), [F(0), F(1, 2), F(1)], [Seed(F(0), F(1)), Seed(F(1, 2), F(2))]))
    @example((PERMUTATION, [F(0), F(1), F(4)], [Seed(F(0), "0"), Seed(F(1), "1"), Seed(F(4), "1")]))
    @settings(max_examples=80, deadline=None)
    def test_output_always_lawful(self, flow):
        spec, grid, seeds = flow
        assert validate_atlas(_trajectory_atlas(spec, grid, seeds)) == []
        system = build_system(spec, grid, seeds)
        assert check_sincov(system) == []
        assert system == oracle_build_system(spec, grid, seeds)


class TestVectorFieldResidual:
    def test_translation_exact(self):
        spec = FlowSpec.translation()
        assert vector_field_residual(spec, F(3, 7), F(-2, 5), F(1, 100)) == 0

    def test_blowup_reference_points(self):
        spec = FlowSpec.blowup()
        assert vector_field_residual(spec, 0, 1, F(1, 10)) == F(1, 9)
        assert vector_field_residual(spec, 0, 1, F(1, 100)) == F(1, 99)
        assert vector_field_residual(spec, 0, 1, F(1, 1000)) == F(1, 999)

    def test_blowup_zero_solution(self):
        assert vector_field_residual(FlowSpec.blowup(), 0, 0, F(1, 3)) == 0

    def test_step_beyond_domain(self):
        with pytest.raises(DomainExceeded):
            vector_field_residual(FlowSpec.blowup(), 0, 1, 1)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            vector_field_residual(FlowSpec.translation(), 0, 0, 0)

    def test_discrete_kind_rejected(self):
        with pytest.raises(KindMismatch):
            vector_field_residual(FlowSpec.doubling(), 0, 1, F(1, 10))

    @given(
        x=st.fractions(min_value=-5, max_value=5, max_denominator=10),
        h=st.fractions(min_value=F(-1, 5), max_value=F(1, 5), max_denominator=50),
        tau=small_rationals,
    )
    @settings(max_examples=150)
    def test_blowup_residual_bound(self, x, h, tau):
        assume(h != 0)
        assume(abs(x * h) < 1)
        residual = vector_field_residual(FlowSpec.blowup(), tau, x, h)
        assert residual == abs(x) ** 3 * abs(h) / (1 - x * h)
        assert residual <= abs(x) ** 3 * abs(h) / (1 - abs(x * h))


class TestQuotientCountsTrajectories:
    def test_two_trajectories_three_seeds(self):
        grid = [F(0), F(1, 2)]
        seeds = [Seed(F(0), F(1)), Seed(F(1, 2), F(2)), Seed(F(0), F(-3))]
        atlas = solve_atlas(build_system(FlowSpec.blowup(), grid, seeds))
        classes = set()
        for rel in atlas.charts.values():
            classes |= rel.domain
        assert len(classes) == 2
