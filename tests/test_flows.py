from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genutil import oracle_build_system, oracle_flow
from sincov import (
    Atlas,
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
# Three cycles, one of them of length 1, and a second fixed point.
CYCLES = FlowSpec.of_permutation(
    {"0": "1", "1": "2", "2": "0", "3": "4", "4": "3", "5": "5", "6": "6"}
)
CYCLES_FLOW = (
    CYCLES,
    [F(-3), F(0), F(2), F(5)],
    [Seed(F(0), "0"), Seed(F(2), "3"), Seed(F(5), "6"), Seed(F(0), "2")],
)


@st.composite
def permutation_specs(draw):
    """A random bijection of up to 8 labels: mostly several cycles, often
    with fixed points."""
    label = st.text("abc", min_size=1, max_size=2)
    labels = draw(st.lists(label, min_size=1, max_size=8, unique=True))
    return FlowSpec.of_permutation(dict(zip(labels, draw(st.permutations(labels)))))


specs = st.one_of(st.sampled_from([*ALL_SPECS, CYCLES]), permutation_specs())


@st.composite
def flow_inputs(draw):
    """(spec, grid, seeds) on a small grid; some seeds lie on an earlier
    seed's trajectory, so that they merge."""
    spec = draw(specs)
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
            value = oracle_flow(spec, t, earlier.time, earlier.value)
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

    def test_permutation_cycles_and_fixed_points(self):
        assert [flow_eval(CYCLES, t, 0, "0") for t in range(-2, 4)] == list("120120")
        assert [flow_eval(CYCLES, t, 0, "4") for t in range(-1, 2)] == ["3", "4", "3"]
        assert flow_eval(CYCLES, -5, 0, "5") == "5"

    @pytest.mark.parametrize(
        "args, error, bad",
        [
            # KindMismatch names the first non-integer of (tau, alpha), and
            # comes before a is read; Fraction fails in the order tau, alpha, a.
            ((FlowSpec.doubling(), F(1, 2), F(1, 3), 1), KindMismatch, "1/2"),
            ((PERMUTATION, 1, F(1, 3), "0"), KindMismatch, "1/3"),
            ((FlowSpec.doubling(), 1, F(1, 3), "zap"), KindMismatch, "1/3"),
            ((FlowSpec.doubling(), "x", F(1, 2), 1), ValueError, "x"),
            ((FlowSpec.translation(), "x", "y", "z"), ValueError, "x"),
            ((FlowSpec.translation(), "1", "y", "z"), ValueError, "y"),
            ((FlowSpec.blowup(), "1", "0", "z"), ValueError, "z"),
            ((FlowSpec.doubling(), 1, 0, "z"), ValueError, "z"),
        ],
    )
    def test_errors_and_their_order(self, args, error, bad):
        with pytest.raises(error) as excinfo:
            flow_eval(*args)
        assert str(excinfo.value) == (
            f"discrete flow needs integer times, got {bad}"
            if error is KindMismatch
            else f"Invalid literal for Fraction: {bad!r}"
        )

    @given(data=st.data(), spec=specs)
    @settings(max_examples=150)
    def test_matches_the_oracle(self, data, spec):
        tau, alpha, a = eval_args_for(spec, None, None, data)
        assert flow_eval(spec, tau, alpha, a) == oracle_flow(spec, tau, alpha, a)

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
    @example(CYCLES_FLOW)
    @settings(max_examples=80, deadline=None)
    def test_output_always_lawful(self, flow):
        spec, grid, seeds = flow
        assert validate_atlas(_trajectory_atlas(spec, grid, seeds)) == []
        system = build_system(spec, grid, seeds)
        assert check_sincov(system) == []
        assert system == oracle_build_system(spec, grid, seeds)

    @given(flow_inputs())
    @example(CYCLES_FLOW)
    @settings(max_examples=150, deadline=None)
    def test_trajectory_atlas_matches_the_oracle(self, flow):
        # A carrier point per distinct trajectory, numbered in seed order.
        spec, grid, seeds = flow
        grid = sorted(set(grid))
        trajectories = dict.fromkeys(
            tuple(oracle_flow(spec, t, *seed) for t in grid) for seed in seeds
        )
        charts = {
            t: Relation((z, traj[i]) for z, traj in enumerate(trajectories) if traj[i] is not None)
            for i, t in enumerate(grid)
        }
        assert _trajectory_atlas(spec, grid, seeds) == Atlas(charts)

    def test_trajectory_atlas_reads_the_table_at_most_twice_per_seed(self, monkeypatch):
        reads = []
        mapping = FlowSpec.mapping.fget
        counted = property(lambda spec: reads.append(spec) or mapping(spec))
        monkeypatch.setattr(FlowSpec, "mapping", counted)
        spec = FlowSpec.of_permutation({str(i): str((i + 1) % 50) for i in range(50)})
        seeds = [Seed(F(0), "0"), Seed(F(3), "7"), Seed(F(19), "49")]
        atlas = _trajectory_atlas(spec, range(20), seeds)
        assert len(reads) <= 2 * len(seeds)
        assert atlas.chart(F(19)) == Relation([(0, "19"), (1, "23"), (2, "49")])


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
