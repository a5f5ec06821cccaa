"""Property tests: fault-plan round-trips and injection determinism.

Two invariants the whole chaos suite leans on:

* a :class:`~repro.faults.FaultPlan` survives ``format`` → ``parse`` and
  ``to_json`` → ``from_json`` unchanged, for any valid combination of
  kind, selectors, and control parameters;
* a :class:`~repro.faults.FaultInjector` is a pure function of (plan,
  consultation sequence): replaying the same consultations against a
  fresh injector armed with the same plan yields the identical fault
  sequence, for any seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import KINDS, FaultInjector, FaultPlan, FaultSpec

KIND_NAMES = sorted(KINDS)


@st.composite
def fault_specs(draw):
    kind_name = draw(st.sampled_from(KIND_NAMES))
    kind = KINDS[kind_name]
    params = {}
    for key in kind.selectors:
        if draw(st.booleans()):
            params[key] = draw(
                st.one_of(
                    st.just("*"),
                    st.integers(0, 99).map(str),
                    st.sampled_from(["pool0", "dev1", "printf"])
                    if key in ("device", "service")
                    else st.integers(0, 99).map(str),
                )
            )
    if draw(st.booleans()):
        params["rate"] = repr(
            draw(st.floats(0.0, 1.0, allow_nan=False, width=16))
        )
    if draw(st.booleans()):
        params["seed"] = str(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        params["times"] = str(draw(st.integers(1, 50)))
    if draw(st.booleans()):
        params["after"] = str(draw(st.integers(0, 50)))
    for key in sorted(kind.extras):
        if draw(st.booleans()):
            if key == "factor":
                params["factor"] = str(draw(st.integers(1, 100)))
            elif key == "byte":
                params["byte"] = str(draw(st.integers(0, 7)))
    return FaultSpec(kind_name, params)


@st.composite
def fault_plans(draw):
    specs = draw(st.lists(fault_specs(), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**31))
    return FaultPlan(specs, seed=seed)


@settings(max_examples=150, deadline=None)
@given(fault_plans())
def test_format_parse_round_trip(plan):
    text = plan.format()
    back = FaultPlan.parse(text, seed=plan.seed)
    assert back.format() == text
    assert [s.kind for s in back.specs] == [s.kind for s in plan.specs]
    assert [s.params for s in back.specs] == [s.params for s in plan.specs]


@settings(max_examples=150, deadline=None)
@given(fault_plans())
def test_json_round_trip(plan):
    back = FaultPlan.from_json(plan.to_json())
    assert back.seed == plan.seed
    assert back.format() == plan.format()


@settings(max_examples=100, deadline=None)
@given(fault_specs())
def test_spec_round_trip_preserves_typed_accessors(spec):
    back = FaultSpec.parse(spec.format())
    assert back.kind == spec.kind
    assert back.rate == spec.rate
    assert back.seed == spec.seed
    assert back.times == spec.times
    assert back.after == spec.after


#: A synthetic consultation sequence touching every injection point with
#: varying context — the kind of traffic a campaign generates.
def _consult(injector, n):
    fired = []
    for i in range(n):
        with injector.scoped(job=i % 3, device=f"pool{i % 2}"):
            for point, ctx in (
                ("device.alloc", {}),
                ("device.launch", {"team": i % 4}),
                ("rpc.reply", {"service": "printf", "instance": i % 8}),
                ("sched.dispatch", {"instance_range": range(i, i + 4)}),
            ):
                spec = injector.fire(point, **ctx)
                if spec is not None:
                    fired.append((i, point, spec.format()))
    return fired


@settings(max_examples=60, deadline=None)
@given(fault_plans(), st.integers(1, 40))
def test_identical_plans_fire_identically(plan, n):
    a = FaultInjector(plan)
    b = FaultInjector(plan)
    assert _consult(a, n) == _consult(b, n)
    assert [e.key() for e in a.events] == [e.key() for e in b.events]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 40))
def test_rate_draws_are_reproducible_for_any_seed(seed, n):
    plan = FaultPlan.parse("rpc_drop:rate=0.5", seed=seed)
    a = _consult(FaultInjector(plan), n)
    b = _consult(FaultInjector(plan), n)
    assert a == b


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31))
def test_plan_seed_feeds_the_streams(seed):
    # Same spec text, different plan seeds: the *schedule* may differ but
    # each remains internally reproducible.
    plan = FaultPlan.parse("rpc_drop:rate=0.5;oom:rate=0.5", seed=seed)
    first = _consult(FaultInjector(plan), 25)
    again = _consult(FaultInjector(plan), 25)
    assert first == again
