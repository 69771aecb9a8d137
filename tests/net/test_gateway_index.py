"""Property tests for :class:`~repro.net.topology.GatewayIndex`.

The index promises two things that both device engines rely on:

* ``nearest_hearing`` is exactly the top ``count`` of the hearing
  gateways ranked by (squared distance, provider order), whatever
  sequence of lifecycle transitions led here;
* ``still_nearest`` never accepts a cached answer that a fresh query
  would contradict.

Gateways sit on a coarse lattice so exact-distance ties and co-located
gateways are common, and the transition sequences mix deploys, faults,
retirements, degrade windows, late arrivals and provider reorders.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import units
from repro.core.engine import Simulation
from repro.net import DeviceCohort, EdgeDevice, GatewayIndex, OwnedGateway, Position
from repro.net.device import MAX_LINKS_TRIED
from repro.radio import ieee802154

# A 5 × 5 lattice: symmetric about the origin, so a query at a lattice
# point or a cell centre sees many gateways at exactly equal distance.
_axis = st.integers(min_value=-2, max_value=2).map(lambda k: 25.0 * k)
points = st.builds(Position, _axis, _axis)
queries_at = st.one_of(points, st.just(Position(12.5, 12.5)))

_target = st.integers(min_value=0, max_value=63)
steps = st.one_of(
    st.tuples(
        st.sampled_from(["deploy", "fail", "retire", "degrade", "restore", "reorder"]),
        _target,
    ),
    st.tuples(st.just("append"), points),
)


def _gateway(sim, position):
    return OwnedGateway(
        sim,
        spec=ieee802154.default_spec(),
        path_loss=ieee802154.urban_path_loss(),
        position=position,
    )


def _apply(sim, population, step):
    """One topology transition on the population (``append`` grows it)."""
    op, arg = step
    if op == "append":
        gateway = _gateway(sim, arg)
        population.append(gateway)
        gateway.deploy()
        return
    gateway = population[arg % len(population)]
    if op == "deploy":
        if gateway.deployed_at is None:
            gateway.deploy()
    elif op == "fail":
        gateway.fail()
    elif op == "retire":
        gateway.retire()
    elif op == "degrade":
        gateway.force_degrade()
    elif op == "restore":
        gateway.restore_degrade()
    else:  # reorder: the provider lists this gateway last from now on
        population.remove(gateway)
        population.append(gateway)
        sim.topology_version += 1


def _distance_sq(gateway, position):
    dx = gateway.position.x - position.x
    dy = gateway.position.y - position.y
    return dx * dx + dy * dy


def _brute_force(provider, position, count):
    hearing = [g for g in provider() if g.hears()]
    ranked = sorted(
        range(len(hearing)), key=lambda i: (_distance_sq(hearing[i], position), i)
    )
    return [hearing[i] for i in ranked[:count]]


def _same(left, right):
    return [id(g) for g in left] == [id(g) for g in right]


def _setup(initial, deployed):
    sim = Simulation(seed=1)
    population = [_gateway(sim, position) for position in initial]
    for gateway, live in zip(population, deployed):
        if live:
            gateway.deploy()
    provider = lambda: [g for g in population if g.alive]  # noqa: E731
    return sim, population, provider, GatewayIndex(sim, provider, cell_size_m=30.0)


class TestGatewayIndexProperties:
    @given(
        initial=st.lists(points, min_size=1, max_size=16),
        deployed=st.lists(st.booleans(), min_size=16, max_size=16),
        script=st.lists(steps, min_size=1, max_size=25),
        queries=st.lists(queries_at, min_size=1, max_size=4),
        count=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_nearest_exact_and_reuse_never_wrong(
        self, initial, deployed, script, queries, count
    ):
        sim, population, provider, index = _setup(initial, deployed)
        # Per query point: one cache restamped on every acceptance (what
        # both engines do) and one kept at its original generation, so
        # the rule is also checked across many steps of change at once.
        restamped = []
        pinned = []
        for position in queries:
            fresh = index.nearest_hearing(position, count)
            restamped.append((index.generation, fresh))
            pinned.append((index.generation, fresh))
        for step in script:
            _apply(sim, population, step)
            for q, position in enumerate(queries):
                fresh = index.nearest_hearing(position, count)
                assert _same(fresh, _brute_force(provider, position, count))
                for caches in (restamped, pinned):
                    generation, cached = caches[q]
                    if index.still_nearest(cached, generation, position, count):
                        assert _same(cached, fresh)
                        if caches is restamped:
                            caches[q] = (index.generation, cached)
                    else:
                        caches[q] = (index.generation, fresh)

    @given(
        initial=st.lists(points, min_size=1, max_size=16),
        deployed=st.lists(st.booleans(), min_size=16, max_size=16),
        script=st.lists(steps, min_size=1, max_size=25),
        position=queries_at,
    )
    @settings(max_examples=100, deadline=None)
    def test_cohort_member_matches_edge_device(
        self, initial, deployed, script, position
    ):
        sim, population, provider, index = _setup(initial, deployed)
        spec = ieee802154.default_spec()
        common = dict(
            technology="802.15.4",
            spec=spec,
            airtime_s=ieee802154.airtime_s(24),
            report_interval=units.HOUR,
        )
        device = EdgeDevice(sim, position=position, **common)
        device.gateway_index = index
        cohort = DeviceCohort(sim, positions=[position], **common)
        cohort.gateway_index = index
        for step in [None, *script]:
            if step is not None:
                _apply(sim, population, step)
            expected = _brute_force(provider, position, MAX_LINKS_TRIED)
            for cached in (device.reusable_cache(), cohort.reusable_cache(0)):
                if cached is not None:
                    assert _same(cached, expected)
            member = cohort._candidates_for(0, index, index.refresh())
            assert _same(member, expected)
            assert _same(device.candidate_gateways(), expected)
            assert _same(device.fresh_candidates(), expected)
            assert _same(cohort.fresh_candidates(0), expected)
