import itertools
import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from profitmax.diffusion import (
    ENUMERATION_LIMIT,
    GEOMETRIC_P_CUTOFF,
    SAMPLE_INT_MAX,
    _ArcIndex,
    _gain_samples,
    _geometric_scale,
    _live_worlds,
    observe_until,
    sample_live_graphs,
)
from profitmax.graph import build_graph, exclude_nodes
from profitmax.rng import RandomSource


def chain(p=1.0, n=3):
    return build_graph([(i, i + 1, p) for i in range(n - 1)], directed=True)


def test_no_seeds_no_activation():
    obs = observe_until(chain(), [], 3, RandomSource(0).stream("s"))
    assert obs.already_active == obs.newly_active == frozenset()


def test_certain_edge_fires():
    g = build_graph([(0, 1, 1.0)], directed=True)
    steps = [observe_until(g, {0}, d, RandomSource(0).stream("s")) for d in range(3)]
    assert [obs.newly_active for obs in steps] == [frozenset({0}), frozenset({1}), frozenset()]
    assert steps[2].already_active == frozenset({0, 1})


def test_seed_outside_graph_rejected():
    g = chain()
    with pytest.raises(ValueError):
        observe_until(g, {7}, 1, RandomSource(0).stream("s"))
    view = exclude_nodes(g, {2})
    with pytest.raises(ValueError):
        observe_until(view, {2}, 1, RandomSource(0).stream("s"))


def test_single_edge_activation_frequency():
    # Bernoulli oracle: activation count of a lone p=0.5 arc over 100k runs
    g = build_graph([(0, 1, 0.5)], directed=True)
    src = RandomSource(20240501)
    n = 100_000
    hits = sum(
        1 in observe_until(g, {0}, 2, src.stream("rep", i)).already_active
        for i in range(n)
    )
    se = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * se


def test_observe_until_examples():
    g = chain(p=1.0)
    src = RandomSource(3)
    obs0 = observe_until(g, {0}, 0, src.stream("a"))
    assert obs0.already_active == obs0.newly_active == frozenset({0})
    obs1 = observe_until(g, {0}, 1, src.stream("b"))
    assert obs1.already_active == frozenset({0, 1})
    assert obs1.newly_active == frozenset({1})
    obs5 = observe_until(g, {0}, 5, src.stream("c"))
    assert obs5.already_active == frozenset({0, 1, 2})
    assert obs5.newly_active == frozenset()
    with pytest.raises(ValueError):
        observe_until(g, {0}, -1, src.stream("d"))


def test_frontier_fires_in_ascending_id_order():
    # step 1 reaches 3 before 2, yet 2 fires first at step 2: its arc takes the
    # stream's third draw and 3's arc the fourth (certain arcs draw too)
    g = build_graph([(0, 3, 1.0), (1, 2, 1.0), (2, 4, 0.5), (3, 5, 0.5)], directed=True)
    src = RandomSource(8)
    for i in range(20):
        rng = src.stream("order", i)
        draws = [rng.random() for _ in range(4)]
        obs = observe_until(g, {0, 1}, 2, src.stream("order", i))
        expected = {v for v, r in ((4, draws[2]), (5, draws[3])) if r < 0.5}
        assert obs.newly_active == frozenset(expected)
        assert obs.already_active == frozenset({0, 1, 2, 3} | expected)


def test_live_graph_enumeration():
    empty = build_graph([], directed=True)
    lives = list(_live_worlds(empty)[1])
    assert len(lives) == 1 and lives[0][1] == 1.0

    single = build_graph([(0, 1, 0.3)], directed=True)
    probs = sorted(prob for _, prob in _live_worlds(single)[1])
    assert probs == [pytest.approx(0.3), pytest.approx(0.7)]

    g3 = build_graph([(0, 1, 0.4), (1, 2, 0.6), (0, 2, 0.9)], directed=True)
    lives = list(_live_worlds(g3)[1])
    assert len(lives) == 8
    assert abs(sum(prob for _, prob in lives) - 1.0) < 1e-12


def test_enumeration_limit_refused():
    g = build_graph([(i, i + 1, 0.5) for i in range(ENUMERATION_LIMIT + 1)], directed=True)
    with pytest.raises(ValueError, match="enumeration limit"):
        _live_worlds(g)


def test_reachable_set_examples():
    # a live graph is a bitmask over g.arc_list(): 0 keeps no arc, all ones every arc
    g = chain(p=0.5, n=4)
    index = _ArcIndex(g)
    assert index.reach(0, [0]) == {0}
    assert index.reach(0b111, [0]) == {0, 1, 2, 3}

    diamond = build_graph([(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)], directed=True)
    arcs = diamond.arc_list()
    kept = sum(1 << i for i, (u, v, _) in enumerate(arcs) if (u, v) in {(0, 1), (1, 3)})
    assert _ArcIndex(diamond).reach(kept, [0]) == {0, 1, 3}


def test_identical_stream_identical_trace():
    g = build_graph([(0, 1, 0.4), (1, 2, 0.7), (2, 3, 0.2), (0, 3, 0.5)], directed=True)
    src = RandomSource(99)
    for d in range(5):
        first, second = (observe_until(g, {0}, d, src.stream("rep", 17)) for _ in range(2))
        assert first == second


def _exact_expected_spread(g, seeds):
    index, worlds = _live_worlds(g)
    return sum(prob * len(index.reach(mask, seeds)) for mask, prob in worlds)


def test_stepwise_process_matches_live_graph_distribution():
    # same distribution claim: mean spread of 200k cascades vs exact enumeration
    g = build_graph(
        [(0, 1, 0.5), (1, 2, 0.3), (2, 0, 0.8), (1, 3, 0.6), (3, 4, 0.4), (0, 4, 0.2)],
        directed=True,
    )
    exact = _exact_expected_spread(g, {0})
    src = RandomSource(1234)
    rng = src.stream("spread")
    n = 200_000
    sizes = [len(observe_until(g, {0}, g.base_node_count, rng).already_active) for _ in range(n)]
    mean = sum(sizes) / n
    var = sum((s - mean) ** 2 for s in sizes) / (n - 1)
    se = math.sqrt(var / n)
    assert abs(mean - exact) <= 3 * se


def test_sampling_modes_agree_with_enumeration():
    # identical-distribution claim for both arc-sampling strategies, each
    # reached through a graph that selects it: the same arcs at a uniform
    # p=0.1 take geometric gaps, and with one probability changed every arc
    # draws on its own
    arcs = [(i, j) for i in range(4) for j in range(4) if i < j]
    uniform = build_graph([(i, j, 0.1) for i, j in arcs], directed=True)
    mixed = build_graph([(i, j, 0.3 if (i, j) == (0, 1) else 0.1) for i, j in arcs],
                        directed=True)
    assert _geometric_scale(uniform) is not None
    assert _geometric_scale(mixed) is None
    src = RandomSource(77)
    n = 150_000
    for mode, g in (("geometric", uniform), ("bernoulli", mixed)):
        exact = _exact_expected_spread(g, {0}) - 1.0  # nodes activated beyond the seed
        ones = [1.0] * g.base_node_count
        samples = _gain_samples(g, ones, [0], n, src.stream(mode))
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        se = math.sqrt(var / n)
        assert abs(mean - exact) <= 3 * se, mode


def test_geometric_sampler_only_below_the_cutoff():
    def scale(*probs):
        return _geometric_scale(build_graph([(0, 1, probs[0]), (1, 2, probs[-1])],
                                            directed=True))

    below = math.nextafter(GEOMETRIC_P_CUTOFF, 0.0)
    assert scale(below) == 1.0 / math.log(1.0 - below)
    assert scale(GEOMETRIC_P_CUTOFF) is None
    assert scale(1.0) is None
    assert scale(0.1, 0.2) is None


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("probs, geometric", [((0.1,), True), ((0.6,), False),
                                              ((0.3, 0.6, 1.0), False)],
                         ids=["uniform-low", "uniform-high", "mixed"])
def test_a_view_samples_its_base_graph(probs, geometric, directed):
    # whatever a view removes, its sample is its base graph's, drawn from the
    # same stream; only the coverage built for the view restricts it to the view
    edges = [(u, v, probs[(u + v) % len(probs)]) for u in range(6) for v in range(u + 1, 6)]
    base = build_graph(edges, directed=directed)
    assert (_geometric_scale(base) is not None) == geometric
    view = exclude_nodes(base, {1, 4})
    nested = exclude_nodes(view, {0})
    R = 30
    drawn = sample_live_graphs(base, R, RandomSource(3).stream("snapshots"))
    assert drawn.offsets.typecode == drawn.targets.typecode == "i"
    assert (drawn.offsets, drawn.targets) == _per_copy_live_graphs(
        base, R, RandomSource(3).stream("snapshots"))
    # the removed nodes keep arcs in the base graph's sample
    heads = {y // R for y in drawn.targets}
    tails = {x // R for x in range(6 * R) if drawn.offsets[x] < drawn.offsets[x + 1]}
    assert {0, 1, 4} <= heads | tails
    for g in (view, nested):
        sample = sample_live_graphs(g, R, RandomSource(3).stream("snapshots"))
        assert sample.offsets.typecode == sample.targets.typecode == "i"
        assert sample.offsets == drawn.offsets and sample.targets == drawn.targets


class _FirstDraw(Exception):
    pass


class _StopAtFirstDraw:
    # a stream that ends the sampler at its first draw; with arcs out of node
    # 0 that comes before either array holds more than one entry
    def random(self):
        raise _FirstDraw


@pytest.mark.parametrize("probs", [(0.1,), (0.6,), (0.3, 0.6)],
                         ids=["geometric", "uniform-high", "mixed"])
def test_sample_too_large_for_four_bytes_refused_before_drawing(probs):
    # a complete directed graph on 3 nodes has 6 arcs: at the first count
    # only its arcs overflow, at the second its nodes too
    edges = [(u, v, probs[(u + v) % len(probs)]) for u in range(3) for v in range(3) if u != v]
    g = build_graph(edges, directed=True)
    view = exclude_nodes(g, {1})
    for h in (g, view):
        for R in (SAMPLE_INT_MAX // 6 + 1, SAMPLE_INT_MAX // 3 + 1):
            rnd = RandomSource(3).stream("snapshots")
            before = rnd.getstate()
            with pytest.raises(ValueError, match=f"above {SAMPLE_INT_MAX}$"):
                sample_live_graphs(h, R, rnd)
            assert rnd.getstate() == before
        # the largest count that fits is let through to its first draw
        with pytest.raises(_FirstDraw):
            sample_live_graphs(h, SAMPLE_INT_MAX // 6, _StopAtFirstDraw())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_fixpoint_cascade_matches_a_full_observation(seed):
    # one step loop: on a graph that draws per arc, a one-replication gain
    # sample and an observation watched to the fixpoint read the same stream
    # the same way, so they reach the same nodes
    rnd = random.Random(seed)
    n = rnd.randint(2, 9)
    edges = [(u, v, rnd.choice([0.3, 0.6, 1.0]))
             for u in range(n) for v in range(n) if u != v and rnd.random() < 0.35]
    g = build_graph(edges or [(0, n - 1, 0.5)], directed=rnd.random() < 0.5)
    if rnd.random() < 0.3:
        g = exclude_nodes(g, rnd.sample(g.nodes, rnd.randint(1, g.node_count - 1)))
    assert _geometric_scale(g) is None
    seeds = sorted(rnd.sample(g.nodes, rnd.randint(1, g.node_count)))
    # a distinct bit per node: the gain spells out the reached set
    bits = [1 << v for v in range(g.base_node_count)]
    gain, = _gain_samples(g, bits, seeds, 1, RandomSource(seed).stream("c"))
    reached = {v for v in range(g.base_node_count) if gain >> v & 1}
    obs = observe_until(g, seeds, g.base_node_count, RandomSource(seed).stream("c"))
    assert obs.already_active == frozenset(seeds) | reached
    assert obs.newly_active == frozenset()


graphs = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0.05, 1.0, allow_nan=False)),
    max_size=12,
).map(lambda es: [(u, v, p) for u, v, p in es if u != v])


@settings(max_examples=60, deadline=None)
@given(graphs, st.sets(st.integers(0, 5)), st.integers(0, 2 ** 31))
def test_trace_invariants(edges, seeds, seed):
    g = build_graph(edges, directed=True)
    seeds &= set(g.nodes)
    # one stream seed for every d: a longer watch extends a shorter one
    steps = [observe_until(g, seeds, d, RandomSource(seed).stream("t"))
             for d in range(g.base_node_count + 1)]
    assert steps[0].newly_active == frozenset(seeds)
    in_neighbors = {}
    for u, v, _ in g.arc_list():
        in_neighbors.setdefault(v, set()).add(u)
    for before, after in zip(steps, steps[1:]):
        assert before.already_active <= after.already_active
        assert after.newly_active == after.already_active - before.already_active
        for v in after.newly_active:
            assert in_neighbors.get(v, set()) & before.newly_active


def _stepwise_gain_samples(g, value, active0, replications, rnd):
    # the reference the estimator must match draw for draw: the per-arc
    # sampler runs a step-loop cascade per replication and sums what it
    # reached; the geometric one walks every step, the first too, node by node
    offsets, targets, probs, uniform = g._engine()
    scale = _geometric_scale(g)
    template = g._blocked_template()
    for s in active0:
        template[s] = 1
    samples = []
    rand = rnd.random
    if scale is None:
        for _ in range(replications):
            state = template[:]
            frontier = active0
            reached = []
            for _ in range(g.base_node_count):
                if not frontier:
                    break
                nxt = []
                for u in frontier:
                    for i in range(offsets[u], offsets[u + 1]):
                        v = targets[i]
                        if not state[v] and rand() < (uniform or probs[i]):
                            state[v] = 1
                            nxt.append(v)
                nxt.sort()
                reached += nxt
                frontier = nxt
            samples.append(sum(map(value.__getitem__, reached)))
        return samples
    for _ in range(replications):
        state = template[:]
        frontier = active0
        gain = 0
        while frontier:
            nxt = []
            need = int(math.log(1.0 - rand()) * scale)
            for u in frontier:
                i = offsets[u] + need
                end = offsets[u + 1]
                while i < end:
                    v = targets[i]
                    if not state[v]:
                        state[v] = 1
                        nxt.append(v)
                        gain += value[v]
                    i += 1 + int(math.log(1.0 - rand()) * scale)
                need = i - end
            nxt.sort()
            frontier = nxt
        samples.append(gain)
    return samples


def _per_copy_live_graphs(g, R, rnd):
    # the reference the live-graph sampler must match draw for draw: one
    # counter per flat id, arcs visited node-major, snapshot, adjacency order,
    # kept in 8-byte arrays
    offsets, targets, probs, uniform = g._engine()
    scale = _geometric_scale(g)
    n = g.base_node_count
    counts = [0] * (n * R)
    kept = array("q")
    rand = rnd.random
    if scale is not None:
        i = int(math.log(1.0 - rand()) * scale)
        for u in range(n):
            lo = offsets[u]
            d = offsets[u + 1] - lo
            span = d * R
            while i < span:
                r, k = divmod(i, d)
                counts[u * R + r] += 1
                kept.append(targets[lo + k] * R + r)
                i += 1 + int(math.log(1.0 - rand()) * scale)
            i -= span
    else:
        for u in range(n):
            arcs = [(targets[i], uniform or probs[i]) for i in range(offsets[u], offsets[u + 1])]
            for r in range(R):
                x = u * R + r
                for v, p in arcs:
                    if rand() < p:
                        counts[x] += 1
                        kept.append(v * R + r)
    return array("q", itertools.accumulate(counts, initial=0)), kept


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(["geometric", "uniform-high", "mixed"]),
       st.sampled_from(["empty", "some", "all"]))
def test_samplers_draw_as_the_step_loop(seed, probs, initial):
    # the same draws in the same order and number: equal samples, and the
    # stream's next draw equal after the call
    rnd = random.Random(seed)
    n = rnd.randint(2, 9)
    p = {"geometric": lambda: 0.2, "uniform-high": lambda: 0.6,
         "mixed": lambda: rnd.choice([0.3, 0.6, 1.0])}[probs]
    edges = [(u, v, p()) for u in range(n) for v in range(n)
             if u != v and rnd.random() < 0.5]
    g = build_graph(edges or [(0, n - 1, p())], directed=rnd.random() < 0.5)
    for _ in range(rnd.choice([0, 1, 2])):
        if g.node_count > 1:
            g = exclude_nodes(g, rnd.sample(g.nodes, rnd.randint(1, g.node_count - 1)))
    assert (_geometric_scale(g) is not None) == (probs == "geometric")
    if initial == "all":
        seeds, free = g.nodes, []
    elif initial == "some":
        seeds = rnd.sample(g.nodes, rnd.randint(1, g.node_count))
        # a free frontier joins the priced seeds in the initial active set
        free = rnd.sample(g.nodes, rnd.randint(0, g.node_count))
    else:
        seeds, free = [], []
    active0 = sorted(set(seeds) | set(free))
    value = [rnd.randint(1, 1000) for _ in range(g.base_node_count)]
    R = rnd.randint(1, 30)

    def after(call):
        rng = RandomSource(seed).stream("draws")
        return call(rng), rng.random()

    assert (after(lambda rng: _gain_samples(g, value, active0, R, rng))
            == after(lambda rng: _stepwise_gain_samples(g, value, active0, R, rng)))
    sample, next_draw = after(lambda rng: sample_live_graphs(g, R, rng))
    assert sample.offsets.typecode == sample.targets.typecode == "i"
    assert ((sample.offsets, sample.targets), next_draw) == after(
        lambda rng: _per_copy_live_graphs(g, R, rng))
