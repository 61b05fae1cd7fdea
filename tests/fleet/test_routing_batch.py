"""Vectorized routing vs the scalar references, property-tested.

`_water_fill` and `plan_origin_cells` were rewritten as array programs;
`_water_fill_scalar` / `_plan_origin_cells_scalar` below keep the original
per-cell loops as the semantic reference.  Agreement must be within
summation-order noise (<= 1e-9 relative, typically ~1e-14).

`plan_origin_cells` then moved its greedy phases from numpy scalars to
Python floats; `plan_origin_cells_numpy` keeps the all-numpy planner as
the oracle that move must match bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.routing import (
    RoutingContext,
    _ramp_envelope,
    _ramp_up_caps,
    _water_fill,
    plan_origin_cells,
)

RTOL = 1e-9


def _water_fill_scalar(ctx: RoutingContext, order: np.ndarray) -> np.ndarray:
    """The original one-region-at-a-time fill, kept as the reference
    implementation for :func:`_water_fill`'s equivalence property tests."""
    floors, caps = _ramp_envelope(ctx)
    rates = floors.copy()
    remaining = ctx.global_rate_per_s - float(rates.sum())
    for idx in order:
        if remaining <= 0.0:
            break
        room = max(0.0, float(caps[idx] - rates[idx]))
        take = min(remaining, room)
        rates[idx] += take
        remaining -= take
    if remaining > 0.0:
        headroom = np.maximum(ctx.capacity_rates - rates, 0.0)
        basis = headroom if headroom.sum() > 0 else ctx.nominal_rates
        rates = rates + remaining * basis / basis.sum()
    return rates


def _plan_origin_cells_scalar(
    ctx: RoutingContext,
    order: np.ndarray,
    origin_rates: np.ndarray,
    latency_ms: np.ndarray,
    user_targets_ms: np.ndarray,
    sla_rate_fn,
    measured_p95_ms: np.ndarray | None = None,
    prev_plan: np.ndarray | None = None,
    session_keep_frac: float = 0.0,
    resident_floor_share: float = 0.0,
) -> np.ndarray:
    """The original cell-by-cell ``place()`` implementation of
    :func:`plan_origin_cells`, kept verbatim as the reference for the
    vectorized version's equivalence property tests."""
    n_o, n_r = latency_ms.shape
    supply = np.asarray(origin_rates, dtype=np.float64).copy()
    plan = np.zeros((n_o, n_r))
    totals = np.zeros(n_r)
    caps = _ramp_up_caps(ctx, np.minimum(ctx.capacity_rates, ctx.sla_cap_rates))
    budgets = np.full(n_r, np.inf)

    def place(o: int, r: int, amount: float) -> float:
        take = min(supply[o], amount)
        if take <= 0.0:
            return 0.0
        plan[o, r] += take
        supply[o] -= take
        totals[r] += take
        pair_budget = user_targets_ms[r] - latency_ms[o, r]
        if pair_budget > 0.0:
            budgets[r] = min(budgets[r], pair_budget)
        return take

    if prev_plan is not None and session_keep_frac > 0.0:
        prev_rows = prev_plan.sum(axis=1)
        ratio = np.where(
            prev_rows > 0.0,
            np.minimum(1.0, supply / np.maximum(prev_rows, 1e-300)),
            0.0,
        )
        keep = prev_plan * ratio[:, None] * session_keep_frac
        tiny = 1e-3 * np.asarray(origin_rates, dtype=np.float64)
        for o in range(n_o):
            for r in range(n_r):
                if keep[o, r] > tiny[o]:
                    place(o, r, float(keep[o, r]))

    if resident_floor_share > 0.0:
        homes = np.argmin(latency_ms, axis=1)
        for o in range(n_o):
            floor = resident_floor_share * float(origin_rates[o])
            short = floor - plan[o, homes[o]]
            if short > 0.0:
                place(o, int(homes[o]), short)

    keep_alive = np.minimum(ctx.floor_rates, ctx.capacity_rates)
    for r in range(n_r):
        shortfall = float(keep_alive[r]) - totals[r]
        for o in np.argsort(latency_ms[:, r], kind="stable"):
            if shortfall <= 0.0:
                break
            shortfall -= place(int(o), r, shortfall)

    for r in order:
        for o in np.argsort(latency_ms[:, r], kind="stable"):
            o = int(o)
            if supply[o] <= 0.0:
                continue
            budget = min(budgets[r], user_targets_ms[r] - latency_ms[o, r])
            if budget <= 0.0:
                continue
            if (
                measured_p95_ms is not None
                and np.isfinite(measured_p95_ms[r])
                and measured_p95_ms[r] > budget
            ):
                continue
            cap = min(caps[r], sla_rate_fn(r, float(budget)))
            room = cap - totals[r]
            if room <= 0.0:
                continue
            place(o, r, room)

    if supply.sum() > 1e-12:
        for o in range(n_o):
            for r in np.argsort(latency_ms[o], kind="stable"):
                if supply[o] <= 0.0:
                    break
                room = ctx.capacity_rates[r] - totals[r]
                if room > 0.0:
                    place(o, int(r), room)
    leftover = float(supply.sum())
    if leftover > 1e-12:
        basis = ctx.nominal_rates / ctx.nominal_rates.sum()
        for o in range(n_o):
            if supply[o] > 0.0:
                amount = supply[o]
                plan[o] += amount * basis
                totals += amount * basis
                supply[o] = 0.0
    return plan


def plan_origin_cells_numpy(
    ctx: RoutingContext,
    order: np.ndarray,
    origin_rates: np.ndarray,
    latency_ms: np.ndarray,
    user_targets_ms: np.ndarray,
    sla_rate_fn,
    measured_p95_ms: np.ndarray | None = None,
    prev_plan: np.ndarray | None = None,
    session_keep_frac: float = 0.0,
    resident_floor_share: float = 0.0,
) -> np.ndarray:
    """:func:`plan_origin_cells` with every phase on numpy arrays and
    numpy scalars, as it ran before its greedy phases moved to Python
    floats; the bit-for-bit oracle for that move."""
    n_o, n_r = latency_ms.shape
    latency_ms = np.asarray(latency_ms, dtype=np.float64)
    user_targets_ms = np.asarray(user_targets_ms, dtype=np.float64)
    supply = np.asarray(origin_rates, dtype=np.float64).copy()
    plan = np.zeros((n_o, n_r))
    totals = np.zeros(n_r)
    caps = _ramp_up_caps(ctx, np.minimum(ctx.capacity_rates, ctx.sla_cap_rates))
    # The tightest service budget each region has committed to so far.
    # Only *meetable* budgets tighten it: a cell whose hop alone exceeds
    # the target violates at any rate — it is lost regardless of the
    # region's total, so it must not throttle the region's other streams.
    budgets = np.full(n_r, np.inf)

    def place(o: int, r: int, amount: float) -> float:
        take = min(supply[o], amount)
        if take <= 0.0:
            return 0.0
        plan[o, r] += take
        supply[o] -= take
        totals[r] += take
        pair_budget = user_targets_ms[r] - latency_ms[o, r]
        if pair_budget > 0.0:
            budgets[r] = min(budgets[r], pair_budget)
        return take

    # 1. Session retention: prior cells persist, scaled down with their
    # origin's demand (sessions end, they don't multiply), keep-fraction
    # bounded by how fast resident traffic can be drained away.  Cells
    # below a de-minimis share of their origin's demand are dropped —
    # otherwise a geometrically-decaying residue keeps a far cell alive
    # (and its tight budget throttling the region) for the whole run.
    # Whole-matrix placement: the keep matrix's row sums never exceed the
    # origin's supply (``ratio`` caps them at ``keep_frac * supply``), so
    # no cell is supply-limited and the per-cell ``place`` loop reduces
    # to masked array adds.  Region budgets tighten by the min eligible
    # pair budget — a min is placement-order-free.
    if prev_plan is not None and session_keep_frac > 0.0:
        prev_rows = prev_plan.sum(axis=1)
        ratio = np.where(
            prev_rows > 0.0,
            np.minimum(1.0, supply / np.maximum(prev_rows, 1e-300)),
            0.0,
        )
        keep = prev_plan * ratio[:, None] * session_keep_frac
        tiny = 1e-3 * np.asarray(origin_rates, dtype=np.float64)
        placed = np.where(keep > tiny[:, None], keep, 0.0)
        plan += placed
        supply = np.maximum(supply - placed.sum(axis=1), 0.0)
        totals += placed.sum(axis=0)
        pair_budgets = user_targets_ms[None, :] - latency_ms
        eligible = np.where(
            (placed > 0.0) & (pair_budgets > 0.0), pair_budgets, np.inf
        )
        budgets = np.minimum(budgets, eligible.min(axis=0))

    # 2. Data residency: a floor share of each origin stays at its
    # nearest region, whatever the policy prefers.  Each origin touches
    # one distinct (origin, home) cell, so the per-origin loop is a
    # single gather/scatter.
    if resident_floor_share > 0.0:
        homes = np.argmin(latency_ms, axis=1)
        rows = np.arange(n_o)
        floor = resident_floor_share * np.asarray(origin_rates, dtype=np.float64)
        take = np.clip(floor - plan[rows, homes], 0.0, supply)
        plan[rows, homes] += take
        supply = supply - take
        np.add.at(totals, homes, take)
        pair_budgets = user_targets_ms[homes] - latency_ms[rows, homes]
        eligible = (take > 0.0) & (pair_budgets > 0.0)
        np.minimum.at(budgets, homes[eligible], pair_budgets[eligible])

    # 2b. Keep-alive floors: a region that is nobody's home (two regions
    # in one zone) could otherwise be planned to exactly zero on the
    # first epoch, and a zero-rate region has no defined service
    # measurement.  Draw up to the context's per-region floor from the
    # nearest origins — nearest-first keeps the draw SLA-cheap.
    keep_alive = np.minimum(ctx.floor_rates, ctx.capacity_rates)
    near_origins = np.argsort(latency_ms, axis=0, kind="stable")
    for r in range(n_r):
        shortfall = float(keep_alive[r]) - totals[r]
        for o in near_origins[:, r]:
            if shortfall <= 0.0:
                break
            shortfall -= place(int(o), r, shortfall)

    # 3. Policy fill: regions in preference order, near origins first.
    for r in order:
        for o in near_origins[:, r]:
            o = int(o)
            if supply[o] <= 0.0:
                continue
            budget = min(budgets[r], user_targets_ms[r] - latency_ms[o, r])
            if budget <= 0.0:
                continue  # this pair can never meet the SLA
            if (
                measured_p95_ms is not None
                and np.isfinite(measured_p95_ms[r])
                and measured_p95_ms[r] > budget
            ):
                continue  # the measured tail already blows this budget
            cap = min(caps[r], sla_rate_fn(r, float(budget)))
            room = cap - totals[r]
            if room <= 0.0:
                continue
            place(o, r, room)

    # 4. Conservation spill: capacity headroom in latency order, then
    # proportional to nominal rates.
    if supply.sum() > 1e-12:
        for o in range(n_o):
            for r in np.argsort(latency_ms[o], kind="stable"):
                if supply[o] <= 0.0:
                    break
                room = ctx.capacity_rates[r] - totals[r]
                if room > 0.0:
                    place(o, int(r), room)
    leftover = float(supply.sum())
    if leftover > 1e-12:
        basis = ctx.nominal_rates / ctx.nominal_rates.sum()
        for o in range(n_o):
            if supply[o] > 0.0:
                amount = supply[o]
                plan[o] += amount * basis
                totals += amount * basis
                supply[o] = 0.0
    return plan


def make_ctx(
    ci=(300.0, 150.0, 40.0),
    pue=None,
    latency=(5.0, 20.0, 40.0),
    nominal=(30.0, 30.0, 30.0),
    capacity=None,
    sla_caps=None,
    floor_share=0.05,
    global_rate=None,
):
    n = len(ci)
    nominal = np.asarray(nominal, dtype=np.float64)
    return RoutingContext(
        t_h=0.0,
        global_rate_per_s=(
            float(nominal.sum()) if global_rate is None else global_rate
        ),
        ci=np.asarray(ci, dtype=np.float64),
        pue=np.asarray(pue if pue is not None else [1.5] * n),
        net_latency_ms=np.asarray(latency, dtype=np.float64),
        nominal_rates=nominal,
        capacity_rates=np.asarray(
            capacity if capacity is not None else nominal * 1.3
        ),
        sla_cap_rates=np.asarray(
            sla_caps if sla_caps is not None else [np.inf] * n
        ),
        floor_rates=floor_share * nominal,
    )


region_counts = st.integers(min_value=1, max_value=6)


@st.composite
def fill_contexts(draw):
    n = draw(region_counts)
    nominal = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    ci = draw(
        st.lists(
            st.floats(min_value=10.0, max_value=500.0),
            min_size=n,
            max_size=n,
        )
    )
    cap_mult = draw(st.floats(min_value=1.0, max_value=2.0))
    # Spans under-, exactly- and over-subscribed fills (spill path).
    load_frac = draw(st.floats(min_value=0.1, max_value=1.8))
    sla_frac = draw(st.one_of(st.none(), st.floats(0.3, 1.5)))
    nominal_arr = np.asarray(nominal)
    caps = cap_mult * nominal_arr
    ctx = make_ctx(
        ci=ci,
        latency=np.linspace(5.0, 50.0, n),
        nominal=nominal_arr,
        capacity=caps,
        sla_caps=None if sla_frac is None else sla_frac * caps,
        floor_share=draw(st.floats(min_value=0.0, max_value=0.2)),
        global_rate=load_frac * float(caps.sum()),
    )
    return ctx


class TestWaterFill:
    @given(ctx=fill_contexts(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar(self, ctx, seed):
        order = np.random.default_rng(seed).permutation(len(ctx.ci))
        vec = _water_fill(ctx, order)
        ref = _water_fill_scalar(ctx, order)
        np.testing.assert_allclose(vec, ref, rtol=RTOL, atol=1e-12)

    def test_single_region_bitwise(self):
        ctx = make_ctx(
            ci=(200.0,), latency=(0.0,), nominal=(37.0,), global_rate=31.5
        )
        order = np.array([0])
        assert list(_water_fill(ctx, order)) == list(
            _water_fill_scalar(ctx, order)
        )

    def test_overload_spills_like_scalar(self):
        ctx = make_ctx(global_rate=1e4)
        order = np.argsort(ctx.ci, kind="stable")
        vec = _water_fill(ctx, order)
        ref = _water_fill_scalar(ctx, order)
        np.testing.assert_allclose(vec, ref, rtol=RTOL)
        assert vec.sum() == pytest.approx(1e4, rel=1e-12)


@st.composite
def cell_problems(draw):
    n_r = draw(st.integers(min_value=1, max_value=4))
    n_o = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    origin_rates = rng.uniform(0.0, 20.0, n_o)
    if draw(st.booleans()):
        origin_rates[rng.integers(0, n_o)] = 0.0  # zero-demand origin
    latency = rng.uniform(1.0, 120.0, (n_o, n_r))
    targets = rng.uniform(60.0, 250.0, n_r)
    nominal = rng.uniform(5.0, 40.0, n_r)
    load_frac = draw(st.floats(min_value=0.2, max_value=1.6))
    cap_scale = draw(st.floats(min_value=0.3, max_value=2.0))
    ctx = make_ctx(
        ci=rng.uniform(20.0, 400.0, n_r),
        latency=rng.uniform(1.0, 40.0, n_r),
        nominal=nominal,
        capacity=cap_scale * nominal * 1.5,
        global_rate=max(float(origin_rates.sum()), 1e-9),
    )
    rate_scale = draw(st.floats(min_value=0.2, max_value=2.0))

    def sla_rate_fn(r, budget_ms):
        # Deterministic, budget-monotone admissible-rate oracle.
        return rate_scale * nominal[r] * min(1.0, budget_ms / 100.0)

    measured = (
        rng.uniform(20.0, 200.0, n_r) if draw(st.booleans()) else None
    )
    keep = draw(st.floats(min_value=0.0, max_value=1.0))
    floor = draw(st.floats(min_value=0.0, max_value=0.3))
    prev = rng.uniform(0.0, 10.0, (n_o, n_r)) if draw(st.booleans()) else None
    del load_frac
    return (
        ctx, origin_rates, latency, targets, sla_rate_fn,
        measured, prev, keep, floor,
    )


class TestPlanOriginCells:
    @given(problem=cell_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, problem):
        (
            ctx, origin_rates, latency, targets, sla_rate_fn,
            measured, prev, keep, floor,
        ) = problem
        order = np.argsort(ctx.ci, kind="stable")
        vec = plan_origin_cells(
            ctx, order, origin_rates, latency, targets, sla_rate_fn,
            measured_p95_ms=measured, prev_plan=prev,
            session_keep_frac=keep, resident_floor_share=floor,
        )
        ref = _plan_origin_cells_scalar(
            ctx, order, origin_rates, latency, targets, sla_rate_fn,
            measured_p95_ms=measured, prev_plan=prev,
            session_keep_frac=keep, resident_floor_share=floor,
        )
        np.testing.assert_allclose(vec, ref, rtol=RTOL, atol=1e-12)
        # Conservation: row sums equal origin demand on both paths.
        np.testing.assert_allclose(
            vec.sum(axis=1), origin_rates, rtol=1e-9, atol=1e-9
        )

    def test_zero_demand_everywhere(self):
        ctx = make_ctx()
        order = np.argsort(ctx.ci, kind="stable")
        origin_rates = np.zeros(4)
        latency = np.full((4, 3), 10.0)
        targets = np.full(3, 150.0)
        vec = plan_origin_cells(
            ctx, order, origin_rates, latency, targets,
            lambda r, b: 100.0,
        )
        ref = _plan_origin_cells_scalar(
            ctx, order, origin_rates, latency, targets,
            lambda r, b: 100.0,
        )
        assert (vec == 0.0).all()
        np.testing.assert_array_equal(vec, ref)

    def test_overload_spill_matches_scalar(self):
        """Demand far past every region's cap exercises the spill phase."""
        ctx = make_ctx(global_rate=1e4)
        order = np.argsort(ctx.ci, kind="stable")
        origin_rates = np.full(5, 2e3)
        latency = np.linspace(5.0, 80.0, 15).reshape(5, 3)
        targets = np.full(3, 120.0)
        vec = plan_origin_cells(
            ctx, order, origin_rates, latency, targets,
            lambda r, b: 20.0 * min(1.0, b / 100.0),
        )
        ref = _plan_origin_cells_scalar(
            ctx, order, origin_rates, latency, targets,
            lambda r, b: 20.0 * min(1.0, b / 100.0),
        )
        np.testing.assert_allclose(vec, ref, rtol=RTOL)
        np.testing.assert_allclose(vec.sum(axis=1), origin_rates, rtol=1e-12)

    def test_single_region_matches_scalar_bitwise(self):
        ctx = make_ctx(ci=(200.0,), latency=(5.0,), nominal=(40.0,))
        order = np.array([0])
        origin_rates = np.array([7.0, 11.0, 0.0])
        latency = np.array([[10.0], [60.0], [140.0]])
        targets = np.array([150.0])
        args = (
            ctx, order, origin_rates, latency, targets,
            lambda r, b: 40.0 * min(1.0, b / 100.0),
        )
        vec = plan_origin_cells(*args)
        ref = _plan_origin_cells_scalar(*args)
        assert vec.tolist() == ref.tolist()  # exact


@st.composite
def oracle_cell_problems(draw):
    """Cell problems up to 12 x 12 at the planner's edges: latency ties,
    pairs no budget can meet, infinite SLA caps, ramp caps from previous
    shares, prior plans with zero and sub-de-minimis cells, non-finite
    measurements, and zero or positive keep and floor shares.  From eight
    cells on, numpy's row and column sums run pairwise."""
    n_o = draw(st.integers(min_value=1, max_value=12))
    n_r = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    origin_rates = rng.uniform(0.0, 20.0, n_o)
    if draw(st.booleans()):
        origin_rates[rng.random(n_o) < 0.3] = 0.0
    latency = rng.uniform(1.0, 150.0, (n_o, n_r))
    if draw(st.booleans()):
        latency = latency.round(-1)  # ties between origins and regions
    targets = rng.uniform(40.0, 250.0, n_r)  # some pairs unmeetable
    nominal = rng.uniform(5.0, 40.0, n_r)
    cap_scale = draw(st.floats(min_value=0.1, max_value=2.0))
    sla_caps = rng.uniform(0.2, 1.5, n_r) * nominal
    sla_caps[rng.random(n_r) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = np.inf
    ctx = make_ctx(
        ci=rng.uniform(20.0, 400.0, n_r),
        latency=rng.uniform(1.0, 40.0, n_r),
        nominal=nominal,
        capacity=cap_scale * nominal * 1.5,
        sla_caps=sla_caps,
        floor_share=draw(st.sampled_from([0.0, 0.05, 0.5])),
        global_rate=max(float(origin_rates.sum()), 1e-9),
    )
    if draw(st.booleans()):
        prev_shares = rng.dirichlet(np.ones(n_r))
        ctx = replace(
            ctx,
            prev_shares=prev_shares,
            max_ramp_share=draw(st.floats(min_value=0.01, max_value=1.0)),
        )
    rate_scale = draw(st.floats(min_value=0.1, max_value=2.0))

    def sla_rate_fn(r, budget_ms):
        return rate_scale * nominal[r] * min(1.0, budget_ms / 100.0)

    measured = None
    if draw(st.booleans()):
        measured = rng.uniform(20.0, 250.0, n_r)
        pick = rng.random(n_r)
        measured[pick < 0.2] = np.nan
        measured[(pick >= 0.2) & (pick < 0.4)] = np.inf
    prev = None
    if draw(st.booleans()):
        prev = rng.uniform(0.0, 15.0, (n_o, n_r))
        pick = rng.random((n_o, n_r))
        prev[pick < 0.25] = 0.0
        # Cells that survive the keep fraction below the de-minimis share.
        prev[(pick >= 0.25) & (pick < 0.5)] *= 1e-5
    keep = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    floor = draw(st.sampled_from([0.0, 0.05, 0.25, 1.0]))
    order = rng.permutation(n_r)
    return (
        ctx, order, origin_rates, latency, targets, sla_rate_fn,
        measured, prev, keep, floor,
    )


class TestPlanOriginCellsMatchesNumpy:
    """The greedy phases on Python floats equal the all-numpy planner
    bit for bit, signs of zero included."""

    @given(problem=oracle_cell_problems())
    @settings(max_examples=300, deadline=None)
    def test_plans_bit_for_bit(self, problem):
        (
            ctx, order, origin_rates, latency, targets, sla_rate_fn,
            measured, prev, keep, floor,
        ) = problem
        kwargs = dict(
            measured_p95_ms=measured, prev_plan=prev,
            session_keep_frac=keep, resident_floor_share=floor,
        )
        got = plan_origin_cells(
            ctx, order, origin_rates, latency, targets, sla_rate_fn, **kwargs
        )
        ref = plan_origin_cells_numpy(
            ctx, order, origin_rates, latency, targets, sla_rate_fn, **kwargs
        )
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_shared_home_accumulates_in_origin_order(self):
        """Three origins whose nearest region is the same one: the floor
        shares add up at that region in origin order."""
        ctx = make_ctx(ci=(100.0, 300.0), latency=(5.0, 9.0), nominal=(20.0, 20.0))
        args = (
            ctx, np.array([1, 0]), np.array([0.1, 7.3, 1e-3]),
            np.array([[3.0, 9.0], [3.0, 9.0], [2.0, 5.0]]),
            np.array([100.0, 100.0]),
            lambda r, b: 0.5,
        )
        got = plan_origin_cells(*args, resident_floor_share=0.3)
        ref = plan_origin_cells_numpy(*args, resident_floor_share=0.3)
        assert got.tobytes() == ref.tobytes()
