"""The POP driver: the optimize → check → execute → re-optimize loop.

This is the paper's Figure 3 architecture.  One :meth:`PopDriver.run` call
performs the initial optimization, inserts checkpoints, executes, and — each
time a CHECK fires — harvests feedback and intermediate results, re-invokes
the optimizer, and re-executes, oscillating up to the configured
re-optimization limit.  The final attempt always runs without checkpoints so
termination is guaranteed (paper §7's heuristic).

Rows already pipelined to the application before an ECDC check fired are
compensated with an anti-join on the next attempt, so the application never
observes duplicates (paper §3.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.analysis.plan_lint import LintContext, assert_plan_clean
from repro.common.errors import ExecutionError, ReproError, failure_class
from repro.core.config import PopConfig
from repro.core.feedback import CardinalityFeedback
from repro.core.intermediates import harvest_execution_state
from repro.core.placement import place_checkpoints
from repro.executor.base import (
    CheckpointEvent,
    ExecutionContext,
    ReoptimizationSignal,
)
from repro.executor.meter import WorkMeter
from repro.executor.runtime import run_plan
from repro.obs import ProfileCollector, wall_clock
from repro.optimizer.fingerprint import plan_fingerprint
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.parametric import PeekingSelectivity
from repro.plan.explain import explain_plan, join_order
from repro.plan.logical import Query
from repro.plan.physical import AntiJoin, MVScan, PlanOp, Return, find_ops
from repro.resilience import FALLBACK, RAISE, ExecutionGuard, FaultInjector
from repro.storage.catalog import TempMVRegistry

#: Harvest configuration for completed runs: feedback only, no temp MVs.
_FEEDBACK_ONLY = PopConfig(reuse_policy="never")

#: Operators whose output cardinality is not an estimate of a relational
#: edge (checkpoints count, RETURN may be LIMIT-cut, ...) — excluded from
#: the q-error histogram.
_QERROR_EXCLUDED = frozenset({"CHECK", "BUFCHECK", "RETURN", "ANTIJOIN"})


def record_qerrors(metrics, plan: PlanOp, actual_cards: dict) -> None:
    """Feed per-operator |estimated/actual| into ``estimate.error.qerror``.

    Only operators that reached end-of-stream contribute (their counts are
    exact cardinalities, the same eligibility rule the feedback store uses).
    """
    for op in find_ops(plan, PlanOp):
        if op.KIND in _QERROR_EXCLUDED or op.op_id is None:
            continue
        actual = actual_cards.get(op.op_id)
        if actual is None or not actual[1]:
            continue
        est = max(float(op.est_card), 1.0)
        act = max(float(actual[0]), 1.0)
        metrics.observe("estimate.error.qerror", max(est / act, act / est))


def _collect_actuals(ctx: ExecutionContext) -> dict:
    """Snapshot per-operator runtime counters for EXPLAIN ANALYZE."""
    actuals = {}
    for op in ctx.operators:
        if op.plan.op_id is not None:
            actuals[op.plan.op_id] = (op.rows_out, op.eof_seen)
    return actuals


@dataclass
class AttemptReport:
    """What happened during one optimize+execute round."""

    plan: PlanOp
    plan_text: str
    join_order: str
    checkpoints_placed: int
    optimization_units: float
    execution_units: float
    checkpoint_events: list = field(default_factory=list)
    reused_mvs: list = field(default_factory=list)
    #: Set when this attempt ended in a re-optimization signal.
    signal_op_id: Optional[int] = None
    signal_flavor: Optional[str] = None
    signal_observed: Optional[float] = None
    signal_complete: Optional[bool] = None
    signal_reason: Optional[str] = None
    rows_emitted: int = 0
    #: op_id -> (rows emitted, reached end-of-stream) observed at runtime;
    #: feeds EXPLAIN ANALYZE (estimated vs actual per operator).
    actual_cards: dict = field(default_factory=dict)
    #: Set when this attempt ended in a classified failure (guard path).
    failure: Optional[str] = None
    failure_class: Optional[str] = None
    #: True for the conservative safe plan run after the guard gave up.
    fallback: bool = False
    #: True when this attempt re-executed a cached plan (optimizer skipped).
    cache_hit: bool = False
    #: Fingerprint of the reused cached plan.
    cache_fingerprint: Optional[str] = None
    #: The admission test that justified reuse: one dict per evaluated
    #: validity/CHECK range (all ``inside`` by construction on a hit).
    cache_admission: Optional[list] = None
    #: Memory-governor accounting: whether any operator degraded to disk,
    #: how much (in modeled pages / spill files), and which operator kinds.
    spilled: bool = False
    spill_pages: float = 0.0
    spill_files: int = 0
    spill_bytes: int = 0
    spill_categories: dict = field(default_factory=dict)
    spilled_operators: list = field(default_factory=list)
    #: Times the governor renegotiated this statement's reservation down
    #: during the attempt, and the reservation size when it ended.
    renegotiations: int = 0
    reservation_pages: Optional[float] = None
    #: Per-operator :class:`repro.obs.OpProfile` list when the statement
    #: ran with profiling enabled (``None`` otherwise — zero cost off).
    profiles: Optional[list] = None
    #: Sum of exclusive profile units; reconciles with ``execution_units``
    #: (the profile-smoke CI gate holds them within 1%).
    profile_self_units: float = 0.0

    @property
    def reoptimized(self) -> bool:
        return self.signal_op_id is not None


@dataclass
class PopReport:
    """Full account of one statement execution under POP."""

    attempts: list
    total_units: float
    wall_seconds: float
    pop_enabled: bool
    #: Resilience accounting (zeros when no guard/faults were configured).
    retries: int = 0
    backoff_units: float = 0.0
    breaker_tripped: bool = False
    fallback_used: bool = False
    fallback_reason: Optional[str] = None
    faults_injected: int = 0

    @property
    def reoptimizations(self) -> int:
        return sum(1 for a in self.attempts if a.reoptimized)

    @property
    def spilled(self) -> bool:
        """True when any attempt degraded to disk under memory pressure."""
        return any(a.spilled for a in self.attempts)

    @property
    def spill_pages(self) -> float:
        return sum(a.spill_pages for a in self.attempts)

    @property
    def spill_files(self) -> int:
        return sum(a.spill_files for a in self.attempts)

    @property
    def spill_bytes(self) -> int:
        return sum(a.spill_bytes for a in self.attempts)

    @property
    def renegotiations(self) -> int:
        return sum(a.renegotiations for a in self.attempts)

    @property
    def cache_hit(self) -> bool:
        """True when any attempt re-executed a cached plan."""
        return any(a.cache_hit for a in self.attempts)

    @property
    def profiled(self) -> bool:
        """True when any attempt carried the live profiler."""
        return any(a.profiles is not None for a in self.attempts)

    @property
    def profile_self_units(self) -> float:
        """Exclusive profile units summed across attempts."""
        return sum(a.profile_self_units for a in self.attempts)

    @property
    def op_profiles(self) -> list:
        """Every attempt's operator profiles, flattened in attempt order."""
        profiles: list = []
        for attempt in self.attempts:
            if attempt.profiles:
                profiles.extend(attempt.profiles)
        return profiles

    @property
    def final_plan(self) -> PlanOp:
        return self.attempts[-1].plan

    @property
    def checkpoint_events(self) -> list:
        events: list[CheckpointEvent] = []
        for attempt in self.attempts:
            events.extend(attempt.checkpoint_events)
        return events

    def summary(self) -> str:
        lines = [
            f"POP {'on' if self.pop_enabled else 'off'}: "
            f"{len(self.attempts)} attempt(s), "
            f"{self.reoptimizations} re-optimization(s), "
            f"{self.total_units:.1f} work units",
        ]
        for i, a in enumerate(self.attempts):
            if a.reoptimized:
                tag = (
                    f" -> reopt at CHECK[{a.signal_flavor}] op={a.signal_op_id} "
                    f"observed={a.signal_observed:.0f}"
                )
            elif a.failure is not None:
                tag = f" -> failed[{a.failure_class}]"
            else:
                tag = " -> completed"
            label = "fallback" if a.fallback else f"attempt {i}"
            lines.append(
                f"  {label}: {a.join_order} "
                f"(exec {a.execution_units:.1f}u, opt {a.optimization_units:.1f}u)"
                + tag
            )
        if self.spilled:
            lines.append(
                f"  memory: spilled {self.spill_pages:.1f} page(s) across "
                f"{self.spill_files} file(s), "
                f"{self.renegotiations} renegotiation(s)"
            )
        if self.profiled:
            lines.append(
                f"  profile: {len(self.op_profiles)} operator(s), "
                f"{self.profile_self_units:.1f}u self time attributed"
            )
        if self.retries or self.breaker_tripped or self.fallback_used:
            detail = f"  resilience: {self.retries} retry(ies)"
            if self.backoff_units:
                detail += f", {self.backoff_units:.1f}u backoff"
            if self.breaker_tripped:
                detail += ", breaker tripped"
            if self.fallback_used:
                detail += f", safe-plan fallback ({self.fallback_reason})"
            lines.append(detail)
        return "\n".join(lines)


class PopDriver:
    """Runs statements with progressive optimization."""

    def __init__(
        self,
        optimizer: Optimizer,
        config: Optional[PopConfig] = None,
        lc_above_hash_build: bool = False,
        tracer=None,
        metrics=None,
        profile: bool = False,
        progress=None,
    ):
        self.optimizer = optimizer
        self.catalog = optimizer.catalog
        self.config = config if config is not None else PopConfig()
        self.lc_above_hash_build = lc_above_hash_build
        #: Optional :class:`repro.obs.Tracer` — one span per statement,
        #: attempt, optimizer call, placement pass, and execution; events
        #: for CHECK evaluations, re-optimization signals, and harvests.
        self.tracer = tracer
        #: Optional :class:`repro.obs.MetricsRegistry`.
        self.metrics = metrics
        #: When True, every attempt runs with a fresh
        #: :class:`repro.obs.ProfileCollector` and its per-operator
        #: profiles land on the :class:`AttemptReport`.
        self.profile = profile
        #: Optional :class:`repro.obs.ProgressEstimator`, fed the chosen
        #: plan's work budget per attempt and every CHECK evaluation.
        self.progress = progress

    # ------------------------------------------------------------------- run

    def run(
        self,
        query: Query,
        params: Optional[dict[str, Any]] = None,
        meter: Optional[WorkMeter] = None,
        feedback: Optional[CardinalityFeedback] = None,
        faults=None,
        plan_cache=None,
        statement=None,
        reservation=None,
        cancel=None,
        snapshot=None,
    ) -> tuple[list[tuple], PopReport]:
        """Execute ``query`` and return (rows, report).

        ``feedback`` may be pre-seeded (cross-query learning, §7); the
        driver mutates it with everything observed during this statement.
        ``faults`` is an optional :class:`repro.resilience.FaultPlan`; when
        given (or when ``config.resilience`` is set) attempts run under the
        execution guard: classified failures retry with backoff, and
        exhausted retries / blown deadlines / a tripped re-optimization
        breaker divert to the safe-plan fallback.

        ``plan_cache`` / ``statement`` engage the validity-range-aware plan
        cache (:mod:`repro.cache`): ``statement`` is the
        :class:`~repro.sql.parameterize.ParameterizedStatement` whose bound
        query is ``query``.  The first round probes the cache (admission =
        cached validity ranges evaluated at fresh estimates for
        ``statement.params``); on a hit the optimizer is skipped and the
        cached plan re-executed verbatim; on a miss the statement is
        optimized with bind-value peeking and the successful plan installed.

        ``reservation`` is this statement's admitted slice of the memory
        governor's budget (:class:`repro.governor.Reservation`, acquired
        and released by ``Database.execute``); with ``config.memory`` set
        it caps every operator grant and enables spill-based degradation.

        ``cancel`` is an optional :class:`~repro.common.cancel.CancelToken`
        polled at every CHECK point, emit site, and blocking-phase loop;
        once set, the statement unwinds with
        :class:`~repro.common.errors.ExecutionCancelled` and every spill
        file and reservation is released on the way out.

        ``snapshot`` is an optional :class:`repro.txn.Snapshot`: every
        attempt (including retries, re-optimization rounds, and the safe
        fallback) scans at the same pinned commit epoch, so concurrent
        commits never shift row-sets mid-statement.
        """
        config = self.config
        cost_model = self.optimizer.cost_model
        tracer = self.tracer
        metrics = self.metrics
        if meter is None:
            meter = WorkMeter(track_categories=metrics is not None)
        feedback = feedback if feedback is not None else CardinalityFeedback()
        reopt_limit = config.reopt_limit_for(query)
        compensation: Counter = Counter()
        delivered: list[tuple] = []
        attempts: list[AttemptReport] = []
        injector = FaultInjector(faults) if faults is not None else None
        guard = None
        if config.resilience is not None or injector is not None:
            guard = ExecutionGuard(
                config.resilience, meter=meter, tracer=tracer, metrics=metrics
            )
        started = wall_clock()
        stmt_span = None
        if tracer is not None:
            tracer.bind_meter(meter)
            stmt_span = tracer.start_span(
                "pop.statement",
                pop=config.enabled,
                tables=len(query.tables),
                reopt_limit=reopt_limit,
                guarded=guard is not None,
            )
        if metrics is not None:
            metrics.inc("pop.statements")
        if guard is not None:
            guard.begin_statement(injector, self.catalog)
        try:
            delivered = self._run_guarded(
                query,
                params,
                meter,
                feedback,
                config,
                cost_model,
                reopt_limit,
                compensation,
                attempts,
                guard,
                injector,
                stmt_span,
                plan_cache,
                statement,
                reservation,
                cancel,
                snapshot,
            )
        finally:
            if guard is not None:
                guard.end_statement()
        wall = wall_clock() - started
        if metrics is not None:
            metrics.inc("pop.attempts", len(attempts))
            for category, units in meter.by_category().items():
                metrics.set_gauge("work.units", units, category=category)
        if tracer is not None:
            tracer.end_span(
                stmt_span,
                attempts=len(attempts),
                reoptimizations=sum(1 for a in attempts if a.reoptimized),
                total_units=meter.snapshot(),
                rows=len(delivered),
                retries=guard.retries if guard is not None else 0,
                fallback=(
                    guard.fallback_reason is not None
                    if guard is not None
                    else False
                ),
            )
        return delivered, PopReport(
            attempts=attempts,
            total_units=meter.snapshot(),
            wall_seconds=wall,
            pop_enabled=config.enabled,
            retries=guard.retries if guard is not None else 0,
            backoff_units=(
                guard.backoff_units_charged if guard is not None else 0.0
            ),
            breaker_tripped=(
                guard.breaker_tripped if guard is not None else False
            ),
            fallback_used=(
                guard.fallback_reason is not None if guard is not None else False
            ),
            fallback_reason=(
                guard.fallback_reason if guard is not None else None
            ),
            faults_injected=len(injector.fired) if injector is not None else 0,
        )

    def _run_guarded(
        self,
        query: Query,
        params,
        meter: WorkMeter,
        feedback: CardinalityFeedback,
        config: PopConfig,
        cost_model,
        reopt_limit: int,
        compensation: Counter,
        attempts: list,
        guard,
        injector,
        stmt_span,
        plan_cache=None,
        statement=None,
        reservation=None,
        cancel=None,
        snapshot=None,
    ) -> list[tuple]:
        """The optimize/execute loop of :meth:`run` (Figure 3), guarded."""
        tracer = self.tracer
        metrics = self.metrics
        delivered: list[tuple] = []
        #: ``attempt`` indexes reports; ``reopt_round`` consumes the
        #: re-optimization budget.  Guard retries advance only the former,
        #: so a transient crash never eats a CHECK's re-planning round.
        attempt = 0
        reopt_round = 0
        #: Bind-value peeking: cached-path statements are optimized at
        #: their actual parameter values, so plans and validity ranges are
        #: tailored to them (and the admission test has teeth).
        peek = None
        if statement is not None and statement.params:
            peek = PeekingSelectivity(
                statement.params, base=self.optimizer.selectivity
            )
        #: The cache is probed only on the very first round: later rounds
        #: exist because runtime knowledge invalidated the plan in hand,
        #: which a cached plan cannot survive either.
        probe_cache = plan_cache is not None and statement is not None
        #: Statement-scoped optimizer state, never written to the shared
        #: optimizer: the reuse policy's options, and the temp MVs this
        #: statement's re-optimization rounds harvest (paper §2.3) — they
        #: die with the statement, so concurrent statements can neither
        #: match nor drop each other's intermediates.
        options = replace(
            self.optimizer.options,
            consider_mvs=config.reuse_policy != "never",
            mv_cost_zero=config.reuse_policy == "always",
        )
        temp_mvs = TempMVRegistry()
        while True:
            attempt_span = (
                tracer.start_span("pop.attempt", parent=stmt_span, attempt=attempt)
                if tracer is not None
                else None
            )
            units_before_opt = meter.snapshot()
            can_reopt = config.enabled and reopt_round < reopt_limit
            cached = None
            if probe_cache:
                probe_cache = False
                cached = self._cache_lookup(
                    plan_cache, statement, query, config, feedback,
                    meter, cost_model, attempt_span,
                )
            if cached is not None:
                plan = cached.entry.plan
                checkpoints_placed = cached.entry.checkpoints
                opt_units = meter.snapshot() - units_before_opt
            else:
                opt_span = (
                    tracer.start_span("optimizer.optimize", parent=attempt_span)
                    if tracer is not None
                    else None
                )
                opt = self.optimizer.optimize(
                    query,
                    feedback if config.use_feedback else None,
                    selectivity=peek,
                    options=options,
                    temp_mvs=temp_mvs,
                )
                meter.charge(
                    cost_model.reoptimization_cost(opt.plans_enumerated),
                    "optimize",
                )
                opt_units = meter.snapshot() - units_before_opt
                if tracer is not None:
                    tracer.end_span(
                        opt_span,
                        plans_enumerated=opt.plans_enumerated,
                        newton_iterations=opt.newton_iterations,
                        est_cost=opt.plan.est_cost,
                    )
                if metrics is not None:
                    metrics.inc("optimizer.invocations")
                    metrics.inc(
                        "optimizer.plans_enumerated", opt.plans_enumerated
                    )
                    metrics.inc(
                        "optimizer.newton_iterations", opt.newton_iterations
                    )

                place_span = (
                    tracer.start_span(
                        "pop.place_checkpoints", parent=attempt_span
                    )
                    if tracer is not None
                    else None
                )
                if can_reopt:
                    placement = place_checkpoints(
                        opt.plan,
                        config,
                        cost_model,
                        is_spj=not (query.has_aggregates or query.distinct),
                        lc_above_hash_build=self.lc_above_hash_build,
                        tracer=tracer,
                        metrics=metrics,
                    )
                else:
                    placement = place_checkpoints(
                        opt.plan, PopConfig(enabled=False), cost_model
                    )
                if tracer is not None:
                    tracer.end_span(place_span, checkpoints=placement.count)
                plan = placement.plan
                checkpoints_placed = placement.count
            if compensation:
                # Cached plans are never reached here: compensation is empty
                # on the first round, the only one that probes the cache.
                plan = self._wrap_compensation(plan)
            if config.strict_analysis:
                self._lint_attempt_plan(
                    plan,
                    feedback,
                    attempt,
                    cached_fingerprint=(
                        cached.entry.fingerprint if cached is not None else None
                    ),
                    temp_mvs=temp_mvs,
                )

            budget = None
            if config.work_budget is not None and can_reopt:
                # Escalate per attempt so a statement cannot livelock on
                # budget triggers: each round gets a larger deadline.
                budget = config.work_budget * (attempt + 1)
            ctx = ExecutionContext(
                self.catalog,
                params=params,
                cost_params=self.optimizer.cost_model.params,
                meter=meter,
                dry_run_checks=config.dry_run,
                force_trigger_op_ids=(
                    set(config.force_trigger_op_ids) if attempt == 0 else set()
                ),
                work_budget=budget,
                tracer=tracer,
                metrics=metrics,
                fault_injector=injector,
                work_deadline=(
                    guard.deadline_for_attempt(meter)
                    if guard is not None
                    else None
                ),
                cancel=cancel,
                # Statement-scoped wall deadline: set once on the first
                # attempt, shared by every retry/re-optimization round.
                wall_deadline=(
                    guard.wall_deadline_for_statement()
                    if guard is not None
                    else None
                ),
                memory=config.memory,
                reservation=reservation,
                # One collector per attempt so re-optimized rounds stay
                # separately attributable (None keeps the executor's
                # profiling sites at a single comparison).
                profiler=ProfileCollector(meter) if self.profile else None,
                progress=self.progress,
                batch_size=config.batch_size,
                snapshot=snapshot,
                temp_mvs=temp_mvs,
            )
            ctx.compensation = compensation
            renegs_before = (
                reservation.renegotiations if reservation is not None else 0
            )
            if tracer is not None:
                ctx.exec_span_id = tracer.start_span(
                    "pop.execute",
                    parent=attempt_span,
                    checkpoints=checkpoints_placed,
                    cached=cached is not None,
                )
            sink: list[tuple] = []
            units_before_exec = meter.snapshot()
            report = AttemptReport(
                plan=plan,
                plan_text=explain_plan(plan),
                join_order=join_order(plan),
                checkpoints_placed=checkpoints_placed,
                optimization_units=opt_units,
                execution_units=0.0,
                reused_mvs=[op.mv_name for op in find_ops(plan, MVScan)],
                cache_hit=cached is not None,
                cache_fingerprint=(
                    cached.entry.fingerprint if cached is not None else None
                ),
                cache_admission=(
                    [e.to_dict() for e in cached.admission.evaluations]
                    if cached is not None
                    else None
                ),
            )
            if self.progress is not None:
                self.progress.begin_attempt(plan, meter.snapshot())
            try:
                run_plan(plan, ctx, sink)
            except ReoptimizationSignal as signal:
                report.execution_units = meter.snapshot() - units_before_exec
                report.checkpoint_events = ctx.checkpoint_events
                report.actual_cards = _collect_actuals(ctx)
                report.signal_op_id = signal.check_op.op_id
                report.signal_flavor = getattr(signal.check_op, "flavor", "?")
                report.signal_observed = float(signal.observed)
                report.signal_complete = signal.complete
                report.signal_reason = signal.reason
                report.rows_emitted = ctx.rows_returned
                self._harvest_memory(ctx, report, reservation, renegs_before)
                attempts.append(report)
                if tracer is not None:
                    tracer.event(
                        "pop.reoptimize",
                        span=ctx.exec_span_id,
                        op_id=report.signal_op_id,
                        flavor=report.signal_flavor,
                        observed=report.signal_observed,
                        complete=report.signal_complete,
                        reason=report.signal_reason,
                    )
                if metrics is not None:
                    metrics.inc("pop.reoptimizations", reason=signal.reason)
                if cached is not None:
                    # Runtime proved the cached plan's ranges stale for this
                    # parameter regime — drop the variant (POP feedback
                    # invalidation) and re-optimize from scratch.
                    plan_cache.discard(
                        statement.shape, cached.entry.fingerprint
                    )
                    if metrics is not None:
                        metrics.inc(
                            "plan_cache.invalidations", reason="reoptimized"
                        )
                    if tracer is not None:
                        tracer.event(
                            "plan_cache.invalidate",
                            span=ctx.exec_span_id,
                            fingerprint=cached.entry.fingerprint,
                            reason="reoptimized",
                        )
                if ctx.rows_returned:
                    # Only compensating flavors may fire after rows went out.
                    if report.signal_flavor != "ECDC":
                        raise ExecutionError(
                            f"non-compensating checkpoint {report.signal_flavor} "
                            "fired after rows were returned"
                        ) from signal
                    for row in sink:
                        compensation[row] += 1
                    delivered.extend(sink)
                    if metrics is not None:
                        metrics.inc("pop.compensation_rows", len(sink))
                registered = harvest_execution_state(
                    ctx, signal, feedback, temp_mvs, config
                )
                self._observe_attempt(
                    ctx, report, attempt_span, interrupted=True,
                    harvested_mvs=registered,
                )
                attempt += 1
                reopt_round += 1
                if guard is not None and guard.on_reoptimize(
                    report.join_order, attempt
                ):
                    guard.request_fallback(
                        "re-optimization breaker tripped"
                    )
                    delivered.extend(
                        self._run_fallback(
                            query, params, meter, compensation, attempts,
                            stmt_span, attempt, reservation, cancel, snapshot,
                        )
                    )
                    return delivered
                continue
            except ReproError as exc:
                report.execution_units = meter.snapshot() - units_before_exec
                report.checkpoint_events = ctx.checkpoint_events
                report.actual_cards = _collect_actuals(ctx)
                report.rows_emitted = ctx.rows_returned
                report.failure = str(exc)
                report.failure_class = failure_class(exc)
                self._harvest_memory(ctx, report, reservation, renegs_before)
                attempts.append(report)
                decision = guard.on_failure(exc) if guard is not None else RAISE
                self._observe_attempt(
                    ctx, report, attempt_span, interrupted=True
                )
                if decision == RAISE:
                    raise
                # Rows already pipelined to the application before the
                # failure must not be re-delivered: fold them into the
                # ECDC compensation set, same as a late CHECK (§3.3).
                if ctx.rows_returned:
                    for row in sink:
                        compensation[row] += 1
                    delivered.extend(sink)
                    if metrics is not None:
                        metrics.inc("pop.compensation_rows", len(sink))
                # Retries re-plan with whatever exact cardinalities the
                # failed attempt managed to observe (feedback only, no MV
                # promotion from a half-run plan).
                if config.use_feedback:
                    harvest_execution_state(
                        ctx, None, feedback, temp_mvs, _FEEDBACK_ONLY
                    )
                attempt += 1
                if decision == FALLBACK:
                    delivered.extend(
                        self._run_fallback(
                            query, params, meter, compensation, attempts,
                            stmt_span, attempt, reservation, cancel, snapshot,
                        )
                    )
                    return delivered
                continue
            # Success.
            report.execution_units = meter.snapshot() - units_before_exec
            report.checkpoint_events = ctx.checkpoint_events
            report.actual_cards = _collect_actuals(ctx)
            report.rows_emitted = ctx.rows_returned
            self._harvest_memory(ctx, report, reservation, renegs_before)
            attempts.append(report)
            delivered.extend(sink)
            # Record the completed run's exact cardinalities (no MV
            # promotion) — this is what cross-query learning absorbs (§7).
            if config.use_feedback:
                harvest_execution_state(
                    ctx, None, feedback, temp_mvs, _FEEDBACK_ONLY
                )
            if plan_cache is not None and statement is not None:
                self._cache_settle(
                    plan_cache, statement, query, plan, cached, report
                )
            self._observe_attempt(ctx, report, attempt_span, interrupted=False)
            return delivered

    def _run_fallback(
        self,
        query: Query,
        params,
        meter: WorkMeter,
        compensation: Counter,
        attempts: list,
        stmt_span,
        attempt: int,
        reservation=None,
        cancel=None,
        snapshot=None,
    ) -> list[tuple]:
        """Run the conservative safe plan (guaranteed to complete).

        POP is disabled (no CHECKs can fire), the optimizer is restricted
        to robust join flavors (hash and sort-merge — no nested loops whose
        worst case is quadratic, no temp-MV reuse from the thrashing
        attempts), and neither fault injection nor a deadline applies: the
        guard disarmed the injector in :meth:`ExecutionGuard.request_fallback`.
        The ``cancel`` token *does* still apply — a disconnected client has
        no use for a safe plan's rows, so cancellation beats completion.
        """
        tracer = self.tracer
        metrics = self.metrics
        span = (
            tracer.start_span(
                "pop.attempt", parent=stmt_span, attempt=attempt, fallback=True
            )
            if tracer is not None
            else None
        )
        robust = replace(
            self.optimizer.options,
            enable_index_nljn=False,
            enable_rescan_nljn=False,
            enable_hash_join=True,
            enable_merge_join=True,
            consider_mvs=False,
            mv_cost_zero=False,
        )
        units_before_opt = meter.snapshot()
        opt = self.optimizer.optimize(query, None, options=robust)
        meter.charge(
            self.optimizer.cost_model.reoptimization_cost(opt.plans_enumerated),
            "optimize",
        )
        opt_units = meter.snapshot() - units_before_opt
        placement = place_checkpoints(
            opt.plan, PopConfig(enabled=False), self.optimizer.cost_model
        )
        plan = placement.plan
        if compensation:
            plan = self._wrap_compensation(plan)
        if self.config.strict_analysis:
            self._lint_attempt_plan(plan, None, attempt)
        ctx = ExecutionContext(
            self.catalog,
            params=params,
            cost_params=self.optimizer.cost_model.params,
            meter=meter,
            tracer=tracer,
            metrics=metrics,
            cancel=cancel,
            memory=self.config.memory,
            reservation=reservation,
            profiler=ProfileCollector(meter) if self.profile else None,
            progress=self.progress,
            batch_size=self.config.batch_size,
            snapshot=snapshot,
        )
        ctx.compensation = compensation
        renegs_before = (
            reservation.renegotiations if reservation is not None else 0
        )
        if tracer is not None:
            ctx.exec_span_id = tracer.start_span(
                "pop.execute", parent=span, checkpoints=0, fallback=True
            )
        sink: list[tuple] = []
        units_before_exec = meter.snapshot()
        report = AttemptReport(
            plan=plan,
            plan_text=explain_plan(plan),
            join_order=join_order(plan),
            checkpoints_placed=0,
            optimization_units=opt_units,
            execution_units=0.0,
            fallback=True,
        )
        if self.progress is not None:
            self.progress.begin_attempt(plan, meter.snapshot())
        run_plan(plan, ctx, sink)
        report.execution_units = meter.snapshot() - units_before_exec
        report.checkpoint_events = ctx.checkpoint_events
        report.actual_cards = _collect_actuals(ctx)
        report.rows_emitted = ctx.rows_returned
        self._harvest_memory(ctx, report, reservation, renegs_before)
        attempts.append(report)
        self._observe_attempt(ctx, report, span, interrupted=False)
        return sink

    # ------------------------------------------------------------ plan cache

    def _cache_lookup(
        self,
        plan_cache,
        statement,
        query: Query,
        config: PopConfig,
        feedback: Optional[CardinalityFeedback],
        meter: WorkMeter,
        cost_model,
        attempt_span,
    ):
        """Probe the plan cache; returns the hit LookupResult or None.

        The admission test (a handful of per-edge estimates per variant) is
        charged to the meter under its own category — visibly cheaper than
        the plan enumeration it replaces.
        """
        lookup = plan_cache.lookup(
            statement.shape,
            query,
            statement.params,
            self.catalog,
            feedback=feedback if config.use_feedback else None,
            base_selectivity=self.optimizer.selectivity,
        )
        meter.charge(
            cost_model.params.reopt_per_plan * max(lookup.examined, 1),
            "plan_cache",
        )
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("plan_cache.hits" if lookup.hit else "plan_cache.misses")
            if lookup.admission_rejects:
                metrics.inc(
                    "plan_cache.admission_rejects", lookup.admission_rejects
                )
            if lookup.mutation_discards:
                metrics.inc(
                    "plan_cache.invalidations",
                    lookup.mutation_discards,
                    reason="mutated",
                )
        if self.tracer is not None:
            self.tracer.event(
                "plan_cache.hit" if lookup.hit else "plan_cache.miss",
                span=attempt_span,
                examined=lookup.examined,
                admission_rejects=lookup.admission_rejects,
                fingerprint=(
                    lookup.entry.fingerprint if lookup.hit else None
                ),
                ranges_evaluated=(
                    len(lookup.admission) if lookup.admission else 0
                ),
            )
        return lookup if lookup.hit else None

    def _cache_settle(
        self,
        plan_cache,
        statement,
        query: Query,
        plan: PlanOp,
        cached,
        report: AttemptReport,
    ) -> None:
        """After a successful attempt: install a fresh plan, or verify a
        reused one came back byte-identical (cached plans are immutable).

        Plans referencing statement-scoped state are never installed: temp
        MVs are dropped when the statement ends and compensating anti-joins
        only make sense for this statement's already-delivered rows.
        """
        metrics = self.metrics
        if cached is not None:
            if plan_fingerprint(plan) == cached.entry.fingerprint:
                return
            # Self-heal: something mutated the cached plan during
            # execution; drop it rather than ever reusing it again.
            plan_cache.discard(statement.shape, cached.entry.fingerprint)
            if metrics is not None:
                metrics.inc("plan_cache.invalidations", reason="mutated")
            if self.tracer is not None:
                self.tracer.event(
                    "plan_cache.invalidate",
                    fingerprint=cached.entry.fingerprint,
                    reason="mutated",
                )
            return
        if report.fallback or find_ops(plan, (AntiJoin, MVScan)):
            return
        entry, evicted = plan_cache.install(
            statement.shape,
            plan,
            tables={t.table for t in query.tables},
            params=statement.params,
            checkpoints=report.checkpoints_placed,
        )
        if metrics is not None:
            if entry is not None:
                metrics.inc("plan_cache.installs")
            if evicted:
                metrics.inc("plan_cache.evictions", evicted)
        if self.tracer is not None and entry is not None:
            self.tracer.event(
                "plan_cache.install",
                fingerprint=entry.fingerprint,
                evicted=evicted,
                checkpoints=entry.checkpoints,
            )

    # -------------------------------------------------------------- internals

    def _harvest_memory(
        self, ctx: ExecutionContext, report: AttemptReport, reservation,
        renegotiations_before: int,
    ) -> None:
        """Fold one attempt's memory-governor and profiling accounting into
        its report (this helper runs on every exit path: signal, failure,
        success, and fallback).

        Spill statistics survive the spill manager's cleanup (files are
        already deleted by ``run_plan``'s ``finally`` when this runs), so
        degradation stays reportable without leaking disk.
        """
        if ctx.profiler is not None:
            ctx.profiler.finalize(ctx)
            report.profiles = ctx.profiler.profiles
            report.profile_self_units = ctx.profiler.total_self_units()
            if self.metrics is not None:
                for prof in ctx.profiler.profiles:
                    if prof.self_units:
                        self.metrics.observe(
                            "profile.self_units", prof.self_units,
                            op=prof.kind,
                        )
        summary = ctx.spill_summary()
        if summary is not None and summary["files"]:
            report.spilled = True
            report.spill_pages = summary["pages"]
            report.spill_files = summary["files"]
            report.spill_bytes = summary["bytes"]
            report.spill_categories = summary["categories"]
            report.spilled_operators = sorted(
                {
                    op.plan.KIND
                    for op in ctx.operators
                    if getattr(op, "spilled", False)
                }
            )
            if self.metrics is not None:
                self.metrics.inc("governor.spilled_attempts")
        if reservation is not None:
            report.reservation_pages = reservation.pages
            report.renegotiations = (
                reservation.renegotiations - renegotiations_before
            )

    def _lint_attempt_plan(
        self,
        plan: PlanOp,
        feedback: Optional[CardinalityFeedback],
        attempt: int,
        cached_fingerprint: Optional[str] = None,
        temp_mvs: Optional[TempMVRegistry] = None,
    ) -> None:
        """Strict mode: lint the plan this attempt is about to execute.

        Raises :class:`repro.analysis.PlanLintError` on error-severity
        findings; warn/info findings flow to tracing.  Re-optimized plans
        (attempt > 0) are additionally checked for consistency with the
        exact feedback harvested so far.
        """
        context = LintContext(
            catalog=self.catalog,
            cost_model=self.optimizer.cost_model,
            config=self.config,
            feedback=(
                feedback if attempt > 0 and self.config.use_feedback else None
            ),
            attempt=attempt,
            cached_fingerprint=cached_fingerprint,
            temp_mvs=temp_mvs,
        )
        findings = assert_plan_clean(
            plan, context, where=f"attempt {attempt} plan"
        )
        if self.tracer is not None:
            for finding in findings:
                self.tracer.event(
                    "analysis.finding", attempt=attempt, **finding.to_dict()
                )
        if self.metrics is not None and findings:
            for finding in findings:
                self.metrics.inc(
                    "analysis.findings",
                    rule=finding.rule,
                    severity=finding.severity,
                )

    def _observe_attempt(
        self,
        ctx: ExecutionContext,
        report: AttemptReport,
        attempt_span,
        interrupted: bool,
        harvested_mvs: Optional[list] = None,
    ) -> None:
        """Flush one attempt's observability state (no-op when unconfigured)."""
        tracer = self.tracer
        metrics = self.metrics
        if self.progress is not None:
            self.progress.end_attempt(
                ctx.meter.snapshot(), completed=not interrupted
            )
        if metrics is not None:
            for op in ctx.operators:
                if op.rows_out:
                    metrics.inc("executor.rows", op.rows_out, op=op.plan.KIND)
            if report.reused_mvs:
                metrics.inc("pop.mv_reuses", len(report.reused_mvs))
            record_qerrors(metrics, report.plan, report.actual_cards)
        if tracer is not None:
            ctx.finalize_operator_spans()
            if harvested_mvs is not None:
                tracer.event(
                    "pop.harvest",
                    span=attempt_span,
                    temp_mvs=len(harvested_mvs),
                    names=list(harvested_mvs),
                )
            tracer.end_span(
                ctx.exec_span_id,
                rows=ctx.rows_returned,
                interrupted=interrupted,
            )
            tracer.end_span(
                attempt_span,
                join_order=report.join_order,
                execution_units=report.execution_units,
                optimization_units=report.optimization_units,
                reused_mvs=list(report.reused_mvs),
                interrupted=interrupted,
            )

    @staticmethod
    def _wrap_compensation(plan: PlanOp) -> PlanOp:
        """Insert the ECDC anti-join between RETURN and the rest of the plan."""
        if not isinstance(plan, Return):
            raise ExecutionError("plan root is not RETURN")
        plan.children[0] = AntiJoin(plan.children[0], compensation_key="ecdc")
        from repro.plan.physical import number_plan

        number_plan(plan)
        return plan
