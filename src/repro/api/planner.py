"""The planner: requests in, an executable :class:`ExecutionPlan` out.

The paper is one algorithm family parameterized by schedule and
topology; the stack, likewise, is one set of engines parameterized by
strategy.  The :class:`Planner` owns every routing rule that used to be
duplicated across the four legacy front doors:

* **backend selection** — ``"auto"`` resolves to the ``O(ν)``-memory
  ``classes`` substrate on every strategy and at every ``N``
  (:data:`repro.batch.backends.CLASS_SUBSTRATE`, the one definition):
  every operator of the samplers touches the element register only
  through the joint count, so the count-class state is exact at any
  scale.  Explicit names are validated against the per-instance
  registry (instance strategy) or the *stacked*-backend registry
  (:mod:`repro.batch.backends`, batched strategies); the dense
  ``subspace``/``synced``/``dense``/``oracles`` backends are reachable
  only by name, and stream snapshots always run ``classes``;
* **strategy selection** — one rule per request, independent of its
  siblings: a request whose resolved backend has a stacked
  implementation (``auto``/``classes`` on both models, ``subspace``
  sequential, ``synced`` parallel) runs on the stacked batch engine at
  any group size, a lone ``repro.sample`` included — its rows are ``==``
  the per-instance rows, and the stacked engine is the faster of the
  two at every batch size; spec requests fan out across processes
  instead when ``jobs > 1``.  Only the per-instance-only backends
  (``oracles``, ``dense``) and an explicit ``strategy="instance"`` run
  the per-instance samplers, and the serving dispatcher runs when
  asked for (``strategy="served"`` or :func:`repro.serve`);
* **capacity policy** — ``"skip_empty"`` maps to the capacity-aware
  flagged-round restriction on every strategy;
* **fault masks** — a request's machine-loss mask rides along on the
  :class:`ResolvedRequest` and is applied by every executor after the
  database is built, so the scenario engine's degraded topologies route
  through the same four strategies as healthy traffic (masked requests
  composing with ``skip_empty`` — dead machines are skipped, never
  queried).

The legacy drivers (``run_sweep``, ``run_batched``,
:class:`~repro.serve.SamplerService`) consume the same planner helpers
instead of re-deciding these rules locally.

Every planning failure raises :class:`~repro.errors.PlanningError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..batch.backends import CLASS_SUBSTRATE, stacked_backend_names
from ..core.backends import MODELS, backend_names, resolve_backend
from ..errors import PlanningError, ValidationError
from ..obs.metrics import METRICS
from ..obs.trace import span
from .request import AUTO_BACKEND, CAPACITY_POLICIES, SamplingRequest

#: The four execution strategies.
STRATEGIES = ("instance", "stacked", "fanout", "served")


def require_model(model: str) -> str:
    """Validate a query-model name; raises :class:`PlanningError`."""
    if model not in MODELS:
        raise PlanningError(f"unknown model {model!r}; choose from {MODELS}")
    return model


def skip_zero_capacity_for(capacity: str) -> bool:
    """Map a capacity policy to the flagged-round restriction switch."""
    if capacity not in CAPACITY_POLICIES:
        raise PlanningError(
            f"unknown capacity policy {capacity!r}; choose from {CAPACITY_POLICIES}"
        )
    return capacity == "skip_empty"


@dataclass(frozen=True)
class ResolvedRequest:
    """One request with its routing decisions attached.

    ``backend`` is the final, registered backend name (never
    ``"auto"``); ``strategy`` is one of :data:`STRATEGIES`.
    ``fault_mask`` is the request's normalized machine-loss mask (or
    ``None``) — per-request data, deliberately *not* part of any
    homogeneity key: masked and healthy requests stack, fan out and
    serve together, because the mask acts on the built database (lost
    shards dropped, capacities republished as ``κ_j = 0``) before the
    engine sees it.  Combined with ``capacity="skip_empty"`` the
    flagged-round restriction then provably never queries a dead
    machine; when consecutive served requests carry different masks
    (a :class:`~repro.scenarios.FaultSchedule` mid-trace), each
    submission re-plans against its own degraded topology.
    """

    index: int
    request: SamplingRequest
    backend: str
    strategy: str
    skip_zero_capacity: bool
    label: str
    fault_mask: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ExecutionGroup:
    """Requests that execute together under one strategy.

    Stacked/fanout/served groups are homogeneous in
    ``(model, capacity, include_probabilities)``; instance groups just
    collect everything that runs one-at-a-time.
    """

    strategy: str
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ExecutionPlan:
    """The full routing decision for one front-door call.

    ``resolved[i]`` matches ``requests[i]``; ``groups`` partition the
    indices and preserve request order inside each group.  The executor
    (:mod:`repro.api.execute`) walks the groups and reassembles results
    in request order.
    """

    resolved: tuple[ResolvedRequest, ...]
    groups: tuple[ExecutionGroup, ...]
    batch_size: int
    jobs: int | None = None
    workers: int = 2
    #: Served-strategy scale-out: worker processes of the sharded tier
    #: (``None`` serves in-process; see ``SamplingRequest.shards``).
    shards: int | None = None

    def strategies(self) -> tuple[str, ...]:
        """Per-request strategy, in request order."""
        return tuple(r.strategy for r in self.resolved)

    def backends(self) -> tuple[str, ...]:
        """Per-request resolved backend, in request order."""
        return tuple(r.backend for r in self.resolved)


class Planner:
    """Routes :class:`SamplingRequest` objects onto execution strategies.

    Stateless: every rule is a pure function of the request (and the
    call's forced strategy and ``jobs``), so one instance serves every
    caller (:data:`repro.api.DEFAULT_PLANNER`).
    """

    # -- backend selection ---------------------------------------------------------

    def auto_backend(self, model: str) -> str:
        """The ``"auto"`` rule for a *per-instance* run: ``classes``.

        The same substrate the batched strategies stack on, at every
        ``N``; the ``O(ν)`` state never approaches the dense memory cap.
        """
        require_model(model)
        return CLASS_SUBSTRATE

    def validated_backend(self, name: str, model: str) -> str:
        """Resolve an explicit backend name; raises with the choices."""
        require_model(model)
        try:
            resolve_backend(name, model)
        except ValidationError:
            raise PlanningError(
                f"backend {name!r} does not support the {model!r} model; "
                f"choose from {', '.join(backend_names(model))}"
            ) from None
        return name

    # -- single-request and stream entry points -------------------------------------

    def plan(
        self,
        request: SamplingRequest,
        strategy: str | None = None,
        batch_size: int | None = None,
        jobs: int | None = None,
        workers: int = 2,
        shards: int | None = None,
    ) -> ExecutionPlan:
        """Route one request (``repro.sample``) by the same per-request rule."""
        return self.plan_many(
            [request],
            strategy=strategy,
            batch_size=batch_size,
            jobs=jobs,
            workers=workers,
            shards=shards,
        )

    def resolve_for_serving(self, request: SamplingRequest) -> ResolvedRequest:
        """Validate + resolve one request for the serving dispatcher.

        Used by :func:`repro.api.serve`, which consumes its request
        stream lazily (one resolution per arrival, no global plan).
        """
        return self._resolve(request, 0, "served")

    # -- the bulk entry point --------------------------------------------------------

    def plan_many(
        self,
        requests: Sequence[SamplingRequest] | Iterable[SamplingRequest],
        strategy: str | None = None,
        batch_size: int | None = None,
        jobs: int | None = None,
        workers: int = 2,
        shards: int | None = None,
    ) -> ExecutionPlan:
        """Route a request list (``repro.sample_many``).

        ``strategy`` forces every request onto one strategy (each request
        must be eligible — :class:`PlanningError` otherwise).  With
        ``strategy=None`` the routing rules of the module docstring
        apply.  ``batch_size``/``jobs``/``workers``/``shards`` are
        execution hints carried onto the plan for the strategies that
        use them.
        """
        from ..batch.driver import DEFAULT_BATCH_SIZE

        requests = list(requests)
        if strategy is not None and strategy not in STRATEGIES:
            raise PlanningError(
                f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
            )
        if jobs is not None and jobs <= 0:
            raise PlanningError(f"jobs must be a positive worker count, got {jobs}")
        if shards is not None and shards <= 0:
            raise PlanningError(
                f"shards must be a positive worker count, got {shards}"
            )
        if strategy == "fanout" and self.fanout_jobs(jobs) is None:
            # A serial "fan-out" would strip ledgers/states for nothing.
            raise PlanningError(
                "the fanout strategy needs jobs > 1 (process fan-out); "
                f"got jobs={jobs!r} — use the stacked strategy in-process"
            )
        if batch_size is not None and batch_size < 1:
            raise PlanningError(f"batch_size must be >= 1, got {batch_size}")
        with span("plan", requests=len(requests), forced=strategy) as plan_span:
            resolved_strategies = self._route(requests, strategy, jobs)
            resolved = tuple(
                self._resolve(request, index, resolved_strategies[index])
                for index, request in enumerate(requests)
            )
            groups = self._group(resolved)
            plan_span.set(groups=len(groups))
        METRICS.counter("planner.requests").inc(len(resolved))
        METRICS.counter("planner.plans").inc()
        by_strategy: dict[str, int] = {}
        for res in resolved:
            by_strategy[res.strategy] = by_strategy.get(res.strategy, 0) + 1
        for name, count in by_strategy.items():
            METRICS.counter(f"planner.strategy.{name}").inc(count)
        return ExecutionPlan(
            resolved=resolved,
            groups=groups,
            batch_size=DEFAULT_BATCH_SIZE if batch_size is None else batch_size,
            jobs=jobs,
            workers=workers,
            shards=shards,
        )

    # -- legacy-driver helpers -------------------------------------------------------

    def fanout_jobs(self, jobs: int | None) -> int | None:
        """The process fan-out width, or ``None`` for in-process execution.

        The one routing rule ``run_sweep`` and ``run_batched`` used to
        hard-code locally: ``jobs > 1`` means the load is build-dominated
        enough to fan across worker processes.
        """
        if jobs is not None and jobs > 1:
            return jobs
        return None

    # -- internals --------------------------------------------------------------

    def _route(
        self,
        requests: Sequence[SamplingRequest],
        forced: str | None,
        jobs: int | None,
    ) -> list[str]:
        """Pick a strategy per request (forced, or by the routing rule)."""
        if forced is not None:
            return [forced] * len(requests)
        fanout = self.fanout_jobs(jobs) is not None
        return [
            "instance" if not self._stackable(request)
            else "fanout" if fanout and request.source == "spec"
            else "stacked"
            for request in requests
        ]

    def _stackable(self, request: SamplingRequest) -> bool:
        """Whether a stacked backend may execute the request.

        ``auto`` and any registered *stacked* backend name qualify —
        ``classes`` always, ``subspace`` for sequential-model requests,
        ``synced`` for parallel ones (stream snapshots stay on
        ``classes``, their substrate).
        """
        if request.backend == AUTO_BACKEND:
            return True
        if request.source == "stream":
            return request.backend == CLASS_SUBSTRATE
        return request.backend in stacked_backend_names(request.model)

    def _resolve_stacked_backend(self, request: SamplingRequest, strategy: str) -> str:
        """The stacked substrate one batched/served request executes on."""
        names = stacked_backend_names(request.model)
        if request.backend == AUTO_BACKEND:
            return CLASS_SUBSTRATE
        if request.backend in names:
            return request.backend
        raise PlanningError(
            f"backend {request.backend!r} is not stackable; the {strategy!r} "
            f"strategy runs a stacked substrate — choose from {names} or 'auto'"
        )

    def _resolve(
        self, request: SamplingRequest, index: int, strategy: str
    ) -> ResolvedRequest:
        require_model(request.model)
        skip = request.skip_zero_capacity()
        if strategy not in STRATEGIES:
            raise PlanningError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
        if request.source == "stream":
            # Stream snapshots are count-class views; only the classes
            # substrate can execute them, and only stacked (a class
            # state, not a database the per-instance samplers take).
            if request.backend not in (AUTO_BACKEND, CLASS_SUBSTRATE):
                raise PlanningError(
                    f"backend {request.backend!r} cannot execute a stream "
                    f"snapshot; stream requests run on the {CLASS_SUBSTRATE!r} "
                    "substrate"
                )
            if strategy == "instance":
                raise PlanningError(
                    "a stream snapshot is a count-class state, not a database; "
                    "the instance strategy cannot execute it — use the stacked "
                    "or served strategy"
                )
            backend = CLASS_SUBSTRATE
        elif strategy in ("stacked", "fanout", "served"):
            backend = self._resolve_stacked_backend(request, strategy)
        elif request.backend == AUTO_BACKEND:
            backend = self.auto_backend(request.model)
        else:
            backend = self.validated_backend(request.backend, request.model)
        if strategy == "fanout" and request.source != "spec":
            raise PlanningError(
                "process fan-out executes spec-built requests (databases and "
                "streams live in this process); use the stacked or instance "
                "strategy instead"
            )
        if strategy == "served" and request.source == "database":
            raise PlanningError(
                "the serving dispatcher takes spec or stream requests; wrap "
                "the database in an UpdateStream or submit its spec"
            )
        return ResolvedRequest(
            index=index,
            request=request,
            backend=backend,
            strategy=strategy,
            skip_zero_capacity=skip,
            label=request.resolved_label(),
            fault_mask=request.fault_mask,
        )

    def _group(self, resolved: tuple[ResolvedRequest, ...]) -> tuple[ExecutionGroup, ...]:
        """Partition resolved requests into ordered execution groups.

        Batched strategies group by homogeneity key — including the
        resolved stacked backend, so one tensor representation (or one
        worker payload, or one service) executes the whole group;
        instance requests pool into a single group.
        """
        keyed: dict[tuple[object, ...], list[int]] = {}
        for res in resolved:
            request = res.request
            if res.strategy == "instance":
                key: tuple[object, ...] = ("instance",)
            else:
                key = (
                    res.strategy,
                    res.backend,
                    request.model,
                    request.capacity,
                    request.include_probabilities,
                )
            keyed.setdefault(key, []).append(res.index)
        groups = [
            ExecutionGroup(strategy=str(key[0]), indices=tuple(indices))
            for key, indices in keyed.items()
        ]
        groups.sort(key=lambda g: g.indices[0])
        return tuple(groups)
