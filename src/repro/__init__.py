"""proteus-repro — reproduction of *Proteus: Power Proportional Memory
Cache Cluster in Data Centers* (Li et al., ICDCS 2013).

The package implements the paper's two contributions and every substrate
its evaluation depends on:

* :mod:`repro.core` — the deterministic virtual-node placement
  (Algorithm 1, Theorem 1), the four Table II routing scenarios, migration
  analysis, the smooth-transition state machine (Algorithm 2 support), and
  replicated rings (Section III-E);
* :mod:`repro.bloom` — plain and counting Bloom filters plus the
  memory-optimal digest sizing of Section IV-B (Eq. 10);
* :mod:`repro.cache` / :mod:`repro.database` / :mod:`repro.web` — the
  three-tier testbed of Fig. 3, in-process;
* :mod:`repro.net` — a real asyncio memcached-protocol server/client with
  the ``SET_BLOOM_FILTER`` / ``BLOOM_FILTER`` reserved keys of
  Section V-A3, plus a chaos proxy for fault injection;
* :mod:`repro.resilience` — retry/breaker/deadline policies and the
  fault-plan vocabulary shared by the simulator and the live tier;
* :mod:`repro.sim` — the discrete-event cluster experiment that regenerates
  Figs. 9-11, and the routing/hit-ratio analyses behind Figs. 5-6;
* :mod:`repro.power` — the PDU-style power metering of Section VI-D;
* :mod:`repro.provisioning` / :mod:`repro.workload` — schedules,
  the delay-feedback loop, and Wikipedia-like workload synthesis.

Quickstart::

    from repro import ProteusRouter

    router = ProteusRouter(num_servers=10)
    server = router.route("page:Alan_Turing", num_active=7)
"""

from repro.bloom import (
    BloomConfig,
    BloomFilter,
    CountingBloomFilter,
    KeyHashes,
    optimal_config,
)
from repro.cache import CacheServer, CacheStats, KeyValueStore, PowerState
from repro.config import ClusterConfig, DigestGeometry
from repro.cache.cluster import CacheCluster
from repro.core import (
    BACKEND_NAMES,
    RING_BACKENDS,
    ROUTER_SCENARIOS,
    CheckDigestMulti,
    CompiledRingTable,
    ConsistentRouter,
    CountMinSketch,
    FetchPath,
    FetchResult,
    FetchStats,
    HashRing,
    HotKeyArmor,
    HotKeyCache,
    MultiProbeBackend,
    MultiProbeRouter,
    NaiveRouter,
    Placement,
    PowerBackend,
    PowerRouter,
    ProteusBackend,
    ProteusRouter,
    ReadPlan,
    Registry,
    ReplicatedProteusRouter,
    ReplicatedRetrievalEngine,
    RetrievalConfig,
    RetrievalEngine,
    RingBackend,
    Router,
    ServerLoadEWMA,
    StaticRouter,
    TopKSketch,
    TransitionManager,
    VnodeBackend,
    make_backend,
    make_router,
    migration_lower_bound,
    peak_to_average,
    place_virtual_nodes,
    plan_migration,
    remap_fraction,
    scenario_routers,
    theoretical_min_vnodes,
)
from repro.database import DatabaseCluster
from repro.errors import ProteusError
from repro.net import AsyncProteusFrontend, MemcachedClient, MemcachedServer
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultSchedule,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.provisioning import (
    DelayFeedbackController,
    ProvisioningActuator,
    ProvisioningSchedule,
    load_proportional_schedule,
    run_feedback_loop,
    static_schedule,
)
from repro.experiments import (
    ClusterExperiment,
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    compare_routers,
    evaluate_load_balance,
    run_scenarios,
    simulate_hit_ratio,
    sweep_cache_sizes,
)
from repro.web import ReplicatedWebServer, WebServer
from repro.workload import (
    TraceRecord,
    UserPopulation,
    ZipfSampler,
    diurnal_rate,
    generate_trace,
    load_trace,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AsyncProteusFrontend",
    "BACKEND_NAMES",
    "BloomConfig",
    "BloomFilter",
    "CacheCluster",
    "CacheServer",
    "CacheStats",
    "CheckDigestMulti",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterExperiment",
    "CompiledRingTable",
    "ConsistentRouter",
    "CountMinSketch",
    "CountingBloomFilter",
    "DatabaseCluster",
    "Deadline",
    "DelayFeedbackController",
    "DigestGeometry",
    "ExperimentConfig",
    "ExperimentReport",
    "FaultPlan",
    "FaultSchedule",
    "FetchPath",
    "FetchResult",
    "FetchStats",
    "HashRing",
    "HotKeyArmor",
    "HotKeyCache",
    "KeyHashes",
    "KeyValueStore",
    "MemcachedClient",
    "MemcachedServer",
    "MultiProbeBackend",
    "MultiProbeRouter",
    "NaiveRouter",
    "Placement",
    "PowerBackend",
    "PowerRouter",
    "PowerState",
    "ProteusBackend",
    "ProteusError",
    "ProteusRouter",
    "ProvisioningActuator",
    "ProvisioningSchedule",
    "RING_BACKENDS",
    "ROUTER_SCENARIOS",
    "ReadPlan",
    "Registry",
    "ReplicatedProteusRouter",
    "ReplicatedRetrievalEngine",
    "ReplicatedWebServer",
    "ResiliencePolicy",
    "RetrievalConfig",
    "RetrievalEngine",
    "RetryPolicy",
    "RingBackend",
    "Router",
    "ScenarioSpec",
    "ServerLoadEWMA",
    "StaticRouter",
    "TopKSketch",
    "TraceRecord",
    "TransitionManager",
    "UserPopulation",
    "VnodeBackend",
    "WebServer",
    "ZipfSampler",
    "compare_routers",
    "diurnal_rate",
    "evaluate_load_balance",
    "generate_trace",
    "load_proportional_schedule",
    "load_trace",
    "make_backend",
    "make_router",
    "migration_lower_bound",
    "optimal_config",
    "peak_to_average",
    "place_virtual_nodes",
    "plan_migration",
    "remap_fraction",
    "run_feedback_loop",
    "run_scenarios",
    "save_trace",
    "scenario_routers",
    "simulate_hit_ratio",
    "static_schedule",
    "sweep_cache_sizes",
    "theoretical_min_vnodes",
    "__version__",
]
