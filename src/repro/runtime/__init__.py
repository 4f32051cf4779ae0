"""Real-time runtime: the counterpart of the paper's Java prototype.

The paper validates its simulations with "a full implementation, based on
Java 2 Standard Edition … deployed on 60 workstations". This package is
that half of the methodology: the *same* sans-IO protocol objects used by
the simulator, driven in wall-clock time over a real hop.

* :mod:`repro.runtime.cluster` — the one live host: every node of a
  group, or of one shard, on one asyncio event loop run by a thread the
  host owns, over an in-memory dict hop or real UDP sockets. All live
  front doors below run it.
* :mod:`repro.runtime.codec` — the compact binary wire codec.
* :mod:`repro.runtime.transport` — the chaos rule set every send
  consults, and two reference endpoints (in-memory hub, UDP socket).
* :mod:`repro.runtime.process_cluster` / :mod:`repro.runtime.worker` —
  the shared-nothing multi-process driver: one host per worker process,
  coordinated over control pipes; each worker reports its shard as a
  :class:`~repro.scenarios.runner.LiveScenarioReport` with its
  collector, and the parent folds the reports and summarises the
  merged collectors.
* :mod:`repro.runtime.standalone` — the same shard host without the
  pipe: one process per shard of any scenario (down to one node per OS
  process), addressed through a shared port-map file, the paper's
  deployment shape in miniature.
"""

from repro.runtime.codec import BinaryCodec, CodecError
from repro.runtime.cluster import ThreadedCluster
from repro.runtime.process_cluster import (
    ProcessCluster,
    default_worker_count,
    scenario_identities,
    seeded_port_map,
)
from repro.runtime.worker import WorkerConfig, worker_main
from repro.runtime.transport import (
    ChaosRules,
    InMemoryHub,
    InMemoryTransport,
    Transport,
    UdpTransport,
)

__all__ = [
    "BinaryCodec",
    "CodecError",
    "Transport",
    "InMemoryHub",
    "InMemoryTransport",
    "UdpTransport",
    "ChaosRules",
    "ThreadedCluster",
    "ProcessCluster",
    "WorkerConfig",
    "default_worker_count",
    "scenario_identities",
    "seeded_port_map",
    "worker_main",
]
