"""Query-serving daemon: load a checkpoint once, serve batched traffic.

The subsystem that turns the library into a long-lived service
(ROADMAP item 1): ``python -m repro serve`` loads an audited checkpoint
through :class:`~repro.checkpoint.recovery.CheckpointService` and
serves concurrent ``distance``/``path``/``route`` requests over a
line-delimited-JSON TCP front, with robustness as the design center —

* admission batching into the vectorized ``best_trees`` /
  ``find_paths`` kernels (:mod:`repro.serve.batcher`),
* bounded queues with explicit ``overloaded`` shedding and per-request
  deadlines with ``timeout`` responses (:mod:`repro.serve.policy`),
* live-traffic graceful degradation: a chaos controller can kill trees
  mid-traffic, answers degrade to labelled best-effort results from
  the survivors while recovery runs on a background thread
  (:mod:`repro.serve.chaos`),
* health/readiness plus the observability registry as Prometheus text
  on the same port (:mod:`repro.serve.server`),
* live mutation under churn: ``insert``/``delete``/``compact`` verbs
  journal (fsync) before patching the cover and swap generations
  atomically; in-flight batches answer on the pre-mutation snapshot
  (:mod:`repro.dynamic`, enabled with ``serve --dynamic``).

See ``docs/SERVING.md`` for the protocol and semantics.
"""

from .batcher import MicroBatcher
from .chaos import ChaosController
from .client import ServeClient, wait_for_server
from .engine import QueryEngine
from .policy import AdmissionPolicy
from .protocol import (
    ADMIN_OPS,
    MUTATION_OPS,
    PROTOCOL_VERSION,
    QUERY_OPS,
    Answers,
    ProtocolError,
    QueryBatch,
    Request,
    answer_lines,
    encode_line,
    make_response,
    parse_request,
)
from .server import SpannerServer, ThreadedServer

__all__ = [
    "ADMIN_OPS",
    "MUTATION_OPS",
    "PROTOCOL_VERSION",
    "QUERY_OPS",
    "AdmissionPolicy",
    "Answers",
    "ChaosController",
    "MicroBatcher",
    "ProtocolError",
    "QueryBatch",
    "QueryEngine",
    "Request",
    "ServeClient",
    "SpannerServer",
    "ThreadedServer",
    "answer_lines",
    "encode_line",
    "make_response",
    "parse_request",
    "wait_for_server",
]
