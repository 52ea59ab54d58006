//! `stcam` — a distributed framework for spatio-temporal analysis on
//! large-scale camera networks.
//!
//! This crate is the system's core: it shards the observation stream of a
//! metropolitan camera network across a cluster of worker nodes by space,
//! executes spatio-temporal queries by scatter/gather over the shards, and
//! layers trajectory analysis (cross-camera track stitching) and standing
//! continuous queries on top.
//!
//! # Architecture
//!
//! ```text
//!  cameras ──observations──▶ Coordinator ──route by cell──▶ Worker 1..N
//!                               │   ▲                        │ StIndex
//!      range / kNN / heatmap ───┘   └──── partial results ───┘ replicas
//! ```
//!
//! * [`PartitionMap`] — space is cut into macro-cells on a Z-order curve;
//!   contiguous curve runs are assigned to workers (uniform) or packed by
//!   measured load (load-aware).
//! * [`Worker`] — owns the `stcam-index` shard for its cells, answers
//!   sub-queries through a table-driven per-operation dispatch (with
//!   per-op serve counters), evaluates continuous-query predicates at
//!   ingest, and holds replica logs written by the ingesting endpoint.
//! * [`exec`] — the typed scatter/gather layer. Every distributed
//!   operation is a [`exec::DistributedOp`] (targets / request / decode /
//!   merge); the [`exec::Executor`] owns parallel fan-out, per-operation
//!   timeout/retry policy ([`OpPolicy`] — idempotent reads retry
//!   deterministically after timeouts, migration steps never do), and
//!   per-operation telemetry ([`OpStats`]: sub-queries, retries, wire
//!   bytes, scatter/merge latency split).
//! * [`Coordinator`] — the mutex-guarded **control plane**: routes
//!   acked ingest batches, streams cell migrations for rebalance,
//!   turns probe failures into failover, and keeps the continuous-query
//!   registry. After every membership or partition mutation it
//!   *publishes* an immutable, epoch-tagged [`QueryPlan`] snapshot to
//!   the query plane.
//! * [`QueryPlane`] — the lock-free **read path**: composes queries
//!   (two-phase pruned kNN is [`exec::KnnPhase1Op`] feeding
//!   [`exec::KnnPhase2Op`], heat-maps, top-cells, …) against the current
//!   published plan, on a pool of fabric endpoints picked round-robin —
//!   N client threads scatter/gather concurrently with zero shared
//!   locking. Reads run in a [`QueryMode`]: `Strict` fails on any lost
//!   shard with [`StcamError::PartialFailure`]; `BestEffort` returns a
//!   [`Degraded`] value whose [`Completeness`] accounts for shards
//!   answered, replicas used, and shards missing. Either way the
//!   executor first tries replica failover — re-issuing a dead shard's
//!   sub-query to its ring successors — guided by a [`HealthView`] of
//!   per-node suspicion fed by every RPC outcome.
//! * [`stitch`] — converts per-camera observations into tracklets and
//!   associates them across adjacent cameras using appearance distance
//!   gated by learned transition-time windows.
//! * [`Cluster`] — the embeddable facade: spins up a fabric, N worker
//!   threads and a coordinator, and exposes the whole system behind plain
//!   method calls.
//!
//! # Example
//!
//! ```
//! use stcam::{Cluster, ClusterConfig};
//! use stcam_geo::{BBox, Point, TimeInterval, Timestamp};
//!
//! let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
//! let cluster = Cluster::launch(ClusterConfig::new(extent, 4))?;
//! // No data ingested yet: queries come back empty.
//! let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(60));
//! let hits = cluster.range_query(BBox::around(Point::new(1000.0, 1000.0), 200.0), window)?;
//! assert!(hits.is_empty());
//! cluster.shutdown();
//! # Ok::<(), stcam::StcamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
mod baseline;
pub mod chaos;
mod cluster;
mod continuous;
mod coordinator;
mod error;
pub mod exec;
mod health;
mod ingest;
pub mod paging;
mod partition;
pub(crate) mod plane;
mod protocol;
pub mod repair;
pub mod snapshot;
pub mod stitch;
mod worker;

pub use admission::{
    AdmissionControl, AdmissionTicket, Deadline, Priority, QueryCtx, ShedReason, TenantBudget,
    TenantId, TenantUsage,
};
pub use baseline::CentralizedStore;
pub use cluster::{Cluster, ClusterConfig};
pub use continuous::{ContinuousQueryId, InterestIndex, Notification, Predicate};
pub use coordinator::{ClusterStats, Coordinator, RebalanceReport, ReconstructReport};
pub use error::StcamError;
pub use exec::{Completeness, Degraded, DistributedOp, Executor, OpPolicy, OpStats, QueryMode};
pub use health::HealthView;
pub use ingest::Ingestor;
pub use partition::{PartitionMap, PartitionPolicy};
pub use plane::{QueryPlan, QueryPlane};
pub use protocol::{
    CensusRegistration, CensusReport, DigestEntry, DigestReport, GridSpecMsg, ReplicaDigestEntry,
    Request, Response, SegmentDigestEntry, WorkerStatsMsg, PROJ_FULL, PROJ_THIN,
};
pub use repair::{RepairBudget, RepairReport};
pub use worker::{Worker, WorkerConfig, WorkerHandle, STALE_EPOCH_ERROR};
