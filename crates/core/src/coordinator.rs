//! The coordinator: the mutex-guarded **control plane** — ingest
//! routing, membership, failover, rebalance, and continuous-query
//! bookkeeping. Reads do not pass through here: they run on the
//! lock-free [`QueryPlane`](crate::QueryPlane).
//!
//! Every distributed operation is a [`DistributedOp`] value handed to an
//! [`Executor`]; this module contributes only what is not generic:
//! ingest routing, partition-map surgery during rebalance/failover, and
//! plan publication. Read composition (two-phase kNN, heat-maps, …)
//! lives in [`QueryPlane`] so it can run without this lock.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use stcam_camnet::Observation;
use stcam_codec::decode_from_slice;
use stcam_geo::{CellId, TimeInterval, Timestamp};
use stcam_net::{Endpoint, NodeId};

use crate::continuous::{ContinuousQueryId, Notification, Predicate};
use crate::error::StcamError;
use crate::exec::{
    CellDigestOp, CensusOp, CopyRegionOp, EvictOp, Executor, ExportSegmentsOp, ExtractRegionOp,
    FlushOp, InstallSegmentsOp, OpPolicy, OpStats, ProbeOp, PromoteOp, QueryMode,
    RegisterContinuousOp, RejoinOp, RepairOp, RouteUpdateOp, SegmentDigestOp, StatsOp,
    UnregisterContinuousOp,
};
use crate::ingest::ReliableSender;
use crate::partition::PartitionMap;
use crate::plane::QueryPlane;
use crate::protocol::{
    CensusReport, DigestReport, GridSpecMsg, SegmentDigestEntry, WorkerStatsMsg,
};
use crate::repair::{self, RepairBudget, RepairReport};

/// Aggregated statistics across the cluster.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-worker statistics (alive workers only).
    pub workers: Vec<(NodeId, WorkerStatsMsg)>,
    /// Per-operation executor telemetry, sorted by operation name.
    pub ops: Vec<(&'static str, OpStats)>,
    /// Distinct owned macro-cells currently missing at least one of their
    /// required replica copies (0 when replication is disabled or the
    /// anti-entropy invariant holds — see [`Coordinator::repair`]).
    pub under_replicated_cells: usize,
}

impl ClusterStats {
    /// Total observations held in primary shards.
    pub fn total_primary(&self) -> u64 {
        self.workers
            .iter()
            .map(|(_, s)| s.primary_observations)
            .sum()
    }

    /// Approximate bytes held in memory across all primary shards
    /// (mutable heads plus resident sealed-segment payloads).
    pub fn resident_bytes(&self) -> u64 {
        self.workers.iter().map(|(_, s)| s.resident_bytes).sum()
    }

    /// Sealed immutable segments held across all primary shards.
    pub fn sealed_segments(&self) -> u64 {
        self.workers.iter().map(|(_, s)| s.sealed_segments).sum()
    }

    /// Max ÷ mean of per-worker primary observation counts (1.0 = perfect
    /// balance). Returns 1.0 for an empty cluster.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_primary();
        if total == 0 || self.workers.is_empty() {
            return 1.0;
        }
        let max = self
            .workers
            .iter()
            .map(|(_, s)| s.primary_observations)
            .max()
            .unwrap_or(0);
        max as f64 / (total as f64 / self.workers.len() as f64)
    }

    /// Executor telemetry of one operation (zeros when never invoked).
    pub fn op(&self, name: &str) -> OpStats {
        self.ops
            .iter()
            .find(|(op, _)| *op == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

/// Outcome of an online rebalance (see [`Coordinator::rebalance`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceReport {
    /// Macro-cells whose owner changed.
    pub cells_moved: usize,
    /// Observations migrated between workers.
    pub observations_moved: usize,
    /// Imbalance factor under the old map (max/mean of measured load).
    pub imbalance_before: f64,
    /// Imbalance factor of the same load under the new map.
    pub imbalance_after: f64,
}

/// Outcome of a coordinator rebuild from worker censuses (see
/// [`Coordinator::reconstruct`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconstructReport {
    /// Workers that answered the census probe, sorted.
    pub responders: Vec<NodeId>,
    /// The route epoch the rebuilt control plane published — strictly
    /// above every epoch any surviving worker reported, so the new
    /// incarnation fences out all stale route state.
    pub adopted_epoch: u64,
    /// Cells whose ownership was recovered directly from a worker claim
    /// (the rest were re-derived along the Z-order curve).
    pub claimed_cells: usize,
    /// Standing queries re-learned from worker-installed registrations.
    pub recovered_registrations: usize,
}

/// The cluster's control plane and query router.
///
/// The coordinator is driven synchronously by the client thread: ingest
/// routing and failure recovery are plain method calls. Fan-out, retry,
/// and telemetry live in the [`Executor`]; reads are served by the
/// [`QueryPlane`] (see [`query_plane`](Self::query_plane)). After every
/// mutation of the partition map or alive set the coordinator publishes
/// a fresh [`QueryPlan`](crate::QueryPlan) so lock-free readers observe
/// it.
#[derive(Debug)]
pub struct Coordinator {
    exec: Executor,
    plane: Arc<QueryPlane>,
    sender: ReliableSender,
    partition: PartitionMap,
    replication: usize,
    alive: HashSet<NodeId>,
    /// Every worker ever admitted to the cluster, dead or alive.
    /// Rebalance drops dead members from the partition ring, so this is
    /// the set [`check_and_recover`](Self::check_and_recover) probes for
    /// restarts.
    known: HashSet<NodeId>,
    next_query_id: u64,
    /// Standing queries, kept for re-registration on failover.
    registrations: HashMap<ContinuousQueryId, Predicate>,
    /// Failover promotions that failed after retries (data recovery then
    /// falls to anti-entropy repair).
    promotion_failures: u64,
    /// Standing-query re-registrations that failed during failover.
    registration_failures: u64,
}

impl Coordinator {
    /// Creates a coordinator over an already-partitioned cluster.
    ///
    /// `endpoint` carries control-plane traffic (ingest, probes,
    /// migration, continuous-query notifications); `query_endpoints`
    /// become the query plane's pool — at least one is required.
    pub fn new(
        endpoint: Endpoint,
        query_endpoints: Vec<Endpoint>,
        partition: PartitionMap,
        replication: usize,
        rpc_timeout: StdDuration,
    ) -> Self {
        let alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        let exec = Executor::new(endpoint, OpPolicy::new(rpc_timeout));
        exec.set_replication(replication);
        // Probes are single-attempt: a timeout *is* the liveness signal.
        exec.set_policy(
            "probe",
            OpPolicy::no_retry(rpc_timeout.min(StdDuration::from_millis(250))),
        );
        // Pooled executors share the coordinator executor's account:
        // one telemetry registry, one policy table, one health view.
        let shared = exec.shared();
        let pool: Vec<Executor> = query_endpoints
            .into_iter()
            .map(|ep| Executor::with_shared(ep, Arc::clone(&shared)))
            .collect();
        let plane = Arc::new(QueryPlane::new(pool, partition.clone(), alive.clone()));
        let sender = ReliableSender::new(Arc::clone(&plane), replication, rpc_timeout);
        Coordinator {
            exec,
            plane,
            sender,
            known: alive.clone(),
            partition,
            replication,
            alive,
            next_query_id: 1,
            registrations: HashMap::new(),
            promotion_failures: 0,
            registration_failures: 0,
        }
    }

    /// The lock-free query plane fed by this coordinator's plan
    /// publications. Clone the `Arc` and issue reads from any thread
    /// without taking the control-plane lock.
    pub fn query_plane(&self) -> Arc<QueryPlane> {
        Arc::clone(&self.plane)
    }

    /// Publishes the current partition map and alive set as a new
    /// [`QueryPlan`](crate::QueryPlan) epoch. Called after every
    /// membership/partition mutation.
    fn publish_plan(&self) {
        self.plane
            .publish(self.partition.clone(), self.alive.clone());
    }

    /// The current partition map.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// Replication factor (replica count per shard, excluding the
    /// primary).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Overrides the liveness-probe timeout used by
    /// [`check_and_recover`](Self::check_and_recover) (default: the lesser
    /// of the RPC timeout and 250 ms). Shorter probes detect failures
    /// faster at the cost of more false positives under load.
    pub fn set_probe_timeout(&mut self, timeout: StdDuration) {
        self.exec.set_policy("probe", OpPolicy::no_retry(timeout));
    }

    /// Installs a timeout/retry policy override for the named operation.
    pub fn set_op_policy(&self, op: &'static str, policy: OpPolicy) {
        self.exec.set_policy(op, policy);
    }

    /// Per-operation executor telemetry, sorted by operation name.
    pub fn op_stats(&self) -> Vec<(&'static str, OpStats)> {
        self.exec.op_stats()
    }

    /// The workers currently believed alive.
    pub fn alive_workers(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.alive.iter().copied().collect();
        v.sort();
        v
    }

    /// Current per-node suspicion (consecutive failed RPCs since the
    /// last success), for every node with recorded history.
    pub fn suspicions(&self) -> Vec<(NodeId, u32)> {
        self.exec.health().snapshot()
    }

    /// Failover promotions that failed after retries. Non-zero means a
    /// successor could not absorb a dead worker's replica log when its
    /// shard was reassigned; the data is restored by the next
    /// [`repair`](Self::repair) sweep instead.
    pub fn promotion_failures(&self) -> u64 {
        self.promotion_failures
    }

    /// Standing-query re-registrations that failed during failover. The
    /// affected successor misses continuous-query matches until the next
    /// registration broadcast (rebalance or rejoin) reaches it.
    pub fn registration_failures(&self) -> u64 {
        self.registration_failures
    }

    // ------------------------------------------------------------------
    // Ingest path
    // ------------------------------------------------------------------

    /// Acknowledged ingest: routes each observation to its owning worker
    /// and that worker's alive ring replicas, retries lost traffic with
    /// backoff, and hands unacked batches off to ring successors when an
    /// owner stops answering. Returns the number of observations durably
    /// **accepted** — not merely routed; anything unaccepted is parked
    /// and re-driven by [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// Fails on local problems (codec errors, fabric shutdown);
    /// unreachable workers park observations instead of erroring.
    pub fn ingest(&mut self, batch: Vec<Observation>) -> Result<usize, StcamError> {
        // The coordinator's own plan is authoritative (it publishes
        // after every mutation), so sync the sender's snapshot first.
        self.sender.refresh_plan();
        self.sender.ingest(self.exec.endpoint(), batch)
    }

    /// Write barrier: first drains the acked sender's parked window
    /// (re-delivering unacknowledged observations under fresh routing),
    /// then confirms every alive worker has drained all previously sent
    /// ingest traffic (per-link FIFO + a Ping round trip).
    ///
    /// # Errors
    ///
    /// [`StcamError::PartialFailure`] when parked observations still
    /// cannot be acknowledged; transport errors when a worker believed
    /// alive does not answer in time.
    pub fn flush(&self) -> Result<(), StcamError> {
        self.sender.drain(self.exec.endpoint())?;
        self.exec.execute(FlushOp, &self.partition, &self.alive)
    }

    /// Pushes every alive worker its slice of the current routing plan
    /// (epoch + owned cell set), arming the misroute-NACK check that
    /// lets stale senders self-heal. Per-worker failures are ignored: a
    /// worker that misses an update keeps its previous (older-epoch)
    /// route and simply NACKs less precisely until the next broadcast.
    pub fn broadcast_routes(&self) {
        let op = RouteUpdateOp::from_plan(self.plane.epoch(), &self.partition);
        for (_, result) in self.exec.run(&op, &self.partition, &self.alive) {
            let _ = result;
        }
    }

    /// Ages out observations older than `cutoff` everywhere.
    ///
    /// # Errors
    ///
    /// Propagates worker failures.
    pub fn evict_before(&self, cutoff: Timestamp) -> Result<(), StcamError> {
        let epoch = self.plane.epoch();
        self.exec
            .execute(EvictOp { cutoff, epoch }, &self.partition, &self.alive)
    }

    // ------------------------------------------------------------------
    // Online rebalancing
    // ------------------------------------------------------------------

    /// Re-partitions the cluster by *measured* per-cell load and migrates
    /// the affected shards with copy-then-cutover semantics: each moved
    /// macro-cell's contents are copied (idempotently, in bounded
    /// streaming batches) into the new owner, the new owner's replica
    /// chain is brought up to the configured factor by an anti-entropy
    /// sweep against the *target* map, and only then is the map cut over
    /// and the old copy evicted. Observations accepted by the old owner
    /// between the copy and the cutover are drained into the new owner by
    /// the eviction step, so acked data survives the move. Queries issued
    /// after this call observe the full data set under the new map.
    ///
    /// Intended for rebalance epochs when traffic has drifted from the
    /// distribution the current map was built for (see the load-balance
    /// and rebalance experiments).
    ///
    /// # Errors
    ///
    /// Propagates worker failures. A failure before the cutover leaves
    /// the old map in force (the partial copies are redundant and are
    /// garbage-collected by [`repair`](Self::repair)); a failure after
    /// the cutover leaves the new map in force with stale copies at old
    /// owners, cleaned up by re-running the rebalance.
    ///
    /// External [`Ingestor`](crate::Ingestor) handles hold routing
    /// snapshots, but heal themselves: the route broadcast after the
    /// swap arms the misroute NACK that makes their acked path refresh
    /// from the published plan.
    pub fn rebalance(&mut self) -> Result<RebalanceReport, StcamError> {
        self.rebalance_with(RepairBudget::default())
    }

    /// As [`rebalance`](Self::rebalance) with an explicit budget bounding
    /// the migration's streaming chunk size and its replica-repair
    /// rounds.
    pub fn rebalance_with(&mut self, budget: RepairBudget) -> Result<RebalanceReport, StcamError> {
        // 1. Measure the load profile: all-time per-macro-cell counts.
        let grid = *self.partition.grid();
        let loads = self
            .plane
            .heatmap_mode(QueryMode::Strict, &grid, TimeInterval::ALL)?
            .value;
        let imbalance_before = self.partition.imbalance(&loads);
        // 2. Build the target map over the alive ring.
        let alive_ring: Vec<NodeId> = self
            .partition
            .workers()
            .iter()
            .copied()
            .filter(|w| self.alive.contains(w))
            .collect();
        if alive_ring.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        let target = PartitionMap::load_aware(grid.extent(), grid.cell_size(), alive_ring, &loads);
        // 3. Copy phase: stream each moved cell from its old owner into
        // the new owner's primary shard. `Repair` with `primary ==
        // addressee` is an idempotent cell overwrite, so a retried or
        // re-run migration cannot duplicate observations the way the old
        // extract/adopt chain could.
        let moves: Vec<(CellId, NodeId, NodeId)> = grid
            .all_cells()
            .filter_map(|cell| {
                let old = self.partition.owner_of_cell(cell);
                let new = target.owner_of_cell(cell);
                (old != new && self.alive.contains(&old)).then_some((cell, old, new))
            })
            .collect();
        let gmsg = GridSpecMsg::from(grid);
        let cols = grid.cols();
        let mut observations_moved = 0usize;
        for &(cell, old, new) in &moves {
            let region = self.partition.cell_routing_region(cell);
            let contents = self.exec.execute(
                CopyRegionOp {
                    target: old,
                    region,
                },
                &self.partition,
                &self.alive,
            )?;
            observations_moved += contents.len();
            self.stream_cell(
                new,
                new,
                gmsg,
                cell.row * cols + cell.col,
                &contents,
                &budget,
            )?;
        }
        // 4. Cover phase: bring every moved cell's replica chain up to
        // the configured factor *under the target map* before any old
        // copy is dropped.
        if self.replication > 0 {
            self.repair_against(&target, budget, false);
        }
        // 5. Cutover: swap in the new map and publish it.
        self.partition = target;
        self.publish_plan();
        self.broadcast_routes();
        // 6. Evict the old copies, draining any stragglers accepted by
        // the old owner between the copy and the cutover into the new
        // owner (append without truncate: the rejoin-safe dedup on the
        // worker makes this idempotent against the copied prefix).
        for &(cell, old, new) in &moves {
            let region = self.partition.cell_routing_region(cell);
            let stragglers = self.exec.execute(
                ExtractRegionOp {
                    target: old,
                    region,
                },
                &self.partition,
                &self.alive,
            )?;
            if !stragglers.is_empty() {
                observations_moved += stragglers.len();
                let packed = cell.row * cols + cell.col;
                for chunk in stragglers.chunks(budget.chunk.max(1)) {
                    self.exec.execute(
                        RepairOp {
                            target: new,
                            primary: new,
                            grid: gmsg,
                            cell: packed,
                            truncate: false,
                            batch: chunk.to_vec(),
                        },
                        &self.partition,
                        &self.alive,
                    )?;
                }
            }
        }
        // 7. Make standing queries present at their (possibly new)
        // overlapping workers, and re-converge replica coverage for the
        // straggler drain.
        let notify = self.exec.endpoint().id();
        let registrations: Vec<(ContinuousQueryId, Predicate)> =
            self.registrations.iter().map(|(&id, &p)| (id, p)).collect();
        for (id, predicate) in registrations {
            self.exec.execute(
                RegisterContinuousOp {
                    id,
                    predicate,
                    notify,
                    only: None,
                },
                &self.partition,
                &self.alive,
            )?;
        }
        if self.replication > 0 {
            self.repair_with(budget);
        }
        let imbalance_after = self.partition.imbalance(&loads);
        Ok(RebalanceReport {
            cells_moved: moves.len(),
            observations_moved,
            imbalance_before,
            imbalance_after,
        })
    }

    /// Streams `contents` into `target`'s copy of packed cell `cell`
    /// (primary shard when `target == primary`, replica log otherwise) in
    /// bounded batches: the first chunk truncates the stale copy, the
    /// rest append. Empty contents degenerate to a pure truncation.
    fn stream_cell(
        &self,
        target: NodeId,
        primary: NodeId,
        grid: GridSpecMsg,
        cell: u32,
        contents: &[Observation],
        budget: &RepairBudget,
    ) -> Result<usize, StcamError> {
        let mut first = true;
        let mut streamed = 0usize;
        for chunk in contents.chunks(budget.chunk.max(1)) {
            self.exec.execute(
                RepairOp {
                    target,
                    primary,
                    grid,
                    cell,
                    truncate: first,
                    batch: chunk.to_vec(),
                },
                &self.partition,
                &self.alive,
            )?;
            first = false;
            streamed += chunk.len();
        }
        if first {
            self.exec.execute(
                RepairOp {
                    target,
                    primary,
                    grid,
                    cell,
                    truncate: true,
                    batch: Vec::new(),
                },
                &self.partition,
                &self.alive,
            )?;
        }
        Ok(streamed)
    }

    // ------------------------------------------------------------------
    // Anti-entropy repair
    // ------------------------------------------------------------------

    /// One anti-entropy repair pass under the default [`RepairBudget`]:
    /// sweeps per-cell digests from every alive worker, compares each
    /// owner's primary against the replica copies at its required ring
    /// successors, and streams the missing/diverged cells until the
    /// configured replication factor holds everywhere (or the budget runs
    /// out — re-invoke to continue; the sweep is idempotent).
    ///
    /// Individual worker failures during a pass are tolerated: the next
    /// round re-plans from fresh digests. The pass itself never fails.
    pub fn repair(&self) -> RepairReport {
        self.repair_with(RepairBudget::default())
    }

    /// As [`repair`](Self::repair) under an explicit [`RepairBudget`].
    pub fn repair_with(&self, budget: RepairBudget) -> RepairReport {
        self.repair_against(&self.partition.clone(), budget, true)
    }

    /// The digest-sweep/plan/stream loop behind [`repair`](Self::repair),
    /// parameterised by the partition map the invariant is judged against
    /// (rebalance repairs against its *target* map before cutover).
    ///
    /// `drain_strays` additionally reclaims primary copies of cells the
    /// map assigns elsewhere (a ceded cell whose evict was lost): each is
    /// drained into its assigned owner, then truncated. Pre-cutover
    /// callers pass `false` — against a not-yet-published target map the
    /// ceding owners still serve reads, so their copies are not stale.
    fn repair_against(
        &self,
        partition: &PartitionMap,
        budget: RepairBudget,
        drain_strays: bool,
    ) -> RepairReport {
        let mut report = RepairReport::default();
        if self.replication == 0 {
            report.converged = true;
            return report;
        }
        let grid = *partition.grid();
        let gmsg = GridSpecMsg::from(grid);
        let mut first_sweep = true;
        loop {
            let digests = self.sweep_digests(partition);
            let mut plan = repair::plan(&digests, partition, &self.alive, self.replication);
            if !drain_strays {
                plan.strays.clear();
                // Replica logs keyed by a ceding owner are not stale
                // against a not-yet-published map either: the ceding
                // owner still holds (and serves) the cell, so "stream
                // the empty truth" would fetch the still-present copy
                // and faithfully re-append it every round without ever
                // converging. Post-cutover repair reclaims these logs
                // together with the stray primary copies.
                let cols = grid.cols();
                plan.deficits.retain(|d| {
                    partition.owner_of_cell(CellId::new(d.cell % cols, d.cell / cols)) == d.owner
                });
            }
            if first_sweep {
                report.under_replicated_before = plan.under_replicated_cells;
                first_sweep = false;
            }
            report.under_replicated_after = plan.under_replicated_cells;
            if plan.is_converged() || report.rounds >= budget.max_rounds {
                report.converged = plan.is_converged();
                return report;
            }
            report.rounds += 1;
            let traffic_before = self.repair_traffic();
            // Stray primary copies of ceded cells: drain into the
            // assigned owner first (id dedup absorbs what already
            // landed), truncate the stale copy only once every chunk has
            // been accepted — a failed drain retries next round.
            for s in &plan.strays {
                let region = repair::cell_region(&grid, s.cell);
                let Ok(contents) = self.exec.execute(
                    CopyRegionOp {
                        target: s.holder,
                        region,
                    },
                    partition,
                    &self.alive,
                ) else {
                    continue;
                };
                let mut drained = true;
                for chunk in contents.chunks(budget.chunk.max(1)) {
                    let appended = self.exec.execute(
                        RepairOp {
                            target: s.owner,
                            primary: s.owner,
                            grid: gmsg,
                            cell: s.cell,
                            truncate: false,
                            batch: chunk.to_vec(),
                        },
                        partition,
                        &self.alive,
                    );
                    if appended.is_err() {
                        drained = false;
                        break;
                    }
                }
                if !drained {
                    continue;
                }
                let truncated = self.exec.execute(
                    RepairOp {
                        target: s.holder,
                        primary: s.holder,
                        grid: gmsg,
                        cell: s.cell,
                        truncate: true,
                        batch: Vec::new(),
                    },
                    partition,
                    &self.alive,
                );
                if truncated.is_ok() {
                    report.cells_repaired += 1;
                    report.observations_streamed += contents.len();
                }
            }
            // Stale copies outside the required successor sets: truncate
            // without restreaming (their alive primaries hold the data).
            for g in &plan.garbage {
                let cleaned = self.exec.execute(
                    RepairOp {
                        target: g.holder,
                        primary: g.owner,
                        grid: gmsg,
                        cell: g.cell,
                        truncate: true,
                        batch: Vec::new(),
                    },
                    partition,
                    &self.alive,
                );
                if cleaned.is_ok() {
                    report.cells_repaired += 1;
                }
            }
            // Deficits, grouped by (owner, cell) so each source copy is
            // fetched once however many holders need it.
            let mut groups: std::collections::BTreeMap<(NodeId, u32), Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for d in &plan.deficits {
                groups.entry((d.owner, d.cell)).or_default().push(d.holder);
            }
            let mut budget_left = budget.max_observations_per_round;
            'groups: for ((owner, cell), holders) in groups {
                // Budget check *before* the fetch: once the round is out
                // of stream budget, fetching the remaining copies would
                // be pure waste (they are re-planned and re-fetched next
                // round anyway).
                if budget_left == 0 {
                    break 'groups;
                }
                let region = repair::cell_region(&grid, cell);
                let Ok(contents) = self.exec.execute(
                    CopyRegionOp {
                        target: owner,
                        region,
                    },
                    partition,
                    &self.alive,
                ) else {
                    continue; // owner unreachable this round: re-planned next round
                };
                for holder in holders {
                    if let Ok(n) = self.stream_cell(holder, owner, gmsg, cell, &contents, &budget) {
                        report.cells_repaired += 1;
                        report.observations_streamed += n;
                        budget_left = budget_left.saturating_sub(n);
                    }
                    if budget_left == 0 {
                        break 'groups;
                    }
                }
            }
            self.exec
                .note_repair(1, self.repair_traffic().saturating_sub(traffic_before));
        }
    }

    /// Wire bytes attributable to repair streaming so far: repair
    /// requests sent plus cell copies received.
    fn repair_traffic(&self) -> u64 {
        self.exec.stats_for("repair").bytes_sent + self.exec.stats_for("copy_region").bytes_received
    }

    /// One digest sweep over the alive workers; non-answering workers
    /// simply contribute nothing (the planner treats their copies as
    /// missing and retries next round).
    fn sweep_digests(&self, partition: &PartitionMap) -> Vec<(NodeId, DigestReport)> {
        let op = CellDigestOp {
            grid: GridSpecMsg::from(*partition.grid()),
            only: None,
        };
        self.exec
            .run(&op, partition, &self.alive)
            .into_iter()
            .filter_map(|(w, r)| r.ok().map(|d| (w, d)))
            .collect()
    }

    /// Distinct owned macro-cells currently missing at least one required
    /// replica copy, per a fresh digest sweep (0 with replication
    /// disabled). This is the convergence gauge [`repair`](Self::repair)
    /// drives to zero.
    pub fn under_replicated_cells(&self) -> usize {
        if self.replication == 0 {
            return 0;
        }
        let digests = self.sweep_digests(&self.partition);
        repair::plan(&digests, &self.partition, &self.alive, self.replication)
            .under_replicated_cells
    }

    // ------------------------------------------------------------------
    // Continuous queries
    // ------------------------------------------------------------------

    /// Registers a standing query; matches will arrive via
    /// [`poll_notifications`](Self::poll_notifications).
    ///
    /// # Errors
    ///
    /// Fails when a shard worker cannot be reached.
    pub fn register_continuous(
        &mut self,
        predicate: Predicate,
    ) -> Result<ContinuousQueryId, StcamError> {
        let id = ContinuousQueryId(self.next_query_id);
        self.next_query_id += 1;
        let notify = self.exec.endpoint().id();
        self.exec.execute(
            RegisterContinuousOp {
                id,
                predicate,
                notify,
                only: None,
            },
            &self.partition,
            &self.alive,
        )?;
        self.registrations.insert(id, predicate);
        Ok(id)
    }

    /// Removes a standing query everywhere.
    ///
    /// # Errors
    ///
    /// Fails when a shard worker cannot be reached.
    pub fn unregister_continuous(&mut self, id: ContinuousQueryId) -> Result<(), StcamError> {
        self.registrations.remove(&id);
        self.exec
            .execute(UnregisterContinuousOp { id }, &self.partition, &self.alive)
    }

    /// Drains match notifications that have arrived since the last poll,
    /// waiting up to `timeout` for the first one.
    pub fn poll_notifications(&self, timeout: StdDuration) -> Vec<Notification> {
        let endpoint = self.exec.endpoint();
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let Some(envelope) = endpoint.recv_timeout(remaining) else {
                break;
            };
            if let Ok(notification) = decode_from_slice::<Notification>(&envelope.payload) {
                out.push(notification);
            }
            if !out.is_empty() {
                // Drain whatever else is already queued, then return.
                while let Some(envelope) = endpoint.try_recv() {
                    if let Ok(n) = decode_from_slice::<Notification>(&envelope.payload) {
                        out.push(n);
                    }
                }
                break;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Membership and recovery
    // ------------------------------------------------------------------

    /// Probes every worker believed alive; for each failure, fails its
    /// shard over to the first alive ring successor (which holds the
    /// replica when the replication factor covers it), repairs the
    /// partition map, and re-registers standing queries there. Then
    /// probes every worker believed *dead*: a restarted worker that
    /// answers is readmitted through the rejoin handshake — its state is
    /// reset, its target shard bulk-synced from the current owners, its
    /// epoch-stamped route and standing-query registrations re-installed,
    /// and the whole re-entry made visible by a single plan publication.
    /// Any membership change with replication enabled ends with an
    /// anti-entropy pass, so strict reads can rely on the ring-walked
    /// successors the new plan points them at. Returns the newly failed
    /// workers.
    pub fn check_and_recover(&mut self) -> Vec<NodeId> {
        let failed: Vec<NodeId> = self
            .exec
            .run(&ProbeOp, &self.partition, &self.alive)
            .into_iter()
            .filter_map(|(worker, result)| result.is_err().then_some(worker))
            .collect();
        for &worker in &failed {
            self.alive.remove(&worker);
        }
        for &worker in &failed {
            self.fail_over(worker);
        }
        if !failed.is_empty() {
            // One publication covering membership + every reassignment;
            // queries in flight finish on their old snapshot and are
            // caught by replica failover if they touch a dead worker.
            self.publish_plan();
            self.broadcast_routes();
        }
        let rejoined = self.try_rejoin();
        if (!failed.is_empty() || !rejoined.is_empty()) && self.replication > 0 {
            self.repair();
        }
        failed
    }

    fn fail_over(&mut self, failed: NodeId) {
        let chain = self
            .partition
            .successors(failed, self.partition.workers().len() - 1);
        let Some(successor) = chain.into_iter().find(|w| self.alive.contains(w)) else {
            return; // no quorum: nothing to repair onto
        };
        self.partition.reassign(failed, successor);
        // Absorb the replica log; data loss is bounded by in-flight
        // replication traffic at crash time. This runs even with
        // replication disabled, because hinted handoff parks acked
        // batches for a dead owner in its successor's replica log. A
        // failed promotion is counted, not swallowed: the executor has
        // already booked the failure into the "promote" telemetry and the
        // successor's suspicion, and the unabsorbed log is re-streamed by
        // the next anti-entropy pass.
        let promoted = self.exec.execute(
            PromoteOp {
                target: successor,
                failed,
                epoch: self.plane.epoch(),
            },
            &self.partition,
            &self.alive,
        );
        if promoted.is_err() {
            self.promotion_failures += 1;
        }
        // Standing queries whose region now overlaps the successor's
        // enlarged shard must be present there.
        let notify = self.exec.endpoint().id();
        let registrations: Vec<(ContinuousQueryId, Predicate)> =
            self.registrations.iter().map(|(&id, &p)| (id, p)).collect();
        for (id, predicate) in registrations {
            let registered = self.exec.execute(
                RegisterContinuousOp {
                    id,
                    predicate,
                    notify,
                    only: Some(successor),
                },
                &self.partition,
                &self.alive,
            );
            if registered.is_err() {
                self.registration_failures += 1;
            }
        }
    }

    /// Probes every known-but-dead worker and readmits the ones that
    /// answer (a restart brings the transport back with empty state).
    /// Returns the workers that completed the rejoin handshake.
    fn try_rejoin(&mut self) -> Vec<NodeId> {
        let dead: HashSet<NodeId> = self
            .known
            .iter()
            .copied()
            .filter(|w| !self.alive.contains(w))
            .collect();
        if dead.is_empty() {
            return Vec::new();
        }
        let responders: Vec<NodeId> = self
            .exec
            .run(&ProbeOp, &self.partition, &dead)
            .into_iter()
            .filter_map(|(worker, result)| result.is_ok().then_some(worker))
            .collect();
        let mut rejoined = Vec::new();
        for worker in responders {
            if self.rejoin(worker).is_ok() {
                rejoined.push(worker);
            }
        }
        rejoined
    }

    /// The rejoin handshake for one restarted worker: reset it, bulk-sync
    /// its target shard from the current owners, readmit it, and cut the
    /// plan over in a single publication. Fails (leaving the old plan in
    /// force and the worker out of the ring) only before any durable
    /// state moves; from the bulk-sync on, individual RPC failures are
    /// absorbed by the trailing anti-entropy pass.
    fn rejoin(&mut self, worker: NodeId) -> Result<(), StcamError> {
        let budget = RepairBudget::default();
        let grid = *self.partition.grid();
        let gmsg = GridSpecMsg::from(grid);
        let cols = grid.cols();
        // 1. Target map: minimal-churn admission — the rejoiner is
        // granted a fair share of the measured load carved from the most
        // loaded veterans, and every other assignment is preserved. A
        // from-scratch load-aware rebuild here would reshuffle ownership
        // across the whole keyspace and make the pre-cutover replica
        // covering (step 5) re-stream nearly every cell; carving keeps
        // the covering proportional to the share actually moved.
        let loads = self
            .plane
            .heatmap_mode(QueryMode::BestEffort, &grid, TimeInterval::ALL)
            .map(|d| d.value)
            .unwrap_or_else(|_| vec![1; grid.cell_count() as usize]);
        let target = self.partition.admit(worker, &loads);
        let cells: Vec<u32> = target
            .cells_of(worker)
            .into_iter()
            .map(|c| c.row * cols + c.col)
            .collect();
        // 2. Handshake: reset the restarted worker's state and install
        // its route, stamped with the epoch the cutover below publishes.
        self.exec.execute(
            RejoinOp {
                target: worker,
                epoch: self.plane.epoch() + 1,
                grid: gmsg,
                cells: cells.clone(),
            },
            &self.partition,
            &self.alive,
        )?;
        // 3. Bulk-sync: ship every assigned cell from its current owner
        // into the rejoiner's primary shard as whole sealed segments
        // (split at cell boundaries, installed without row-by-row
        // re-indexing) plus the owner's loose mutable-head rows. The
        // digest skip list keeps a retried handshake cheap — segments the
        // rejoiner already holds are never re-exported — and the
        // deterministic split makes retried frames digest-identical, so
        // the dedup holds across retries.
        let moves: Vec<(u32, NodeId)> = cells
            .iter()
            .map(|&packed| {
                let cell = CellId::new(packed % cols, packed / cols);
                (packed, self.partition.owner_of_cell(cell))
            })
            .filter(|(_, old)| *old != worker && self.alive.contains(old))
            .collect();
        let mut installed: Vec<SegmentDigestEntry> = self
            .exec
            .execute(
                SegmentDigestOp { target: worker },
                &self.partition,
                &self.alive,
            )
            .unwrap_or_default();
        for &(packed, old) in &moves {
            let region = repair::cell_region(&grid, packed);
            let (frames, head) = self.exec.execute(
                ExportSegmentsOp {
                    target: old,
                    region,
                    skip: installed.clone(),
                },
                &self.partition,
                &self.alive,
            )?;
            installed.extend(frames.iter().map(|f| SegmentDigestEntry {
                number: f.number,
                count: f.count,
                checksum: f.checksum,
            }));
            let mut head_chunks = head.chunks(budget.chunk.max(1));
            let first = head_chunks.next().unwrap_or(&[]).to_vec();
            if !frames.is_empty() || !first.is_empty() {
                self.exec.execute(
                    InstallSegmentsOp {
                        target: worker,
                        frames,
                        head: first,
                    },
                    &self.partition,
                    &self.alive,
                )?;
            }
            for chunk in head_chunks {
                self.exec.execute(
                    InstallSegmentsOp {
                        target: worker,
                        frames: Vec::new(),
                        head: chunk.to_vec(),
                    },
                    &self.partition,
                    &self.alive,
                )?;
            }
        }
        // 4. Readmit: a fresh incarnation gets a fresh suspicion history
        // (the old one's accumulated failures must not demote it).
        self.alive.insert(worker);
        self.known.insert(worker);
        self.exec.health().forget(worker);
        // 5. Cover the rejoiner's cells at their required successors
        // under the target map before any old copy is dropped. The
        // covering is one-shot work proportional to the whole target
        // map (readmitting a worker shifts ring successors broadly), so
        // it runs under the bulk budget: one digest sweep and one copy
        // fetch per cell instead of a fresh sweep every 8 k rows.
        if self.replication > 0 {
            self.repair_against(&target, RepairBudget::bulk(), false);
        }
        // 6. Cutover: one publication atomically re-enters the worker.
        self.partition = target;
        self.publish_plan();
        self.broadcast_routes();
        // 7. Standing queries must be present at the fresh incarnation
        // (the reset dropped the old registrations).
        let notify = self.exec.endpoint().id();
        let registrations: Vec<(ContinuousQueryId, Predicate)> =
            self.registrations.iter().map(|(&id, &p)| (id, p)).collect();
        for (id, predicate) in registrations {
            let registered = self.exec.execute(
                RegisterContinuousOp {
                    id,
                    predicate,
                    notify,
                    only: Some(worker),
                },
                &self.partition,
                &self.alive,
            );
            if registered.is_err() {
                self.registration_failures += 1;
            }
        }
        // 8. Evict the ceded copies, draining stragglers accepted by the
        // old owners between the bulk-sync and the cutover into the
        // rejoiner (append without truncate: worker-side dedup makes the
        // overlap with the synced prefix harmless).
        for &(packed, old) in &moves {
            let region = repair::cell_region(&grid, packed);
            let Ok(stragglers) = self.exec.execute(
                ExtractRegionOp {
                    target: old,
                    region,
                },
                &self.partition,
                &self.alive,
            ) else {
                continue; // stale copy lingers; a rerun extracts it
            };
            if stragglers.is_empty() {
                continue;
            }
            for chunk in stragglers.chunks(budget.chunk.max(1)) {
                let _ = self.exec.execute(
                    RepairOp {
                        target: worker,
                        primary: worker,
                        grid: gmsg,
                        cell: packed,
                        truncate: false,
                        batch: chunk.to_vec(),
                    },
                    &self.partition,
                    &self.alive,
                );
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Coordinator crash recovery
    // ------------------------------------------------------------------

    /// Standing-query registrations currently tracked by the control
    /// plane, id-sorted. After [`reconstruct`](Self::reconstruct) this is
    /// exactly what the surviving workers reported.
    pub fn registrations(&self) -> Vec<(ContinuousQueryId, Predicate)> {
        let mut v: Vec<(ContinuousQueryId, Predicate)> =
            self.registrations.iter().map(|(&id, &p)| (id, p)).collect();
        v.sort_by_key(|(id, _)| id.0);
        v
    }

    /// Rebuilds this coordinator's entire volatile state from the
    /// surviving cluster, the way a freshly started coordinator instance
    /// recovers after a crash: nothing the previous incarnation believed
    /// is trusted, only what workers report.
    ///
    /// The sequence:
    ///
    /// 1. **Probe** every candidate; responders form the new alive set.
    /// 2. **Census** the responders: installed route epoch, owned primary
    ///    cells, replica-log keys, locally-installed standing
    ///    registrations.
    /// 3. **Fence**: adopt an epoch strictly above every reported (and
    ///    previously published) epoch, so workers reject any straggling
    ///    older coordinator instance from here on.
    /// 4. **Rebuild ownership** from reported claims — on conflicting
    ///    claims the one installed at the highest route epoch wins
    ///    (lowest node id breaks ties) — and fill unclaimed cells along
    ///    the Z-order curve.
    /// 5. **Recover standing queries** from worker truth and re-register
    ///    them cluster-wide.
    /// 6. **Promote** replica logs held for dead members, publish the new
    ///    plan at the adopted epoch, broadcast routes, and drive
    ///    anti-entropy repair to convergence.
    ///
    /// A worker that a census names as a replica-log source but that did
    /// not answer the probe joins the *known* roster, so a later
    /// [`check_and_recover`](Self::check_and_recover) still probes it for
    /// rejoin even though this incarnation never saw it alive.
    ///
    /// # Errors
    ///
    /// [`StcamError::NoQuorum`] when no candidate answers the probe; the
    /// previous state is left untouched in that case.
    pub fn reconstruct(&mut self, candidates: &[NodeId]) -> Result<ReconstructReport, StcamError> {
        // 1. Probe: the roster starts from who answers, not from any
        // remembered membership.
        let pool: HashSet<NodeId> = candidates.iter().copied().collect();
        let responders: HashSet<NodeId> = self
            .exec
            .run(&ProbeOp, &self.partition, &pool)
            .into_iter()
            .filter_map(|(worker, result)| result.is_ok().then_some(worker))
            .collect();
        if responders.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        // 2. Census (single round: the op is idempotent and a non-answer
        // just narrows the evidence this rebuild works from).
        let reports: Vec<(NodeId, CensusReport)> = self
            .exec
            .run(&CensusOp, &self.partition, &responders)
            .into_iter()
            .filter_map(|(worker, result)| result.ok().map(|r| (worker, r)))
            .collect();
        // 3. Epoch adoption: strictly above everything any worker has
        // installed *and* above whatever this process previously
        // published, fencing both stale workers and zombie coordinators.
        let census_max = reports.iter().map(|(_, r)| r.epoch).max().unwrap_or(0);
        let adopted = census_max.max(self.plane.epoch()) + 1;
        // 4. Ownership: the highest-epoch claim per cell wins. Claims are
        // only comparable within one grid, so reports carrying a foreign
        // grid (none occur in practice) contribute no claims.
        let grid = reports
            .iter()
            .filter_map(|(_, r)| r.grid.map(|g| (r.epoch, g)))
            .max_by_key(|(epoch, _)| *epoch)
            .map(|(_, g)| g.to_grid())
            .unwrap_or(*self.partition.grid());
        let gmsg = GridSpecMsg::from(grid);
        let cell_count = grid.cell_count() as usize;
        let mut best: Vec<Option<(u64, NodeId)>> = vec![None; cell_count];
        for (worker, report) in &reports {
            if report.grid != Some(gmsg) {
                continue;
            }
            for &packed in &report.cells {
                let Some(slot) = best.get_mut(packed as usize) else {
                    continue;
                };
                let replace = match *slot {
                    None => true,
                    Some((e, n)) => report.epoch > e || (report.epoch == e && *worker < n),
                };
                if replace {
                    *slot = Some((report.epoch, *worker));
                }
            }
        }
        let claimed_cells = best.iter().filter(|c| c.is_some()).count();
        let claimed: Vec<Option<NodeId>> = best.iter().map(|c| c.map(|(_, n)| n)).collect();
        let mut members: Vec<NodeId> = responders.iter().copied().collect();
        members.sort();
        let partition = PartitionMap::from_claims(grid, members, &claimed);
        // The known roster keeps census-reported replica-log sources even
        // when they are down right now: they remain probe-able for rejoin.
        let mut known = responders.clone();
        for (_, report) in &reports {
            known.extend(report.replica_of.iter().copied());
        }
        // 5. Standing queries, from worker truth.
        let mut registrations: HashMap<ContinuousQueryId, Predicate> = HashMap::new();
        let mut max_id = 0u64;
        for (_, report) in &reports {
            for reg in &report.registrations {
                max_id = max_id.max(reg.id.0);
                registrations.entry(reg.id).or_insert(reg.predicate);
            }
        }
        self.partition = partition;
        self.alive = responders.clone();
        self.known = known;
        self.registrations = registrations;
        self.next_query_id = max_id + 1;
        self.promotion_failures = 0;
        self.registration_failures = 0;
        // A fresh incarnation starts with a fresh suspicion history.
        for &worker in &pool {
            self.exec.health().forget(worker);
        }
        // 6. Absorb replica logs held for dead members into their
        // holders' primaries (the new map owns those cells somewhere in
        // the surviving ring; repair redistributes afterwards), then make
        // the rebuilt plan visible in one publication.
        let mut dead: Vec<NodeId> = self.known.difference(&self.alive).copied().collect();
        dead.sort();
        for failed in dead {
            let holders: Vec<NodeId> = reports
                .iter()
                .filter(|(_, r)| r.replica_of.contains(&failed))
                .map(|(w, _)| *w)
                .collect();
            for target in holders {
                let promoted = self.exec.execute(
                    PromoteOp {
                        target,
                        failed,
                        epoch: adopted,
                    },
                    &self.partition,
                    &self.alive,
                );
                if promoted.is_err() {
                    self.promotion_failures += 1;
                }
            }
        }
        self.plane
            .publish_at(adopted, self.partition.clone(), self.alive.clone());
        self.broadcast_routes();
        let notify = self.exec.endpoint().id();
        for (id, predicate) in self.registrations() {
            let registered = self.exec.execute(
                RegisterContinuousOp {
                    id,
                    predicate,
                    notify,
                    only: None,
                },
                &self.partition,
                &self.alive,
            );
            if registered.is_err() {
                self.registration_failures += 1;
            }
        }
        if self.replication > 0 {
            self.repair_against(&self.partition, RepairBudget::bulk(), true);
        }
        let mut responders: Vec<NodeId> = responders.into_iter().collect();
        responders.sort();
        Ok(ReconstructReport {
            responders,
            adopted_epoch: adopted,
            claimed_cells,
            recovered_registrations: self.registrations.len(),
        })
    }

    /// Collects statistics from every alive worker, plus the executor's
    /// per-operation telemetry and the live under-replication gauge (the
    /// latter costs one digest sweep when replication is enabled).
    ///
    /// # Errors
    ///
    /// Fails when a worker believed alive does not answer.
    pub fn stats(&self) -> Result<ClusterStats, StcamError> {
        let workers = self.exec.execute(StatsOp, &self.partition, &self.alive)?;
        Ok(ClusterStats {
            workers,
            ops: self.exec.op_stats(),
            under_replicated_cells: self.under_replicated_cells(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(counts: &[u64]) -> ClusterStats {
        ClusterStats {
            workers: counts
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    (
                        NodeId(i as u32 + 1),
                        WorkerStatsMsg {
                            primary_observations: c,
                            ..Default::default()
                        },
                    )
                })
                .collect(),
            ops: Vec::new(),
            under_replicated_cells: 0,
        }
    }

    #[test]
    fn cluster_stats_totals_and_imbalance() {
        let s = stats_with(&[100, 100, 100, 100]);
        assert_eq!(s.total_primary(), 400);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
        let skewed = stats_with(&[400, 0, 0, 0]);
        assert!((skewed.imbalance() - 4.0).abs() < 1e-12);
        // Degenerate cases fall back to 1.0.
        assert_eq!(stats_with(&[]).imbalance(), 1.0);
        assert_eq!(stats_with(&[0, 0]).imbalance(), 1.0);
    }

    #[test]
    fn cluster_stats_op_lookup() {
        let mut s = stats_with(&[1]);
        s.ops.push((
            "range",
            OpStats {
                invocations: 3,
                ..Default::default()
            },
        ));
        assert_eq!(s.op("range").invocations, 3);
        assert_eq!(s.op("heatmap"), OpStats::default());
    }

    #[test]
    fn rebalance_report_is_plain_data() {
        let r = RebalanceReport {
            cells_moved: 3,
            observations_moved: 42,
            imbalance_before: 2.5,
            imbalance_after: 1.1,
        };
        let s = format!("{r:?}");
        assert!(s.contains("cells_moved: 3"));
        assert!(r.imbalance_after < r.imbalance_before);
    }
}
