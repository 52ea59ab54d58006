//! The lock-free query plane: epoch-published routing plans and a pool
//! of per-caller executors.
//!
//! Historically every read went through the coordinator's mutex, so N
//! client threads serialised on a single lock (and a single fabric
//! endpoint) even though scatter/gather itself is embarrassingly
//! parallel. This module splits that responsibility:
//!
//! * The **control plane** (the [`Coordinator`](crate::Coordinator),
//!   still mutex-guarded) owns membership, recovery, rebalance, and the
//!   continuous-query registry. Whenever it mutates the partition map or
//!   the alive set it *publishes* a fresh immutable [`QueryPlan`]
//!   snapshot here, tagged with a monotonically increasing epoch.
//! * The **query plane** ([`QueryPlane`]) serves reads. A query clones
//!   the current `Arc<QueryPlan>` (one brief `RwLock` read — never held
//!   across I/O), picks a pooled [`Executor`] round-robin, and runs the
//!   scatter/gather entirely against that immutable snapshot. Reads
//!   share **no** lock with each other or with the control plane.
//!
//! Consistency model: a query runs against the plan that was current
//! when it started. A concurrently published plan (failover, rebalance)
//! is observed by the *next* query. Stale-plan sub-queries that hit a
//! dead worker are absorbed by the executor's replica-failover path and
//! surface, at worst, as a [`Completeness`] deficit — exactly the same
//! contract as before, minus the global lock.
//!
//! All pooled executors share one [`ExecShared`](crate::exec) account,
//! so per-operation telemetry, policy overrides, and the
//! [`HealthView`](crate::HealthView) are cluster-wide no matter which
//! endpoint carried a given call.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use stcam_camnet::Observation;
use stcam_geo::{BBox, CellId, GridSpec, Point, TimeInterval};
use stcam_net::NodeId;

use crate::admission::{AdmissionControl, AdmissionTicket, QueryCtx};
use crate::error::StcamError;
use crate::exec::{
    Completeness, Degraded, Executor, HeatmapOp, KnnBroadcastOp, KnnPhase1Op, KnnPhase2Op, OpStats,
    QueryMode, RangeFilteredOp, RangeOp, TopCellsOp,
};
use crate::health::HealthView;
use crate::partition::PartitionMap;
use crate::protocol::GridSpecMsg;

/// An immutable routing snapshot: everything a read needs to scatter.
///
/// Published as a whole by the control plane; readers clone the `Arc`
/// and never observe a partially updated map/alive-set pair.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Publication counter; strictly increasing, starts at 1.
    pub epoch: u64,
    /// The partition map current at publication time.
    pub partition: PartitionMap,
    /// The workers believed alive at publication time.
    pub alive: HashSet<NodeId>,
}

/// The concurrent read path: an epoch-published [`QueryPlan`] plus a
/// pool of fabric endpoints, one of which each query borrows
/// round-robin.
///
/// All methods take `&self` and are safe to call from any number of
/// threads; none of them acquires the coordinator's control-plane lock.
#[derive(Debug)]
pub struct QueryPlane {
    plan: RwLock<Arc<QueryPlan>>,
    pool: Vec<Executor>,
    next: AtomicUsize,
    /// The multi-tenant gate every context-carrying entry point
    /// consults before scattering. Legacy (`*_mode`) entry points
    /// bypass it, so single-tenant embedders pay nothing.
    admission: Arc<AdmissionControl>,
}

impl QueryPlane {
    /// Builds the plane over an executor pool and an initial plan
    /// (published as epoch 1).
    ///
    /// # Panics
    ///
    /// Panics when `pool` is empty: a query plane with no endpoint
    /// cannot serve reads.
    pub(crate) fn new(
        pool: Vec<Executor>,
        partition: PartitionMap,
        alive: HashSet<NodeId>,
    ) -> Self {
        assert!(!pool.is_empty(), "query plane needs at least one endpoint");
        QueryPlane {
            plan: RwLock::new(Arc::new(QueryPlan {
                epoch: 1,
                partition,
                alive,
            })),
            pool,
            next: AtomicUsize::new(0),
            admission: Arc::new(AdmissionControl::new()),
        }
    }

    /// The multi-tenant admission gate: register budgets, configure the
    /// saturation width, and read per-tenant usage through this handle.
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// The current plan snapshot. Cheap: one `RwLock` read and an `Arc`
    /// clone; the lock is released before this returns.
    pub fn plan(&self) -> Arc<QueryPlan> {
        Arc::clone(&self.plan.read())
    }

    /// The epoch of the currently published plan.
    pub fn epoch(&self) -> u64 {
        self.plan.read().epoch
    }

    /// Atomically replaces the published plan with `partition`/`alive`
    /// at the next epoch. Called by the control plane after every
    /// membership or partition mutation; in-flight queries keep their
    /// old snapshot, subsequent queries observe this one.
    pub(crate) fn publish(&self, partition: PartitionMap, alive: HashSet<NodeId>) -> u64 {
        let mut slot = self.plan.write();
        let epoch = slot.epoch + 1;
        *slot = Arc::new(QueryPlan {
            epoch,
            partition,
            alive,
        });
        epoch
    }

    /// Atomically replaces the published plan at an *explicit* epoch —
    /// the coordinator-reconstruction path, where the adopted epoch comes
    /// from the surviving workers' census (max reported + 1) rather than
    /// from this instance's own (lost) counter. Refuses to move the plane
    /// backwards: the published epoch is monotone even across a botched
    /// reconstruction.
    ///
    /// # Panics
    ///
    /// Panics when `epoch` is not beyond the currently published epoch.
    pub(crate) fn publish_at(
        &self,
        epoch: u64,
        partition: PartitionMap,
        alive: HashSet<NodeId>,
    ) -> u64 {
        let mut slot = self.plan.write();
        assert!(
            epoch > slot.epoch,
            "reconstructed epoch {} must exceed published epoch {}",
            epoch,
            slot.epoch
        );
        *slot = Arc::new(QueryPlan {
            epoch,
            partition,
            alive,
        });
        epoch
    }

    /// Borrows the next pooled executor round-robin. Endpoints support
    /// concurrent calls (correlation ids), so even `threads > pool`
    /// oversubscription stays correct — pooling only spreads contention.
    fn executor(&self) -> &Executor {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        &self.pool[n % self.pool.len()]
    }

    /// Shared per-node suspicion view (common to every pooled endpoint
    /// and the control plane).
    pub fn health(&self) -> &Arc<HealthView> {
        self.pool[0].health()
    }

    /// Cluster-wide per-operation telemetry, sorted by operation name.
    /// One account across the coordinator and every pooled endpoint.
    pub fn op_stats(&self) -> Vec<(&'static str, OpStats)> {
        self.pool[0].op_stats()
    }

    // ------------------------------------------------------------------
    // Queries — each method snapshots the plan once and runs every
    // phase of the operation against that same snapshot, on the
    // executor's degraded path: per-shard replica failover, then a merge
    // over whatever survived. `QueryMode` decides what an incomplete
    // answer becomes: `Strict` converts it into
    // `StcamError::PartialFailure`, `BestEffort` hands it to the caller
    // with its `Completeness` account.
    // ------------------------------------------------------------------

    /// All observations in `region` × `window`, merged across shards and
    /// sorted by id.
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] when a shard answered from neither
    /// its primary nor a replica.
    pub fn range_query_mode(
        &self,
        mode: QueryMode,
        region: BBox,
        window: TimeInterval,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        self.range_query_pushdown_mode(mode, region, window, 0, crate::protocol::PROJ_FULL)
    }

    /// [`range_query_mode`](Self::range_query_mode) with result-size and
    /// column pushdown: each shard keeps only its `limit` lowest-id rows
    /// (0 = unlimited; the merge re-truncates globally, so the answer is
    /// the unlimited query's first `limit` rows in id order), and
    /// `projection` [`PROJ_THIN`](crate::PROJ_THIN) blanks the signature
    /// and ground-truth columns at the worker so they never cross the
    /// wire.
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn range_query_pushdown_mode(
        &self,
        mode: QueryMode,
        region: BBox,
        window: TimeInterval,
        limit: u32,
        projection: u8,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        let plan = self.plan();
        let d = self.executor().execute_degraded(
            RangeOp {
                region,
                window,
                limit,
                projection,
            },
            &plan.partition,
            &plan.alive,
        );
        finish(mode, d)
    }

    /// The `k` observations nearest to `at` within `window`, via two-phase
    /// pruned search — two composed ops: the owner of `at`'s cell answers
    /// first ([`KnnPhase1Op`]), its k-th distance bounds the disk that
    /// phase two scatters to ([`KnnPhase2Op`]). The completeness accounts
    /// of both phases are folded together; a degraded kNN is *not* a
    /// subset of the true answer (`subset = false`), since a lost shard
    /// can promote farther neighbours into the top-k. Both phases run
    /// against one plan snapshot, so an interleaved failover cannot split
    /// the query across two routing views.
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] on lost shards;
    /// [`StcamError::NoQuorum`] when no worker can anchor phase one.
    pub fn knn_query_mode(
        &self,
        mode: QueryMode,
        at: Point,
        window: TimeInterval,
        k: usize,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        if k == 0 {
            return Ok(Degraded {
                value: Vec::new(),
                completeness: empty_completeness(),
            });
        }
        let plan = self.plan();
        let exec = self.executor();
        let owner = route_owner(
            plan.partition.owner_of(at),
            &plan.partition,
            &plan.alive,
            exec.health(),
        )?;
        let phase1 = exec.execute_degraded(
            KnnPhase1Op {
                owner,
                at,
                window,
                k,
            },
            &plan.partition,
            &plan.alive,
        );
        let mut completeness = phase1.completeness;
        let seed = phase1.value;
        let bound = if seed.len() >= k {
            seed.last().map(|o| at.distance(o.position))
        } else {
            None
        };
        let phase2 = exec.execute_degraded(
            KnnPhase2Op {
                at,
                window,
                k,
                bound,
                exclude: owner,
                seed,
            },
            &plan.partition,
            &plan.alive,
        );
        completeness.absorb(phase2.completeness);
        finish(
            mode,
            Degraded {
                value: phase2.value,
                completeness,
            },
        )
    }

    /// The naive kNN evaluation — broadcast to every worker with no
    /// pruning bound. Baseline for the kNN experiment.
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn knn_broadcast_mode(
        &self,
        mode: QueryMode,
        at: Point,
        window: TimeInterval,
        k: usize,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        if k == 0 {
            return Ok(Degraded {
                value: Vec::new(),
                completeness: empty_completeness(),
            });
        }
        let plan = self.plan();
        let d = self.executor().execute_degraded(
            KnnBroadcastOp { at, window, k },
            &plan.partition,
            &plan.alive,
        );
        finish(mode, d)
    }

    /// Per-bucket observation counts with worker-side partial aggregation:
    /// each worker reduces its shard to sparse bucket counts, the merge
    /// sums them into the dense grid.
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn heatmap_mode(
        &self,
        mode: QueryMode,
        buckets: &GridSpec,
        window: TimeInterval,
    ) -> Result<Degraded<Vec<u64>>, StcamError> {
        let plan = self.plan();
        let d = self.executor().execute_degraded(
            HeatmapOp {
                buckets: GridSpecMsg::from(*buckets),
                window,
            },
            &plan.partition,
            &plan.alive,
        );
        finish(mode, d)
    }

    /// The `k` densest buckets of `buckets` × `window`, ranked by count
    /// (ties by cell index). Workers ship only their occupied buckets. A
    /// degraded ranking is not a subset of the true one (`subset =
    /// false`): a lost shard's counts can change which cells rank.
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn top_cells_mode(
        &self,
        mode: QueryMode,
        buckets: &GridSpec,
        window: TimeInterval,
        k: usize,
    ) -> Result<Degraded<Vec<(CellId, u64)>>, StcamError> {
        let plan = self.plan();
        let d = self.executor().execute_degraded(
            TopCellsOp {
                buckets: GridSpecMsg::from(*buckets),
                window,
                k,
            },
            &plan.partition,
            &plan.alive,
        );
        finish(mode, d)
    }

    /// As [`range_query_mode`](Self::range_query_mode) with an
    /// entity-class filter pushed down to the workers ("trucks inside A").
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn range_query_filtered_mode(
        &self,
        mode: QueryMode,
        region: BBox,
        window: TimeInterval,
        class: stcam_world::EntityClass,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        self.range_query_filtered_pushdown_mode(
            mode,
            region,
            window,
            class,
            0,
            crate::protocol::PROJ_FULL,
        )
    }

    /// [`range_query_filtered_mode`](Self::range_query_filtered_mode)
    /// with result-size and column pushdown (see
    /// [`range_query_pushdown_mode`](Self::range_query_pushdown_mode)).
    ///
    /// # Errors
    ///
    /// With [`QueryMode::Strict`], fails with
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn range_query_filtered_pushdown_mode(
        &self,
        mode: QueryMode,
        region: BBox,
        window: TimeInterval,
        class: stcam_world::EntityClass,
        limit: u32,
        projection: u8,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        let plan = self.plan();
        let d = self.executor().execute_degraded(
            RangeFilteredOp {
                region,
                window,
                class: class.as_u8(),
                limit,
                projection,
            },
            &plan.partition,
            &plan.alive,
        );
        finish(mode, d)
    }

    // ------------------------------------------------------------------
    // Multi-tenant entry points — every query below passes the
    // admission gate before scattering, runs with its deadline clamped
    // into the sub-query timeouts, and has its wire bytes attributed to
    // the tenant afterwards. A shed query is downgraded to best-effort
    // and its answer carries the reason in `Completeness::shed`.
    // ------------------------------------------------------------------

    /// Gates one query for `ctx`. Scatter width is estimated as the
    /// alive set — the upper bound every broadcast-shaped read obeys —
    /// so width reservations are conservative and uniform.
    fn admit_for(
        &self,
        ctx: &QueryCtx,
        mode: QueryMode,
        plan: &QueryPlan,
    ) -> Result<AdmissionTicket<'_>, StcamError> {
        self.admission.admit(ctx, mode, plan.alive.len().max(1))
    }

    /// Charges the call's wire bytes to the tenant, stamps the shed
    /// reason into the answer, and applies the *effective* (possibly
    /// downgraded) mode.
    fn settle<T>(
        ticket: &AdmissionTicket<'_>,
        bytes: &AtomicU64,
        mut d: Degraded<T>,
    ) -> Result<Degraded<T>, StcamError> {
        ticket.charge_bytes(bytes.load(Ordering::Relaxed));
        d.completeness.shed = ticket.shed().or(d.completeness.shed);
        finish(ticket.mode(), d)
    }

    /// [`range_query_mode`](Self::range_query_mode) through the
    /// multi-tenant gate.
    ///
    /// # Errors
    ///
    /// [`StcamError::AdmissionRejected`] when a budget or the deadline
    /// turns the query away; with an effective [`QueryMode::Strict`],
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn range_query_ctx(
        &self,
        ctx: &QueryCtx,
        mode: QueryMode,
        region: BBox,
        window: TimeInterval,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        let plan = self.plan();
        let ticket = self.admit_for(ctx, mode, &plan)?;
        let bytes = AtomicU64::new(0);
        let d = self.executor().execute_degraded_ctx(
            RangeOp {
                region,
                window,
                limit: 0,
                projection: crate::protocol::PROJ_FULL,
            },
            &plan.partition,
            &plan.alive,
            ticket.deadline(),
            Some(&bytes),
        );
        Self::settle(&ticket, &bytes, d)
    }

    /// [`knn_query_mode`](Self::knn_query_mode) through the
    /// multi-tenant gate. Both phases run under the same ticket: one
    /// admission charge, one byte attribution, one deadline budget
    /// shrinking across the phases.
    ///
    /// # Errors
    ///
    /// [`StcamError::AdmissionRejected`] at the gate;
    /// [`StcamError::NoQuorum`] when no worker can anchor phase one;
    /// with an effective [`QueryMode::Strict`],
    /// [`StcamError::PartialFailure`] on lost shards.
    pub fn knn_query_ctx(
        &self,
        ctx: &QueryCtx,
        mode: QueryMode,
        at: Point,
        window: TimeInterval,
        k: usize,
    ) -> Result<Degraded<Vec<Observation>>, StcamError> {
        if k == 0 {
            return Ok(Degraded {
                value: Vec::new(),
                completeness: empty_completeness(),
            });
        }
        let plan = self.plan();
        let ticket = self.admit_for(ctx, mode, &plan)?;
        let bytes = AtomicU64::new(0);
        let exec = self.executor();
        let owner = route_owner(
            plan.partition.owner_of(at),
            &plan.partition,
            &plan.alive,
            exec.health(),
        )?;
        let phase1 = exec.execute_degraded_ctx(
            KnnPhase1Op {
                owner,
                at,
                window,
                k,
            },
            &plan.partition,
            &plan.alive,
            ticket.deadline(),
            Some(&bytes),
        );
        let mut completeness = phase1.completeness;
        let seed = phase1.value;
        let bound = if seed.len() >= k {
            seed.last().map(|o| at.distance(o.position))
        } else {
            None
        };
        let phase2 = exec.execute_degraded_ctx(
            KnnPhase2Op {
                at,
                window,
                k,
                bound,
                exclude: owner,
                seed,
            },
            &plan.partition,
            &plan.alive,
            ticket.deadline(),
            Some(&bytes),
        );
        completeness.absorb(phase2.completeness);
        Self::settle(
            &ticket,
            &bytes,
            Degraded {
                value: phase2.value,
                completeness,
            },
        )
    }

    /// [`heatmap_mode`](Self::heatmap_mode) through the multi-tenant
    /// gate.
    ///
    /// # Errors
    ///
    /// [`StcamError::AdmissionRejected`] at the gate; with an effective
    /// [`QueryMode::Strict`], [`StcamError::PartialFailure`] on lost
    /// shards.
    pub fn heatmap_ctx(
        &self,
        ctx: &QueryCtx,
        mode: QueryMode,
        buckets: &GridSpec,
        window: TimeInterval,
    ) -> Result<Degraded<Vec<u64>>, StcamError> {
        let plan = self.plan();
        let ticket = self.admit_for(ctx, mode, &plan)?;
        let bytes = AtomicU64::new(0);
        let d = self.executor().execute_degraded_ctx(
            HeatmapOp {
                buckets: GridSpecMsg::from(*buckets),
                window,
            },
            &plan.partition,
            &plan.alive,
            ticket.deadline(),
            Some(&bytes),
        );
        Self::settle(&ticket, &bytes, d)
    }

    /// [`top_cells_mode`](Self::top_cells_mode) through the
    /// multi-tenant gate.
    ///
    /// # Errors
    ///
    /// [`StcamError::AdmissionRejected`] at the gate; with an effective
    /// [`QueryMode::Strict`], [`StcamError::PartialFailure`] on lost
    /// shards.
    pub fn top_cells_ctx(
        &self,
        ctx: &QueryCtx,
        mode: QueryMode,
        buckets: &GridSpec,
        window: TimeInterval,
        k: usize,
    ) -> Result<Degraded<Vec<(CellId, u64)>>, StcamError> {
        let plan = self.plan();
        let ticket = self.admit_for(ctx, mode, &plan)?;
        let bytes = AtomicU64::new(0);
        let d = self.executor().execute_degraded_ctx(
            TopCellsOp {
                buckets: GridSpecMsg::from(*buckets),
                window,
                k,
            },
            &plan.partition,
            &plan.alive,
            ticket.deadline(),
            Some(&bytes),
        );
        Self::settle(&ticket, &bytes, d)
    }
}

/// Applies the query mode to a degraded result: strict callers get
/// [`StcamError::PartialFailure`] unless every shard answered.
pub(crate) fn finish<T>(mode: QueryMode, d: Degraded<T>) -> Result<Degraded<T>, StcamError> {
    match mode {
        QueryMode::Strict if !d.completeness.is_full() => Err(StcamError::PartialFailure {
            missing: d.completeness.missing,
        }),
        _ => Ok(d),
    }
}

/// An already-complete account for queries that contact no shard
/// (e.g. `k = 0` kNN).
pub(crate) fn empty_completeness() -> Completeness {
    Completeness {
        subset: true,
        ..Completeness::default()
    }
}

/// Resolves `owner` to the node that should actually receive its
/// traffic, diverting along the ring when the owner is marked dead — or
/// merely *suspected* dead by the [`HealthView`], so a crashed node
/// stops receiving traffic after its first failed RPC instead of after
/// the next recovery tick. Shared by ingest routing (control plane) and
/// the kNN phase-one anchor (query plane).
///
/// # Errors
///
/// [`StcamError::NoQuorum`] when no alive candidate exists.
pub(crate) fn route_owner(
    owner: NodeId,
    partition: &PartitionMap,
    alive: &HashSet<NodeId>,
    health: &HealthView,
) -> Result<NodeId, StcamError> {
    if alive.contains(&owner) && !health.is_suspect(owner) {
        return Ok(owner);
    }
    let successor = |require_healthy: bool| {
        partition
            .successors(owner, partition.workers().len() - 1)
            .into_iter()
            .find(|&w| alive.contains(&w) && (!require_healthy || !health.is_suspect(w)))
    };
    if let Some(w) = successor(true) {
        return Ok(w);
    }
    // Everyone is suspect: a suspect-but-alive owner still beats
    // nothing (suspicion may be a false positive under load).
    if alive.contains(&owner) {
        return Ok(owner);
    }
    successor(false).ok_or(StcamError::NoQuorum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_parts() -> (PartitionMap, HashSet<NodeId>) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0));
        let workers: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let partition = PartitionMap::uniform(extent, 100.0, workers.clone());
        (partition, workers.into_iter().collect())
    }

    fn test_plane(pool_size: usize) -> QueryPlane {
        let fabric = stcam_net::Fabric::new(stcam_net::LinkModel::instant());
        let (partition, alive) = plan_parts();
        let pool: Vec<Executor> = (0..pool_size)
            .map(|k| {
                Executor::new(
                    fabric.register(NodeId(20_000 + k as u32)),
                    crate::exec::OpPolicy::new(std::time::Duration::from_millis(50)),
                )
            })
            .collect();
        QueryPlane::new(pool, partition, alive)
    }

    #[test]
    fn publish_bumps_epoch_and_readers_see_the_new_plan() {
        let plane = test_plane(2);
        assert_eq!(plane.epoch(), 1);
        let old = plane.plan();
        let (partition, mut alive) = plan_parts();
        alive.remove(&NodeId(3));
        assert_eq!(plane.publish(partition, alive), 2);
        assert_eq!(plane.epoch(), 2);
        // The old snapshot is unaffected; the new one reflects the edit.
        assert!(old.alive.contains(&NodeId(3)));
        assert!(!plane.plan().alive.contains(&NodeId(3)));
    }

    #[test]
    fn concurrent_readers_and_publisher_never_tear_a_plan() {
        let plane = std::sync::Arc::new(test_plane(4));
        std::thread::scope(|scope| {
            let publisher = {
                let plane = std::sync::Arc::clone(&plane);
                scope.spawn(move || {
                    for round in 0..200u32 {
                        let (partition, mut alive) = plan_parts();
                        // Each published plan removes exactly one worker,
                        // a recognisable invariant for the readers.
                        alive.remove(&NodeId(1 + round % 4));
                        plane.publish(partition, alive);
                    }
                })
            };
            for _ in 0..4 {
                let plane = std::sync::Arc::clone(&plane);
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..500 {
                        let plan = plane.plan();
                        assert!(plan.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = plan.epoch;
                        // Invariant: either the initial full plan or one
                        // of the published 3-worker plans — never a mix.
                        assert!(matches!(plan.alive.len(), 3 | 4));
                    }
                });
            }
            publisher.join().unwrap();
        });
        assert_eq!(plane.epoch(), 201);
    }

    #[test]
    fn route_owner_prefers_healthy_successors() {
        let (partition, mut alive) = plan_parts();
        let health = HealthView::new();
        let owner = partition.owner_of(Point::new(800.0, 800.0));
        // Healthy owner routes to itself.
        assert_eq!(
            route_owner(owner, &partition, &alive, &health).unwrap(),
            owner
        );
        // Dead owner diverts to an alive successor.
        alive.remove(&owner);
        let diverted = route_owner(owner, &partition, &alive, &health).unwrap();
        assert_ne!(diverted, owner);
        assert!(alive.contains(&diverted));
        // No quorum at all.
        let nobody: HashSet<NodeId> = HashSet::new();
        assert!(matches!(
            route_owner(owner, &partition, &nobody, &health),
            Err(StcamError::NoQuorum)
        ));
    }
}
