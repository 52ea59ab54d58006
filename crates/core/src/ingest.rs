//! Direct edge ingestion and the reliable (acknowledged) write path.
//!
//! Routing every observation through the coordinator would make it the
//! ingest bottleneck. In a deployment, camera aggregation points hold a
//! copy of the partition map and stream straight to the owning workers;
//! the coordinator only manages membership and queries. An [`Ingestor`]
//! is that aggregation-point handle: it has its own fabric endpoint and a
//! cached snapshot of the routing plan, and many of them can ingest in
//! parallel.
//!
//! # Write-path reliability
//!
//! There is one write path, and it is *acknowledged*:
//! [`Ingestor::ingest`] and `Coordinator::ingest` both drive the same
//! sender. Batches carry per-sender sequence numbers, workers
//! reply `IngestAck`/`IngestNack`, and the sender retries lost traffic
//! with exponential backoff and deterministic jitter. A batch group is
//! only counted as accepted once its owner **and** a full replica set —
//! the first `replication` ring successors the plan calls alive — have
//! confirmed it. That set is exactly where failover reads look and what
//! a later promotion absorbs, so the returned count certifies both
//! durability *and* strict-read visibility under the configured
//! replication factor; a shortfall parks the group instead of acking.
//! When the owner is unreachable, the sender performs hinted handoff:
//! the batch is written to those same successors as replica-log
//! entries, which replica reads serve while the owner is down and a
//! later failover promotion absorbs into the successor's primary shard.
//! Hints alone never produce an ack, though: the sender
//! cannot tell a dead owner from a partitioned one, and a partitioned
//! owner will return and answer strict reads from a primary that never
//! saw the batch. Hinted batches therefore stay *parked* and re-deliver
//! (idempotently) once recovery fails the owner out or the link heals —
//! acks stall during the grey window instead of lying.
//!
//! Ingestors are self-healing: a stale routing snapshot is refreshed
//! from the coordinator's published [`QueryPlan`] whenever a worker
//! NACKs misrouted observations or stops answering — no recreation
//! required. Parked observations are re-driven by
//! [`flush`](Ingestor::flush), which is a true write barrier: it drains
//! the parked window before running the ping round.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use parking_lot::Mutex;
use stcam_camnet::{Observation, ObservationId};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_net::{Endpoint, NetError, NodeId};

use crate::error::StcamError;
use crate::plane::{QueryPlan, QueryPlane};
use crate::protocol::{Request, Response};

/// Max per-destination batch groups a single `ingest` call keeps in
/// flight concurrently (the backpressure window).
const INFLIGHT_WINDOW: usize = 8;
/// RPC attempts per destination before the sender gives up on it and
/// re-routes under a refreshed plan.
const MAX_ATTEMPTS: u32 = 5;
/// Routing rounds (deliver, refresh plan, re-route leftovers) per call.
const MAX_ROUNDS: usize = 4;
/// Backoff base: attempt `k` waits `BACKOFF_BASE_MS << k` milliseconds
/// plus jitter of up to the same amount.
const BACKOFF_BASE_MS: u64 = 3;

/// SplitMix64 finaliser, used for deterministic retry jitter so
/// concurrent senders desynchronise without any global randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Exponential backoff with deterministic jitter derived from
/// `(sender, seq, attempt)`.
fn backoff(sender: NodeId, seq: u64, attempt: u32) -> StdDuration {
    let base = (BACKOFF_BASE_MS << attempt.min(5)).max(1);
    let jitter = mix(u64::from(sender.0) ^ seq.rotate_left(17) ^ u64::from(attempt)) % base;
    StdDuration::from_millis(base + jitter)
}

/// Result of trying to deliver one per-owner batch group.
struct GroupOutcome {
    /// Observations durably acknowledged (owner + alive replicas).
    accepted: usize,
    /// Observations to re-route under a refreshed plan this call.
    redo: Vec<Observation>,
    /// Observations that cannot be acknowledged under the current plan
    /// (owner unreachable or confirmed dead); hinted for durability and
    /// waiting in the pending window for `flush` to re-drive them.
    parked: Vec<Observation>,
}

/// The acked-write engine shared by [`Ingestor`] and the coordinator:
/// per-sender sequence numbers, bounded-window delivery, retry with
/// backoff, NACK-driven plan refresh, hinted handoff, and the parked
/// window that [`drain`](Self::drain) empties for `flush`.
///
/// The engine does not own an endpoint — callers pass theirs in — so the
/// coordinator can drive it over its existing control-plane endpoint.
#[derive(Debug)]
pub(crate) struct ReliableSender {
    plane: Arc<QueryPlane>,
    /// Cached routing snapshot; refreshed from `plane` on NACK/timeout,
    /// so a stale sender heals itself instead of needing recreation.
    plan: Mutex<Arc<QueryPlan>>,
    replication: usize,
    rpc_timeout: StdDuration,
    next_ingest_seq: AtomicU64,
    next_replicate_seq: AtomicU64,
    pending: Mutex<Vec<Observation>>,
}

impl ReliableSender {
    pub(crate) fn new(
        plane: Arc<QueryPlane>,
        replication: usize,
        rpc_timeout: StdDuration,
    ) -> Self {
        let plan = Mutex::new(plane.plan());
        ReliableSender {
            plane,
            plan,
            replication,
            rpc_timeout,
            next_ingest_seq: AtomicU64::new(0),
            next_replicate_seq: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// The cached routing snapshot (possibly stale).
    pub(crate) fn snapshot(&self) -> Arc<QueryPlan> {
        Arc::clone(&self.plan.lock())
    }

    /// Re-reads the published plan into the cache and returns it.
    pub(crate) fn refresh_plan(&self) -> Arc<QueryPlan> {
        let fresh = self.plane.plan();
        *self.plan.lock() = Arc::clone(&fresh);
        fresh
    }

    /// Observations accepted by no one yet (awaiting `drain`).
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Delivers `batch` with acknowledgement: groups by owner, sends at
    /// most [`INFLIGHT_WINDOW`] groups concurrently, retries with
    /// backoff, refreshes the plan and re-routes on NACK or exhaustion.
    /// Returns the number of observations durably accepted; the rest are
    /// parked for [`drain`](Self::drain).
    ///
    /// # Errors
    ///
    /// [`StcamError::NoQuorum`] when no worker is alive at all (ring
    /// membership is monotonic, so parking could never drain); otherwise
    /// fails only on local/protocol problems (codec errors, fabric
    /// shutdown) — unreachable workers park observations instead.
    pub(crate) fn ingest(
        &self,
        endpoint: &Endpoint,
        batch: Vec<Observation>,
    ) -> Result<usize, StcamError> {
        if self.snapshot().alive.is_empty() && self.refresh_plan().alive.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        let mut accepted = 0usize;
        let mut work = batch;
        for round in 0..MAX_ROUNDS {
            if work.is_empty() {
                break;
            }
            // Round 0 trusts the cached snapshot; every re-route round
            // works against a freshly published plan.
            let plan = if round == 0 {
                self.snapshot()
            } else {
                self.refresh_plan()
            };
            let mut groups: HashMap<NodeId, Vec<Observation>> = HashMap::new();
            for obs in work.drain(..) {
                groups
                    .entry(plan.partition.owner_of(obs.position))
                    .or_default()
                    .push(obs);
            }
            let mut queue = groups.into_iter();
            loop {
                let wave: Vec<(NodeId, Vec<Observation>)> =
                    queue.by_ref().take(INFLIGHT_WINDOW).collect();
                if wave.is_empty() {
                    break;
                }
                let outcomes: Vec<GroupOutcome> = if wave.len() == 1 {
                    let Some((owner, obs)) = wave.into_iter().next() else {
                        break;
                    };
                    vec![self.deliver_group(endpoint, &plan, owner, obs)]
                } else {
                    let mut panicked = false;
                    let collected: Vec<GroupOutcome> = std::thread::scope(|scope| {
                        let handles: Vec<_> = wave
                            .into_iter()
                            .map(|(owner, obs)| {
                                let plan = &plan;
                                scope.spawn(move || self.deliver_group(endpoint, plan, owner, obs))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .filter_map(|h| match h.join() {
                                Ok(outcome) => Some(outcome),
                                Err(_) => {
                                    panicked = true;
                                    None
                                }
                            })
                            .collect()
                    });
                    if panicked {
                        // A delivery thread died mid-wave. Sequenced
                        // ingest is idempotent, so surfacing a typed,
                        // retryable error (instead of propagating the
                        // panic into the caller) lets the client simply
                        // re-deliver the batch.
                        return Err(StcamError::Remote(
                            "ingest delivery thread panicked; re-deliver the batch".into(),
                        ));
                    }
                    collected
                };
                for outcome in outcomes {
                    accepted += outcome.accepted;
                    work.extend(outcome.redo);
                    if !outcome.parked.is_empty() {
                        self.pending.lock().extend(outcome.parked);
                    }
                }
            }
        }
        if !work.is_empty() {
            // Re-routing did not converge within the round budget; park
            // the rest for the flush barrier to re-drive.
            self.pending.lock().extend(work);
        }
        Ok(accepted)
    }

    /// Routes one per-owner group. Suspicion alone never diverts a
    /// write (a falsely suspected owner would strand the hint copy in a
    /// replica log that is never promoted); only the plan's own alive
    /// set, or direct retry exhaustion inside
    /// [`deliver_primary`](Self::deliver_primary), triggers hinting.
    fn deliver_group(
        &self,
        endpoint: &Endpoint,
        plan: &QueryPlan,
        owner: NodeId,
        obs: Vec<Observation>,
    ) -> GroupOutcome {
        if plan.alive.contains(&owner) {
            self.deliver_primary(endpoint, plan, owner, obs)
        } else {
            // The plan itself calls the owner dead yet still routes its
            // cells there (no alive successor was available to reassign
            // to at recovery time): hint for durability and park.
            self.hint_and_park(endpoint, plan, owner, obs)
        }
    }

    /// Normal path: `IngestSeq` to the owner, then `ReplicateSeq` of the
    /// accepted subset to the first `replication` plan-alive ring
    /// successors. The group counts as acknowledged only once every one
    /// of those successors confirmed.
    fn deliver_primary(
        &self,
        endpoint: &Endpoint,
        plan: &QueryPlan,
        owner: NodeId,
        obs: Vec<Observation>,
    ) -> GroupOutcome {
        let seq = self.next_ingest_seq.fetch_add(1, Ordering::Relaxed);
        let request = Request::IngestSeq {
            sender: endpoint.id(),
            seq,
            epoch: plan.epoch,
            batch: obs.clone(),
        };
        let (kept, redo) = match self.call_with_retry(endpoint, owner, seq, &request) {
            Ok(Response::IngestAck { .. }) => (obs, Vec::new()),
            Ok(Response::IngestNack { misrouted, .. }) => {
                // The owner applied what it owns; the rest re-routes
                // under a refreshed plan (its NACK epoch tells us ours
                // is stale).
                let misrouted: HashSet<ObservationId> = misrouted.into_iter().collect();
                let (redo, kept): (Vec<Observation>, Vec<Observation>) =
                    obs.into_iter().partition(|o| misrouted.contains(&o.id));
                (kept, redo)
            }
            // The owner would not answer despite full retransmission.
            _ => {
                return if self.plane.epoch() > plan.epoch {
                    // A newer plan has been published since we routed:
                    // recovery probably reassigned these cells, so let
                    // the next round re-route under the fresh plan
                    // (retransmission is idempotent at the workers).
                    GroupOutcome {
                        accepted: 0,
                        redo: obs,
                        parked: Vec::new(),
                    }
                } else {
                    // Our plan is current: the owner is unreachable and
                    // recovery has not noticed yet. We cannot tell a
                    // dead owner from a partitioned one, and a
                    // partitioned owner will come back and serve strict
                    // reads from a primary that never saw this batch —
                    // so acking on replica-log copies alone would break
                    // read-your-acked-writes. Hint and park instead.
                    self.hint_and_park(endpoint, plan, owner, obs)
                };
            }
        };
        if !kept.is_empty() {
            let (targets, acks) =
                self.replicate_to_successors(endpoint, plan, owner, &kept, self.replication);
            if acks < targets {
                // A replica the plan calls alive would not confirm, so
                // durability is short of the contract. The owner holds
                // the batch and the copies that did land stand as hints;
                // park and re-deliver once the plan reflects whatever
                // failed (worker id dedup absorbs the duplicates).
                return GroupOutcome {
                    accepted: 0,
                    redo,
                    parked: kept,
                };
            }
        }
        GroupOutcome {
            accepted: kept.len(),
            redo,
            parked: Vec::new(),
        }
    }

    /// Sends `batch` as replica-log entries for `primary` to its first
    /// `want` *alive* ring successors — walking the ring past dead
    /// members ([`PartitionMap::alive_successors`]), so a shard keeps
    /// `want` certified copies as long as that many other nodes are
    /// alive. This is exactly the set a failover read consults and the
    /// repair planner maintains, which is what lets an ack certify
    /// visibility: writes cover, reads consult, and anti-entropy restores
    /// one and the same walked set. Unresponsive members of the set are
    /// still attempted so partial copies land as hints. Returns
    /// `(targets, acks)`.
    ///
    /// [`PartitionMap::alive_successors`]: crate::PartitionMap::alive_successors
    fn replicate_to_successors(
        &self,
        endpoint: &Endpoint,
        plan: &QueryPlan,
        primary: NodeId,
        batch: &[Observation],
        want: usize,
    ) -> (usize, usize) {
        let targets: Vec<NodeId> = plan.partition.alive_successors(primary, want, &plan.alive);
        let total = targets.len();
        let mut acks = 0usize;
        for target in targets {
            let rseq = self.next_replicate_seq.fetch_add(1, Ordering::Relaxed);
            let request = Request::ReplicateSeq {
                sender: endpoint.id(),
                seq: rseq,
                primary,
                batch: batch.to_vec(),
            };
            if matches!(
                self.call_with_retry(endpoint, target, rseq, &request),
                Ok(Response::IngestAck { .. })
            ) {
                acks += 1;
            }
        }
        (total, acks)
    }

    /// Hinted handoff: best-effort `ReplicateSeq` copies of the batch to
    /// the owner's first plan-alive ring successors, then park. The
    /// hints make the batch crash-durable — replica reads serve them
    /// while the owner is down, and a failover promotion absorbs them
    /// into the successor's primary — but they cannot certify an ack: a
    /// merely-partitioned owner will return and answer strict reads from
    /// a primary that never saw the batch. Only re-delivery (driven by
    /// `flush` or a later `ingest` round under a refreshed plan) can
    /// complete the acked contract; worker-side id dedup absorbs the
    /// duplicate copies this leaves behind.
    fn hint_and_park(
        &self,
        endpoint: &Endpoint,
        plan: &QueryPlan,
        owner: NodeId,
        obs: Vec<Observation>,
    ) -> GroupOutcome {
        let _ = self.replicate_to_successors(endpoint, plan, owner, &obs, self.replication.max(1));
        GroupOutcome {
            accepted: 0,
            redo: Vec::new(),
            parked: obs,
        }
    }

    /// One sequenced call with bounded retransmission: up to
    /// [`MAX_ATTEMPTS`] attempts, exponential backoff with deterministic
    /// jitter between them. Feeds the shared health view so routing
    /// diverts around nodes that stop answering.
    fn call_with_retry(
        &self,
        endpoint: &Endpoint,
        dest: NodeId,
        seq: u64,
        request: &Request,
    ) -> Result<Response, StcamError> {
        let payload = encode_to_vec(request);
        let health = self.plane.health();
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff(endpoint.id(), seq, attempt));
            }
            match endpoint.call(dest, payload.clone(), self.rpc_timeout) {
                Ok(bytes) => {
                    let response = decode_from_slice::<Response>(&bytes)?;
                    health.record_success(dest);
                    if let Response::Error(message) = response {
                        return Err(StcamError::Remote(message));
                    }
                    return Ok(response);
                }
                Err(NetError::Timeout) => continue,
                Err(err) => {
                    health.record_failure(dest);
                    return Err(err.into());
                }
            }
        }
        health.record_failure(dest);
        Err(StcamError::Net(NetError::Timeout))
    }

    /// Re-drives the parked window under fresh routing until it is
    /// empty — the write-barrier half of `flush`. Returns how many
    /// parked observations were accepted.
    ///
    /// # Errors
    ///
    /// [`StcamError::PartialFailure`] naming the owners of observations
    /// that still cannot be acknowledged after the round budget.
    pub(crate) fn drain(&self, endpoint: &Endpoint) -> Result<usize, StcamError> {
        let mut drained = 0usize;
        for _ in 0..MAX_ROUNDS {
            let parked = std::mem::take(&mut *self.pending.lock());
            if parked.is_empty() {
                return Ok(drained);
            }
            self.refresh_plan();
            drained += self.ingest(endpoint, parked)?;
        }
        let leftover = self.pending.lock();
        if leftover.is_empty() {
            return Ok(drained);
        }
        let plan = self.snapshot();
        let mut missing: Vec<NodeId> = leftover
            .iter()
            .map(|o| plan.partition.owner_of(o.position))
            .collect();
        missing.sort();
        missing.dedup();
        Err(StcamError::PartialFailure { missing })
    }
}

/// A parallel ingest handle with its own network endpoint; see the
/// module documentation above for the routing model and the
/// acknowledged-write contract.
#[derive(Debug)]
pub struct Ingestor {
    endpoint: Endpoint,
    sender: ReliableSender,
}

impl Ingestor {
    pub(crate) fn new(
        endpoint: Endpoint,
        plane: Arc<QueryPlane>,
        replication: usize,
        rpc_timeout: StdDuration,
    ) -> Self {
        Ingestor {
            endpoint,
            sender: ReliableSender::new(plane, replication, rpc_timeout),
        }
    }

    /// This ingestor's node id on the fabric.
    pub fn id(&self) -> NodeId {
        self.endpoint.id()
    }

    /// Observations this handle could not get acknowledged yet; they are
    /// parked and re-driven by [`flush`](Self::flush).
    pub fn pending(&self) -> usize {
        self.sender.pending_count()
    }

    /// Acknowledged ingest: routes the batch to the owning workers and
    /// their replicas, retries lost traffic, and re-routes around stale
    /// or dead destinations (refreshing this handle's plan snapshot in
    /// place — no recreation needed after recovery or rebalance).
    /// Returns the number of observations durably **accepted**, not
    /// merely routed; anything unaccepted is parked and re-driven by
    /// [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// Fails on local problems (codec errors, fabric shutdown);
    /// unreachable workers park observations instead of erroring.
    pub fn ingest(&self, batch: Vec<Observation>) -> Result<usize, StcamError> {
        self.sender.ingest(&self.endpoint, batch)
    }

    /// Write barrier: first drains this handle's parked window (re-
    /// delivering under fresh routing), then confirms every alive worker
    /// has processed previously sent traffic (per-link FIFO + a ping
    /// round trip).
    ///
    /// # Errors
    ///
    /// [`StcamError::PartialFailure`] when parked observations still
    /// cannot be acknowledged; transport errors when an alive worker
    /// does not answer the ping in time.
    pub fn flush(&self) -> Result<(), StcamError> {
        self.sender.drain(&self.endpoint)?;
        let plan = self.sender.refresh_plan();
        for &worker in plan.partition.workers() {
            if !plan.alive.contains(&worker) {
                continue;
            }
            let bytes = self.endpoint.call(
                worker,
                encode_to_vec(&Request::Ping),
                self.sender.rpc_timeout,
            )?;
            let _ = decode_from_slice::<Response>(&bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_geo::{BBox, Point, TimeInterval, Timestamp};
    use stcam_net::LinkModel;
    use stcam_world::{EntityClass, EntityId};

    fn obs(seq: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_secs(1),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    #[test]
    fn parallel_ingestors_deliver_everything() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let cluster = Cluster::launch(
            ClusterConfig::new(extent, 4)
                .with_replication(0)
                .with_link(LinkModel::instant()),
        )
        .unwrap();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let ingestor = cluster.create_ingestor();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        let seq = t * 250 + i;
                        let accepted = ingestor
                            .ingest(vec![obs(
                                seq,
                                (seq as f64 * 7.0) % 1000.0,
                                (seq as f64 * 13.0) % 1000.0,
                            )])
                            .unwrap();
                        assert_eq!(accepted, 1);
                    }
                    ingestor.flush().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
        assert_eq!(cluster.range_query(extent, window).unwrap().len(), 1000);
        cluster.shutdown();
    }

    #[test]
    fn ingestor_ids_are_distinct() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let cluster =
            Cluster::launch(ClusterConfig::new(extent, 2).with_link(LinkModel::instant())).unwrap();
        let a = cluster.create_ingestor();
        let b = cluster.create_ingestor();
        assert_ne!(a.id(), b.id());
        cluster.shutdown();
    }

    #[test]
    fn acked_ingest_survives_a_lossy_link() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let cluster = Cluster::launch(
            ClusterConfig::new(extent, 4)
                .with_replication(1)
                .with_link(LinkModel::instant())
                .with_rpc_timeout(StdDuration::from_millis(200)),
        )
        .unwrap();
        cluster.set_drop_probability(0.05);
        let ingestor = cluster.create_ingestor();
        let mut accepted = 0usize;
        for i in 0..200u64 {
            accepted += ingestor
                .ingest(vec![obs(
                    i,
                    (i as f64 * 7.0) % 1000.0,
                    (i as f64 * 13.0) % 1000.0,
                )])
                .unwrap();
        }
        cluster.set_drop_probability(0.0);
        ingestor.flush().unwrap();
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
        let stored = cluster.range_query(extent, window).unwrap().len();
        assert!(
            stored >= accepted,
            "acked {accepted} observations but only {stored} are queryable"
        );
        assert_eq!(stored, 200, "flush barrier must deliver the parked tail");
        cluster.shutdown();
    }

    #[test]
    fn stale_ingestor_recovers_routing_without_recreation() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let cluster = Cluster::launch(
            ClusterConfig::new(extent, 4)
                .with_replication(1)
                .with_link(LinkModel::instant())
                .with_rpc_timeout(StdDuration::from_millis(150)),
        )
        .unwrap();
        // The ingestor snapshots the pre-failure plan.
        let ingestor = cluster.create_ingestor();
        let target = Point::new(500.0, 500.0);
        let old_owner = cluster.partition().owner_of(target);
        cluster.kill_worker(old_owner);
        let failed = cluster.check_and_recover();
        assert_eq!(failed, vec![old_owner]);
        // Same handle, dead owner's cell: the acked path must time out,
        // refresh its snapshot, and deliver to the new owner.
        let accepted = ingestor.ingest(vec![obs(7, target.x, target.y)]).unwrap();
        assert_eq!(accepted, 1, "stale ingestor failed to self-heal");
        ingestor.flush().unwrap();
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
        let hits = cluster.range_query(extent, window).unwrap();
        assert!(hits
            .iter()
            .any(|o| o.id == ObservationId::compose(CameraId(0), 7)));
        cluster.shutdown();
    }
}
