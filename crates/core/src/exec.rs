//! The typed scatter/gather execution layer.
//!
//! Every distributed operation the coordinator performs — queries,
//! barriers, migrations, probes — is one implementation of
//! [`DistributedOp`]: a small value that knows which workers to contact,
//! what [`Request`] to send each one, how to check/decode each worker's
//! [`Response`] into a typed partial result, and how to merge the
//! partials into the operation's output. The [`Executor`] owns everything
//! those implementations share: parallel fan-out over scoped threads,
//! per-operation timeout/retry policy ([`OpPolicy`]), and per-operation
//! telemetry ([`OpStats`]) with wire-byte accounting from the fabric's
//! counters.
//!
//! # Retry semantics
//!
//! RPCs are at-most-once: a timed-out sub-query may or may not have been
//! executed by the worker. The executor therefore retries **only**
//! operations that declare themselves idempotent
//! ([`DistributedOp::idempotent`]) — pure reads plus writes that are safe
//! to apply twice (flush pings, eviction, continuous-query registration,
//! promotion, repair chunks). The destructive migration step
//! ([`ExtractRegionOp`]) never retries: a repeated extract after a lost
//! reply would discard data. Retries are
//! deterministic: a fixed attempt budget with linear backoff, counted in
//! [`OpStats::retries`].
//!
//! # Adding a new operation
//!
//! 1. Add the `Request`/`Response` message pair in the `protocol`
//!    module and a worker handler row in the worker's dispatch table.
//! 2. Implement [`DistributedOp`] (targets / request / decode / merge).
//! 3. Call [`Executor::execute`] from the query plane (reads) or the
//!    coordinator (control actions).
//!
//! The executor itself needs no changes — see [`TopCellsOp`] for a
//! complete example.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use parking_lot::Mutex;
use stcam_camnet::Observation;
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, CellId, Point, TimeInterval, Timestamp};
use stcam_net::{Endpoint, NetError, NodeId, PendingCall};

use crate::admission::{Deadline, ShedReason};
use crate::continuous::{ContinuousQueryId, Predicate};
use crate::error::StcamError;
use crate::health::HealthView;
use crate::paging;
use crate::partition::PartitionMap;
use crate::protocol::{
    DigestReport, GridSpecMsg, Request, Response, SegmentDigestEntry, WorkerStatsMsg,
};

// ----------------------------------------------------------------------
// Policy and telemetry
// ----------------------------------------------------------------------

/// Timeout/retry policy of one operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpPolicy {
    /// Per-sub-query RPC timeout.
    pub timeout: StdDuration,
    /// Total attempts per sub-query (1 = no retry). Only idempotent
    /// operations ever use more than one.
    pub max_attempts: u32,
    /// Base backoff between attempts; attempt `n` sleeps `n × backoff`
    /// (linear, deterministic).
    pub backoff: StdDuration,
}

impl OpPolicy {
    /// The standard policy: the caller's total timeout budget split
    /// across up to three attempts with 10 ms linear backoff. Splitting
    /// (rather than multiplying) keeps the worst-case latency against a
    /// genuinely dead worker at ≈ `timeout`, the same bound a
    /// non-retrying caller would see, while still recovering from
    /// transiently lost messages well before that bound.
    pub fn new(timeout: StdDuration) -> Self {
        OpPolicy {
            timeout: timeout / 3,
            max_attempts: 3,
            backoff: StdDuration::from_millis(10),
        }
    }

    /// A single-attempt policy (used for liveness probes, where a timeout
    /// *is* the signal).
    pub fn no_retry(timeout: StdDuration) -> Self {
        OpPolicy {
            timeout,
            max_attempts: 1,
            backoff: StdDuration::ZERO,
        }
    }

    /// This policy with its per-attempt timeout shrunk to the remaining
    /// deadline budget (floored at 1 ms so an expiring deadline fails
    /// fast as a timeout instead of zero-waiting into undefined
    /// territory). Retry structure is preserved: attempts just stop
    /// waiting longer than the caller can.
    pub fn clamped_to(self, remaining: StdDuration) -> OpPolicy {
        let floor = StdDuration::from_millis(1);
        OpPolicy {
            timeout: self.timeout.min(remaining.max(floor)),
            ..self
        }
    }
}

/// Log₂-bucketed latency histogram over microseconds: bucket `i` counts
/// samples in `[2^(i-1), 2^i)` (bucket 0 holds sub-microsecond samples),
/// so 32 buckets span sub-µs to ≈ 35 minutes. Fixed-size and `Copy`,
/// which keeps [`OpStats`] a plain value that snapshots and diffs
/// ([`OpStats::since`]) without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts.
    pub counts: [u64; 32],
}

impl LatencyHistogram {
    /// Books one sample of `micros` microseconds.
    pub fn record(&mut self, micros: u64) {
        let bucket = (u64::BITS - micros.leading_zeros()).min(31) as usize;
        self.counts[bucket] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The upper bound (in microseconds) of the bucket containing the
    /// `q`-quantile sample, `q` in `[0, 1]`. Zero when empty. The bound
    /// is conservative: the true sample is at most one octave below it.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << bucket;
            }
        }
        1u64 << 31
    }

    /// Median latency bucket bound, microseconds.
    pub fn p50_micros(&self) -> u64 {
        self.quantile_micros(0.50)
    }

    /// 95th-percentile latency bucket bound, microseconds.
    pub fn p95_micros(&self) -> u64 {
        self.quantile_micros(0.95)
    }

    /// 99th-percentile latency bucket bound, microseconds.
    pub fn p99_micros(&self) -> u64 {
        self.quantile_micros(0.99)
    }

    /// Per-bucket difference against an earlier snapshot (saturating).
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut counts = [0u64; 32];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        LatencyHistogram { counts }
    }
}

/// Cumulative telemetry of one operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Times the operation was invoked.
    pub invocations: u64,
    /// Sub-query attempts issued (fan-out × invocations, plus retries).
    pub sub_queries: u64,
    /// Sub-query attempts that were deterministic retries after a
    /// timeout.
    pub retries: u64,
    /// Sub-queries whose final attempt failed.
    pub failures: u64,
    /// Sub-queries re-issued to a replica after the primary failed
    /// (degraded-path reads only).
    pub failovers: u64,
    /// Wire bytes sent by the coordinator for this operation.
    pub bytes_sent: u64,
    /// Wire bytes received by the coordinator for this operation.
    pub bytes_received: u64,
    /// Wall-clock microseconds spent in the scatter/gather phase
    /// (issuing sub-queries and collecting responses).
    pub scatter_micros: u64,
    /// Wall-clock microseconds spent merging partials into the output.
    pub merge_micros: u64,
    /// Observation-stream wire bytes moved by anti-entropy repair on this
    /// operation's behalf (booked by the repair driver against the
    /// "repair" key; zero elsewhere).
    pub repair_bytes: u64,
    /// Digest/stream repair rounds driven (booked against "repair").
    pub repair_rounds: u64,
    /// Per-invocation scatter/gather latency distribution (one sample
    /// per invocation, log₂ microsecond buckets).
    pub latency: LatencyHistogram,
}

impl OpStats {
    /// Difference against an earlier snapshot: activity that occurred in
    /// between (saturating).
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            invocations: self.invocations.saturating_sub(earlier.invocations),
            sub_queries: self.sub_queries.saturating_sub(earlier.sub_queries),
            retries: self.retries.saturating_sub(earlier.retries),
            failures: self.failures.saturating_sub(earlier.failures),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            scatter_micros: self.scatter_micros.saturating_sub(earlier.scatter_micros),
            merge_micros: self.merge_micros.saturating_sub(earlier.merge_micros),
            repair_bytes: self.repair_bytes.saturating_sub(earlier.repair_bytes),
            repair_rounds: self.repair_rounds.saturating_sub(earlier.repair_rounds),
            latency: self.latency.since(&earlier.latency),
        }
    }
}

// ----------------------------------------------------------------------
// Degraded results and completeness accounting
// ----------------------------------------------------------------------

/// How a read should behave when shards are unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Fail the whole query with [`StcamError::PartialFailure`] unless
    /// every shard (primary or replica) answered.
    #[default]
    Strict,
    /// Answer from whatever shards survive and report what is missing in
    /// the result's [`Completeness`].
    BestEffort,
}

/// An account of which shards contributed to a degraded query's answer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Completeness {
    /// Shards the query had to cover.
    pub shards_total: usize,
    /// Shards answered by their primary.
    pub shards_from_primary: usize,
    /// Shards answered by a replica after the primary failed.
    pub shards_from_replica: usize,
    /// Shard primaries that contributed nothing: neither the primary nor
    /// any replica answered. Empty iff the answer is complete.
    pub missing: Vec<NodeId>,
    /// `(failed primary, serving replica)` pairs for shards answered via
    /// failover.
    pub replicas_used: Vec<(NodeId, NodeId)>,
    /// Sub-query attempts that were deterministic same-target retries.
    pub retries: u64,
    /// Whether the value is guaranteed to be a subset of the complete
    /// answer. Always true when nothing is missing; under loss it is
    /// false for top-k shapes (kNN, top-cells), where dropping a shard
    /// can *promote* wrong items into the result rather than merely
    /// omitting rows.
    pub subset: bool,
    /// When set, the answer was degraded *by policy* (admission-control
    /// load shedding or a mid-flight deadline expiry), not by
    /// infrastructure failure — overload is reported truthfully instead
    /// of surfacing as a silent timeout.
    pub shed: Option<ShedReason>,
}

impl Completeness {
    /// Whether every shard contributed (directly or via a replica).
    pub fn is_full(&self) -> bool {
        self.missing.is_empty()
    }

    /// Fraction of shards that answered, in `[0, 1]` (1 when the query
    /// had no shards to cover).
    pub fn fraction(&self) -> f64 {
        if self.shards_total == 0 {
            1.0
        } else {
            (self.shards_total - self.missing.len()) as f64 / self.shards_total as f64
        }
    }

    /// Folds another phase's account into this one (used by composed
    /// queries such as two-phase kNN).
    pub fn absorb(&mut self, other: Completeness) {
        self.shards_total += other.shards_total;
        self.shards_from_primary += other.shards_from_primary;
        self.shards_from_replica += other.shards_from_replica;
        for node in other.missing {
            if !self.missing.contains(&node) {
                self.missing.push(node);
            }
        }
        self.replicas_used.extend(other.replicas_used);
        self.retries += other.retries;
        self.subset = self.subset && other.subset;
        self.shed = self.shed.or(other.shed);
    }
}

/// A best-effort query result: the merged value plus the account of
/// which shards stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded<T> {
    /// The merged answer over the shards that responded.
    pub value: T,
    /// Which shards contributed and which are missing.
    pub completeness: Completeness,
}

// ----------------------------------------------------------------------
// The operation abstraction
// ----------------------------------------------------------------------

/// One distributed operation: scatter targets, per-worker request,
/// response decoding, and partial-result merging.
///
/// Implementations are plain values consumed by [`Executor::execute`]
/// (or borrowed by [`Executor::run`] when the caller wants the raw
/// per-worker results, e.g. liveness probing).
pub trait DistributedOp: Sync {
    /// What one worker contributes.
    type Partial: Send;
    /// What the whole operation yields.
    type Output;

    /// Stable operation name — the key for policy overrides and
    /// [`OpStats`] aggregation.
    fn name(&self) -> &'static str;

    /// Whether a sub-query may safely be retried after a timeout (the
    /// worker may or may not have executed the lost attempt).
    fn idempotent(&self) -> bool {
        false
    }

    /// Whether a shard's sub-query may be answered from a ring
    /// successor's replica log when the primary is unreachable (the
    /// degraded read path). Only pure per-shard reads qualify.
    fn replica_readable(&self) -> bool {
        false
    }

    /// Whether merging fewer shards than targeted still yields a subset
    /// of the complete answer. True for unions and per-bucket sums;
    /// false for top-k shapes, where a lost shard can promote items that
    /// the complete answer would have displaced.
    fn subset_on_loss(&self) -> bool {
        true
    }

    /// The workers this operation must contact, given the current
    /// partition map and alive set.
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId>;

    /// The request to send worker `to`.
    fn request(&self, to: NodeId) -> Request;

    /// Checks and converts one worker's response into a partial result.
    fn decode(&self, response: Response) -> Result<Self::Partial, StcamError>;

    /// Merges the per-worker partials (in target order) into the output.
    fn merge(self, partials: Vec<(NodeId, Self::Partial)>) -> Self::Output;
}

// ----------------------------------------------------------------------
// The executor
// ----------------------------------------------------------------------

/// State shared by every [`Executor`] of one logical client: policy
/// overrides, per-operation telemetry, the health view, and the
/// replication factor.
///
/// The coordinator's control-plane executor and the query plane's pooled
/// executors all hold one `Arc<ExecShared>`, so an operation books into
/// the same [`OpStats`] registry no matter which fabric endpoint carried
/// it — telemetry stays a single coherent account under concurrency.
#[derive(Debug)]
pub(crate) struct ExecShared {
    default_policy: OpPolicy,
    overrides: Mutex<HashMap<&'static str, OpPolicy>>,
    stats: Mutex<BTreeMap<&'static str, OpStats>>,
    /// Per-node suspicion, fed by every member endpoint's call observer:
    /// each RPC outcome — probe, flush, sub-query, failover attempt —
    /// updates it.
    health: Arc<HealthView>,
    /// Replication factor of the ring (0 disables replica failover).
    replication: AtomicUsize,
}

impl ExecShared {
    fn new(default_policy: OpPolicy) -> Self {
        ExecShared {
            default_policy,
            overrides: Mutex::new(HashMap::new()),
            stats: Mutex::new(BTreeMap::new()),
            health: Arc::new(HealthView::new()),
            replication: AtomicUsize::new(0),
        }
    }
}

/// Per-scatter wire-byte accumulator. Bytes are counted at each call
/// site (payload + envelope overhead) instead of diffing endpoint
/// counters, so concurrent operations sharing an endpoint never
/// attribute each other's traffic.
#[derive(Default)]
struct WireTally {
    sent: AtomicU64,
    received: AtomicU64,
}

impl WireTally {
    fn sent(&self, payload_len: usize) {
        self.sent.fetch_add(
            payload_len as u64 + stcam_net::WIRE_OVERHEAD,
            Ordering::Relaxed,
        );
    }
    fn received(&self, payload_len: usize) {
        self.received.fetch_add(
            payload_len as u64 + stcam_net::WIRE_OVERHEAD,
            Ordering::Relaxed,
        );
    }
}

/// Owns scatter/gather fan-out, retry policy, and per-op telemetry for
/// every [`DistributedOp`].
#[derive(Debug)]
pub struct Executor {
    endpoint: Endpoint,
    shared: Arc<ExecShared>,
}

impl Executor {
    /// Creates an executor speaking through `endpoint` with
    /// `default_policy` for operations without an override. The executor
    /// installs the endpoint's call observer so every RPC outcome feeds
    /// its [`HealthView`].
    pub fn new(endpoint: Endpoint, default_policy: OpPolicy) -> Self {
        Self::with_shared(endpoint, Arc::new(ExecShared::new(default_policy)))
    }

    /// Creates an executor over `endpoint` that joins an existing shared
    /// state — same policies, same telemetry registry, same health view.
    /// This is how the query plane's endpoint pool stays one logical
    /// client: N endpoints, one account.
    pub(crate) fn with_shared(endpoint: Endpoint, shared: Arc<ExecShared>) -> Self {
        let feed = Arc::clone(&shared.health);
        endpoint.set_call_observer(Arc::new(move |node, ok| {
            if ok {
                feed.record_success(node);
            } else {
                feed.record_failure(node);
            }
        }));
        Executor { endpoint, shared }
    }

    /// The shared policy/telemetry/health state, for building further
    /// executors that join this one's account.
    pub(crate) fn shared(&self) -> Arc<ExecShared> {
        Arc::clone(&self.shared)
    }

    /// The underlying fabric endpoint (also used for one-way traffic
    /// such as ingest routing and notification polling).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The live per-node suspicion view.
    pub fn health(&self) -> &Arc<HealthView> {
        &self.shared.health
    }

    /// Sets the ring replication factor consulted by replica failover
    /// (how many successors may hold a shard's replica log).
    pub fn set_replication(&self, replication: usize) {
        self.shared
            .replication
            .store(replication, Ordering::Relaxed);
    }

    /// Installs a policy override for the named operation.
    pub fn set_policy(&self, op: &'static str, policy: OpPolicy) {
        self.shared.overrides.lock().insert(op, policy);
    }

    /// The effective policy of the named operation.
    pub fn policy_for(&self, op: &str) -> OpPolicy {
        self.shared
            .overrides
            .lock()
            .get(op)
            .copied()
            .unwrap_or(self.shared.default_policy)
    }

    /// A snapshot of per-op telemetry, sorted by operation name.
    pub fn op_stats(&self) -> Vec<(&'static str, OpStats)> {
        self.shared
            .stats
            .lock()
            .iter()
            .map(|(&name, &s)| (name, s))
            .collect()
    }

    /// Books one anti-entropy round and its streamed observation bytes
    /// against the "repair" telemetry key (the repair driver calls this
    /// once per digest/stream round).
    pub(crate) fn note_repair(&self, rounds: u64, bytes: u64) {
        let mut stats = self.shared.stats.lock();
        let entry = stats.entry("repair").or_default();
        entry.repair_rounds += rounds;
        entry.repair_bytes += bytes;
    }

    /// Telemetry of one operation (zeros when never invoked).
    pub fn stats_for(&self, op: &str) -> OpStats {
        self.shared
            .stats
            .lock()
            .get(op)
            .copied()
            .unwrap_or_default()
    }

    /// Runs the full operation: scatter, gather, merge. Any sub-query
    /// failure (after retries) fails the whole operation.
    ///
    /// # Errors
    ///
    /// Propagates the first failed sub-query's error.
    pub fn execute<O: DistributedOp>(
        &self,
        op: O,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
    ) -> Result<O::Output, StcamError> {
        let name = op.name();
        let results = self.run(&op, partition, alive);
        let mut partials = Vec::with_capacity(results.len());
        for (worker, result) in results {
            partials.push((worker, result?));
        }
        let started = Instant::now();
        let output = op.merge(partials);
        let merge_micros = started.elapsed().as_micros() as u64;
        self.shared
            .stats
            .lock()
            .entry(name)
            .or_default()
            .merge_micros += merge_micros;
        Ok(output)
    }

    /// Scatters the operation and returns the raw per-worker outcomes in
    /// target order, without failing on individual errors and without
    /// merging. Used when failures are data (liveness probes).
    pub fn run<O: DistributedOp>(
        &self,
        op: &O,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
    ) -> Vec<(NodeId, Result<O::Partial, StcamError>)> {
        let targets = op.targets(partition, alive);
        let policy = self.policy_for(op.name());
        let tally = WireTally::default();
        let retries = AtomicU64::new(0);
        let started = Instant::now();
        let results: Vec<(NodeId, Result<O::Partial, StcamError>)> = if targets.is_empty() {
            Vec::new()
        } else if targets.len() == 1 {
            // Single-target fast path: plain blocking call.
            let worker = targets[0];
            vec![(worker, self.attempt(op, worker, &policy, &retries, &tally))]
        } else {
            self.pipelined_firsts(op, &targets, &tally)
                .into_iter()
                .map(|(worker, payload, call)| {
                    let first = call.and_then(|c| self.endpoint.call_wait(c, policy.timeout));
                    (
                        worker,
                        self.attempt_tail(op, worker, &policy, &retries, &tally, payload, first),
                    )
                })
                .collect()
        };
        let scatter_micros = started.elapsed().as_micros() as u64;
        let retries = retries.into_inner();
        let failures = results.iter().filter(|(_, r)| r.is_err()).count() as u64;
        let mut stats = self.shared.stats.lock();
        let entry = stats.entry(op.name()).or_default();
        entry.invocations += 1;
        entry.sub_queries += targets.len() as u64 + retries;
        entry.retries += retries;
        entry.failures += failures;
        entry.bytes_sent += tally.sent.into_inner();
        entry.bytes_received += tally.received.into_inner();
        entry.scatter_micros += scatter_micros;
        entry.latency.record(scatter_micros);
        results
    }

    /// One sub-query with the retry loop.
    fn attempt<O: DistributedOp>(
        &self,
        op: &O,
        worker: NodeId,
        policy: &OpPolicy,
        retries: &AtomicU64,
        tally: &WireTally,
    ) -> Result<O::Partial, StcamError> {
        let payload = encode_to_vec(&op.request(worker));
        tally.sent(payload.len());
        let first = self.endpoint.call(worker, payload.clone(), policy.timeout);
        self.attempt_tail(op, worker, policy, retries, tally, payload, first)
    }

    /// Finishes a sub-query whose first wire exchange has already
    /// resolved (the pipelined scatter starts every exchange before
    /// waiting on any): decode, page pulls, and the idempotent-retry
    /// loop on timeout.
    #[allow(clippy::too_many_arguments)]
    fn attempt_tail<O: DistributedOp>(
        &self,
        op: &O,
        worker: NodeId,
        policy: &OpPolicy,
        retries: &AtomicU64,
        tally: &WireTally,
        payload: Vec<u8>,
        first: Result<Vec<u8>, NetError>,
    ) -> Result<O::Partial, StcamError> {
        let mut raw = first;
        let mut attempt = 1u32;
        loop {
            let outcome = raw
                .map_err(StcamError::from)
                .and_then(|bytes| {
                    tally.received(bytes.len());
                    decode_from_slice::<Response>(&bytes).map_err(StcamError::from)
                })
                .and_then(|response| self.collect_pages(worker, response, policy, tally))
                .and_then(|response| op.decode(response));
            match outcome {
                Err(StcamError::Net(NetError::Timeout))
                    if op.idempotent() && attempt < policy.max_attempts =>
                {
                    retries.fetch_add(1, Ordering::Relaxed);
                    if !policy.backoff.is_zero() {
                        std::thread::sleep(policy.backoff * attempt);
                    }
                    attempt += 1;
                    tally.sent(payload.len());
                    raw = self.endpoint.call(worker, payload.clone(), policy.timeout);
                }
                other => return other,
            }
        }
    }

    /// Starts the first wire exchange of every target's sub-query before
    /// waiting on any of them, then resolves each in target order. One
    /// thread overlaps all the round trips; only the (rare) retry and
    /// failover tails serialise.
    fn pipelined_firsts<O: DistributedOp>(
        &self,
        op: &O,
        targets: &[NodeId],
        tally: &WireTally,
    ) -> Vec<(NodeId, Vec<u8>, Result<PendingCall, NetError>)> {
        targets
            .iter()
            .map(|&worker| {
                let payload = encode_to_vec(&op.request(worker));
                tally.sent(payload.len());
                let call = self.endpoint.call_start(worker, payload.clone());
                (worker, payload, call)
            })
            .collect()
    }

    /// Runs a replica-failover scatter/gather and reports how complete
    /// the merged answer is, instead of failing on lost shards.
    ///
    /// Per shard: the primary is attempted first (with the operation's
    /// normal retry policy); if it fails with a transport error and the
    /// operation is replica-readable, the shard's sub-query is re-issued
    /// to its ring successors — healthiest first, per the
    /// [`HealthView`] — wrapped in [`Request::ReplicaRead`]. A shard is
    /// declared missing only after the primary and every candidate
    /// replica failed. The merge then runs over whatever survived.
    pub fn execute_degraded<O: DistributedOp>(
        &self,
        op: O,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
    ) -> Degraded<O::Output> {
        self.execute_degraded_ctx(op, partition, alive, None, None)
    }

    /// [`execute_degraded`](Self::execute_degraded) with a per-call
    /// tenancy context: a `deadline` that clamps every sub-query
    /// timeout to the remaining budget (a mid-flight expiry surfaces as
    /// missing shards tagged [`ShedReason::Deadline`] — truthful, never
    /// a silent overrun), and a `bytes_out` accumulator receiving this
    /// call's wire bytes (sent + received, the same tally booked into
    /// [`OpStats`]) so the caller can attribute them to a tenant.
    pub fn execute_degraded_ctx<O: DistributedOp>(
        &self,
        op: O,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
        deadline: Option<Deadline>,
        bytes_out: Option<&AtomicU64>,
    ) -> Degraded<O::Output> {
        let name = op.name();
        let (outcomes, retries) =
            self.scatter_with_failover(&op, partition, alive, deadline, bytes_out);
        let mut completeness = Completeness {
            shards_total: outcomes.len(),
            retries,
            subset: true,
            ..Completeness::default()
        };
        let mut partials = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome.result {
                Ok(partial) => {
                    match outcome.via {
                        Some(replica) => {
                            completeness.shards_from_replica += 1;
                            completeness.replicas_used.push((outcome.shard, replica));
                        }
                        None => completeness.shards_from_primary += 1,
                    }
                    partials.push((outcome.shard, partial));
                }
                Err(_) => completeness.missing.push(outcome.shard),
            }
        }
        completeness.subset = completeness.missing.is_empty() || op.subset_on_loss();
        // Shards lost while the deadline was running out are attributed
        // to the deadline, not to infrastructure: the clamped timeouts
        // are what cut them off.
        if !completeness.missing.is_empty() && deadline.is_some_and(|d| d.expired()) {
            completeness.shed = completeness.shed.or(Some(ShedReason::Deadline));
        }
        let started = Instant::now();
        let value = op.merge(partials);
        let merge_micros = started.elapsed().as_micros() as u64;
        self.shared
            .stats
            .lock()
            .entry(name)
            .or_default()
            .merge_micros += merge_micros;
        Degraded {
            value,
            completeness,
        }
    }

    /// The degraded-path scatter: per-shard outcomes (in target order)
    /// with the replica that served each failed-over shard, plus the
    /// same-target retry count.
    fn scatter_with_failover<O: DistributedOp>(
        &self,
        op: &O,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
        deadline: Option<Deadline>,
        bytes_out: Option<&AtomicU64>,
    ) -> (Vec<ShardOutcome<O::Partial>>, u64) {
        let targets = op.targets(partition, alive);
        let mut policy = self.policy_for(op.name());
        if let Some(d) = deadline {
            policy = policy.clamped_to(d.remaining());
        }
        let tally = WireTally::default();
        let retries = AtomicU64::new(0);
        let failovers = AtomicU64::new(0);
        let started = Instant::now();
        let outcomes: Vec<ShardOutcome<O::Partial>> = if targets.is_empty() {
            Vec::new()
        } else if targets.len() == 1 {
            vec![self.attempt_with_failover(
                op, targets[0], partition, alive, &policy, &retries, &failovers, &tally,
            )]
        } else {
            self.pipelined_firsts(op, &targets, &tally)
                .into_iter()
                .map(|(shard, payload, call)| {
                    let first = call.and_then(|c| self.endpoint.call_wait(c, policy.timeout));
                    let primary =
                        self.attempt_tail(op, shard, &policy, &retries, &tally, payload, first);
                    self.failover_tail(
                        op, shard, primary, partition, alive, &policy, &failovers, &tally,
                    )
                })
                .collect()
        };
        let scatter_micros = started.elapsed().as_micros() as u64;
        let retries = retries.into_inner();
        let failovers = failovers.into_inner();
        let failures = outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
        let sent = tally.sent.into_inner();
        let received = tally.received.into_inner();
        if let Some(acc) = bytes_out {
            acc.fetch_add(sent + received, Ordering::Relaxed);
        }
        let mut stats = self.shared.stats.lock();
        let entry = stats.entry(op.name()).or_default();
        entry.invocations += 1;
        entry.sub_queries += targets.len() as u64 + retries + failovers;
        entry.retries += retries;
        entry.failures += failures;
        entry.failovers += failovers;
        entry.bytes_sent += sent;
        entry.bytes_received += received;
        entry.scatter_micros += scatter_micros;
        entry.latency.record(scatter_micros);
        (outcomes, retries)
    }

    /// One shard's sub-query on the degraded path: primary first, then —
    /// on a transport failure — each alive ring successor, healthiest
    /// first, until one answers from its replica log.
    #[allow(clippy::too_many_arguments)]
    fn attempt_with_failover<O: DistributedOp>(
        &self,
        op: &O,
        shard: NodeId,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
        policy: &OpPolicy,
        retries: &AtomicU64,
        failovers: &AtomicU64,
        tally: &WireTally,
    ) -> ShardOutcome<O::Partial> {
        let primary = self.attempt(op, shard, policy, retries, tally);
        self.failover_tail(
            op, shard, primary, partition, alive, policy, failovers, tally,
        )
    }

    /// The failover half of a shard's degraded sub-query: given the
    /// primary's resolved outcome, walks the alive ring successors
    /// (healthiest first) until one answers from its replica log.
    #[allow(clippy::too_many_arguments)]
    fn failover_tail<O: DistributedOp>(
        &self,
        op: &O,
        shard: NodeId,
        primary: Result<O::Partial, StcamError>,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
        policy: &OpPolicy,
        failovers: &AtomicU64,
        tally: &WireTally,
    ) -> ShardOutcome<O::Partial> {
        let err = match primary {
            Ok(partial) => {
                return ShardOutcome {
                    shard,
                    result: Ok(partial),
                    via: None,
                }
            }
            Err(e) => e,
        };
        let replication = self.shared.replication.load(Ordering::Relaxed);
        // Only transport failures justify failover: an application-level
        // error from a reachable primary would repeat at any replica.
        if !matches!(err, StcamError::Net(_)) || !op.replica_readable() || replication == 0 {
            return ShardOutcome {
                shard,
                result: Err(err),
                via: None,
            };
        }
        // The same ring-walking rule the acked write path certifies and
        // the repair planner restores: the first `replication` *alive*
        // successors, walking past dead ring members. Reads consult
        // exactly the set writes covered and repair maintains.
        let mut candidates: Vec<NodeId> = partition.alive_successors(shard, replication, alive);
        self.shared.health.rank(&mut candidates);
        for replica in candidates {
            failovers.fetch_add(1, Ordering::Relaxed);
            match self.replica_attempt(op, shard, replica, policy, tally) {
                Ok(partial) => {
                    return ShardOutcome {
                        shard,
                        result: Ok(partial),
                        via: Some(replica),
                    }
                }
                Err(_) => continue,
            }
        }
        ShardOutcome {
            shard,
            result: Err(err),
            via: None,
        }
    }

    /// A single (no-retry) replica-read attempt for `shard`'s sub-query
    /// against `replica`.
    fn replica_attempt<O: DistributedOp>(
        &self,
        op: &O,
        shard: NodeId,
        replica: NodeId,
        policy: &OpPolicy,
        tally: &WireTally,
    ) -> Result<O::Partial, StcamError> {
        let payload = encode_to_vec(&Request::ReplicaRead {
            of: shard,
            inner: Box::new(op.request(shard)),
        });
        tally.sent(payload.len());
        self.endpoint
            .call(replica, payload, policy.timeout)
            .map_err(StcamError::from)
            .and_then(|bytes| {
                tally.received(bytes.len());
                decode_from_slice::<Response>(&bytes).map_err(StcamError::from)
            })
            .and_then(|response| self.collect_pages(replica, response, policy, tally))
            .and_then(|response| op.decode(response))
    }

    /// When a sub-query answered with the first frame of a paged result,
    /// pulls the remaining pages from the same node and reassembles the
    /// unpaged response; any other response passes through untouched.
    ///
    /// A pull that fails surfaces as the transport error it is, so an
    /// idempotent operation's retry loop re-issues the whole sub-query —
    /// the worker's page store keeps every page (page 0 included) parked
    /// under the cursor, and re-parking under a fresh cursor on retry is
    /// harmless.
    fn collect_pages(
        &self,
        node: NodeId,
        response: Response,
        policy: &OpPolicy,
        tally: &WireTally,
    ) -> Result<Response, StcamError> {
        let Response::ResultPage {
            cursor,
            page: 0,
            pages,
            kind,
            payload,
        } = response
        else {
            return Ok(response);
        };
        let mut payloads = Vec::with_capacity(pages as usize);
        payloads.push(payload);
        for page in 1..pages {
            let request = encode_to_vec(&Request::FetchPage { cursor, page });
            tally.sent(request.len());
            let bytes = self
                .endpoint
                .call(node, request, policy.timeout)
                .map_err(StcamError::from)?;
            tally.received(bytes.len());
            match decode_from_slice::<Response>(&bytes)? {
                Response::ResultPage {
                    cursor: c,
                    page: p,
                    kind: k,
                    payload,
                    ..
                } if c == cursor && p == page && k == kind => payloads.push(payload),
                // A worker answers FetchPage with an error only when the
                // cursor was evicted under churn (or the page index is
                // stale) — the result is gone, not wrong. Surface it as
                // a timeout-class transport failure so the idempotent
                // retry loop re-issues the whole sub-query, which parks
                // a fresh cursor, instead of failing the read outright.
                Response::Error(_) => return Err(StcamError::Net(NetError::Timeout)),
                other => {
                    return Err(StcamError::Remote(format!(
                        "expected page {page} of cursor {cursor}, got {other:?}"
                    )))
                }
            }
        }
        paging::reassemble(kind, &payloads).map_err(StcamError::from)
    }
}

/// One shard's outcome on the degraded scatter path.
struct ShardOutcome<P> {
    /// The shard primary the sub-query was for.
    shard: NodeId,
    /// The decoded partial, or the *primary's* error when neither the
    /// primary nor any replica answered.
    result: Result<P, StcamError>,
    /// The replica that answered, when the primary did not.
    via: Option<NodeId>,
}

// ----------------------------------------------------------------------
// Partial decoders and target helpers shared by the operations
// ----------------------------------------------------------------------

fn want_ack(response: Response) -> Result<(), StcamError> {
    match response {
        Response::Ack => Ok(()),
        Response::Error(msg) => Err(StcamError::Remote(msg)),
        other => Err(StcamError::Remote(format!("expected ack, got {other:?}"))),
    }
}

fn want_observations(response: Response) -> Result<Vec<Observation>, StcamError> {
    match response {
        Response::Observations(obs) => Ok(obs),
        Response::Error(msg) => Err(StcamError::Remote(msg)),
        other => Err(StcamError::Remote(format!(
            "expected observations, got {other:?}"
        ))),
    }
}

fn want_stats(response: Response) -> Result<WorkerStatsMsg, StcamError> {
    match response {
        Response::Stats(stats) => Ok(stats),
        Response::Error(msg) => Err(StcamError::Remote(msg)),
        other => Err(StcamError::Remote(format!("expected stats, got {other:?}"))),
    }
}

fn want_cell_counts(response: Response) -> Result<Vec<(u32, u64)>, StcamError> {
    match response {
        Response::CellCounts(cells) => Ok(cells),
        Response::Error(msg) => Err(StcamError::Remote(msg)),
        other => Err(StcamError::Remote(format!(
            "expected cell counts, got {other:?}"
        ))),
    }
}

fn want_digests(response: Response) -> Result<DigestReport, StcamError> {
    match response {
        Response::Digests(report) => Ok(report),
        Response::Error(msg) => Err(StcamError::Remote(msg)),
        other => Err(StcamError::Remote(format!(
            "expected digests, got {other:?}"
        ))),
    }
}

fn want_segment_digests(response: Response) -> Result<Vec<SegmentDigestEntry>, StcamError> {
    match response {
        Response::SegmentDigests(digests) => Ok(digests),
        Response::Error(msg) => Err(StcamError::Remote(msg)),
        other => Err(StcamError::Remote(format!(
            "expected segment digests, got {other:?}"
        ))),
    }
}

fn want_segments(
    response: Response,
) -> Result<(Vec<stcam_codec::SegmentFrame>, Vec<Observation>), StcamError> {
    match response {
        Response::Segments { frames, head } => Ok((frames, head)),
        Response::Error(msg) => Err(StcamError::Remote(msg)),
        other => Err(StcamError::Remote(format!(
            "expected segments, got {other:?}"
        ))),
    }
}

/// Every alive worker, in id order.
fn all_alive(alive: &HashSet<NodeId>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = alive.iter().copied().collect();
    v.sort();
    v
}

/// The alive owners of cells overlapping `region`.
fn region_targets(partition: &PartitionMap, alive: &HashSet<NodeId>, region: BBox) -> Vec<NodeId> {
    partition
        .workers_for_region(region)
        .into_iter()
        .filter(|w| alive.contains(w))
        .collect()
}

/// Sorts by distance from `at` (ties broken by id for determinism).
/// Uses `total_cmp`, so NaN distances (degenerate positions) order
/// deterministically instead of poisoning the comparator.
pub(crate) fn sort_knn(observations: &mut [Observation], at: Point) {
    observations.sort_by(|a, b| {
        let da = at.distance_sq(a.position);
        let db = at.distance_sq(b.position);
        da.total_cmp(&db).then(a.id.cmp(&b.id))
    });
}

// ----------------------------------------------------------------------
// The operations
// ----------------------------------------------------------------------

/// Ingest barrier: a Ping round-trip to every alive worker. Per-link
/// FIFO guarantees all previously sent ingest traffic drained first; the
/// barrier survives retries because a retried ping is sent even later.
#[derive(Debug, Clone, Copy)]
pub struct FlushOp;

impl DistributedOp for FlushOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "flush"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        all_alive(alive)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Ping
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Liveness probe: a Ping whose timeout *is* the failure signal, so it
/// carries its own policy key ("probe", single attempt by default) and
/// is consumed through [`Executor::run`] rather than `execute`.
/// Idempotent (a ping has no effect), so deployments running over lossy
/// links can install a multi-attempt "probe" policy to keep single lost
/// datagrams from masquerading as worker deaths.
#[derive(Debug, Clone, Copy)]
pub struct ProbeOp;

impl DistributedOp for ProbeOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "probe"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        all_alive(alive)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Ping
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Spatio-temporal range query over the shards overlapping `region`,
/// with optional result-size and column pushdown.
#[derive(Debug, Clone, Copy)]
pub struct RangeOp {
    /// Spatial predicate.
    pub region: BBox,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Per-shard row cutoff pushed down to the workers (0 = unlimited).
    /// Each shard keeps its `limit` lowest-id rows; the merge re-sorts
    /// and truncates globally, so the result equals the unlimited
    /// query's first `limit` rows in id order.
    pub limit: u32,
    /// Column projection pushed down to the workers
    /// ([`PROJ_FULL`](crate::PROJ_FULL) or
    /// [`PROJ_THIN`](crate::PROJ_THIN)).
    pub projection: u8,
}

impl DistributedOp for RangeOp {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        "range"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn replica_readable(&self) -> bool {
        true
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        region_targets(partition, alive, self.region)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Range {
            region: self.region,
            window: self.window,
            limit: self.limit,
            projection: self.projection,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        let mut merged: Vec<Observation> = partials.into_iter().flat_map(|(_, obs)| obs).collect();
        merged.sort_by_key(|o| o.id);
        if self.limit > 0 {
            merged.truncate(self.limit as usize);
        }
        merged
    }
}

/// [`RangeOp`] with an entity-class filter pushed down to the workers.
#[derive(Debug, Clone, Copy)]
pub struct RangeFilteredOp {
    /// Spatial predicate.
    pub region: BBox,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Required class, as `EntityClass::as_u8`.
    pub class: u8,
    /// Per-shard row cutoff pushed down to the workers (0 = unlimited);
    /// see [`RangeOp::limit`].
    pub limit: u32,
    /// Column projection pushed down to the workers; see
    /// [`RangeOp::projection`].
    pub projection: u8,
}

impl DistributedOp for RangeFilteredOp {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        "range_filtered"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn replica_readable(&self) -> bool {
        true
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        region_targets(partition, alive, self.region)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::RangeFiltered {
            region: self.region,
            window: self.window,
            class: self.class,
            limit: self.limit,
            projection: self.projection,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        let mut merged: Vec<Observation> = partials.into_iter().flat_map(|(_, obs)| obs).collect();
        merged.sort_by_key(|o| o.id);
        if self.limit > 0 {
            merged.truncate(self.limit as usize);
        }
        merged
    }
}

/// Phase one of the pruned kNN: ask only the owner of the query point's
/// cell; its k-th distance bounds phase two.
#[derive(Debug, Clone, Copy)]
pub struct KnnPhase1Op {
    /// The (alive) owner of the query point's cell.
    pub owner: NodeId,
    /// Query point.
    pub at: Point,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Result size.
    pub k: usize,
}

impl DistributedOp for KnnPhase1Op {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        "knn_phase1"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn replica_readable(&self) -> bool {
        true
    }
    fn subset_on_loss(&self) -> bool {
        false
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.owner]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Knn {
            at: self.at,
            window: self.window,
            k: self.k as u32,
            max_distance: None,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        let mut merged: Vec<Observation> = partials.into_iter().flat_map(|(_, obs)| obs).collect();
        sort_knn(&mut merged, self.at);
        merged.truncate(self.k);
        merged
    }
}

/// Phase two of the pruned kNN: scatter to the other shards intersecting
/// the bounding disk (or all others when phase one under-filled), then
/// fold the phase-one seed into the final top-k.
#[derive(Debug, Clone)]
pub struct KnnPhase2Op {
    /// Query point.
    pub at: Point,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Result size.
    pub k: usize,
    /// Prune radius from phase one (None = no bound established).
    pub bound: Option<f64>,
    /// The phase-one worker, excluded from the scatter.
    pub exclude: NodeId,
    /// Phase-one results, folded into the merge.
    pub seed: Vec<Observation>,
}

impl DistributedOp for KnnPhase2Op {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        "knn_phase2"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn replica_readable(&self) -> bool {
        true
    }
    fn subset_on_loss(&self) -> bool {
        false
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        let candidates = match self.bound {
            Some(radius) => partition.workers_for_region(BBox::around(self.at, radius)),
            None => all_alive(alive),
        };
        candidates
            .into_iter()
            .filter(|w| *w != self.exclude && alive.contains(w))
            .collect()
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Knn {
            at: self.at,
            window: self.window,
            k: self.k as u32,
            max_distance: self.bound,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        let mut merged = self.seed;
        merged.extend(partials.into_iter().flat_map(|(_, obs)| obs));
        sort_knn(&mut merged, self.at);
        merged.truncate(self.k);
        merged
    }
}

/// The naive kNN baseline: broadcast to every alive worker, no bound.
#[derive(Debug, Clone, Copy)]
pub struct KnnBroadcastOp {
    /// Query point.
    pub at: Point,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Result size.
    pub k: usize,
}

impl DistributedOp for KnnBroadcastOp {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        "knn_broadcast"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn replica_readable(&self) -> bool {
        true
    }
    fn subset_on_loss(&self) -> bool {
        false
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        all_alive(alive)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Knn {
            at: self.at,
            window: self.window,
            k: self.k as u32,
            max_distance: None,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        let mut merged: Vec<Observation> = partials.into_iter().flat_map(|(_, obs)| obs).collect();
        sort_knn(&mut merged, self.at);
        merged.truncate(self.k);
        merged
    }
}

/// Heat-map aggregate with worker-side partial aggregation: each shard
/// reduces to sparse `(bucket, count)` pairs over its own region (most
/// of the grid is zero for any one shard), the merge sums them into the
/// dense answer.
#[derive(Debug, Clone, Copy)]
pub struct HeatmapOp {
    /// Aggregation buckets.
    pub buckets: GridSpecMsg,
    /// Temporal predicate.
    pub window: TimeInterval,
}

impl HeatmapOp {
    fn cell_count(&self) -> usize {
        self.buckets.cols as usize * self.buckets.rows as usize
    }
}

impl DistributedOp for HeatmapOp {
    type Partial = Vec<(u32, u64)>;
    type Output = Vec<u64>;
    fn name(&self) -> &'static str {
        "heatmap"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn replica_readable(&self) -> bool {
        true
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        region_targets(partition, alive, self.buckets.to_grid().extent())
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Heatmap {
            buckets: self.buckets,
            window: self.window,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<(u32, u64)>, StcamError> {
        let cells = want_cell_counts(response)?;
        if cells
            .iter()
            .any(|&(idx, _)| idx as usize >= self.cell_count())
        {
            return Err(StcamError::Remote("bucket index out of range".into()));
        }
        Ok(cells)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<(u32, u64)>)>) -> Vec<u64> {
        let mut total = vec![0u64; self.cell_count()];
        for (_, cells) in partials {
            for (idx, count) in cells {
                total[idx as usize] += count;
            }
        }
        total
    }
}

/// The `k` densest buckets of a heat-map grid, computed from *sparse*
/// per-shard partials: workers report only occupied buckets, the merge
/// sums and ranks. Ties rank by bucket index for determinism.
#[derive(Debug, Clone, Copy)]
pub struct TopCellsOp {
    /// Aggregation buckets.
    pub buckets: GridSpecMsg,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Number of cells to keep.
    pub k: usize,
}

impl DistributedOp for TopCellsOp {
    type Partial = Vec<(u32, u64)>;
    type Output = Vec<(CellId, u64)>;
    fn name(&self) -> &'static str {
        "top_cells"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn replica_readable(&self) -> bool {
        true
    }
    fn subset_on_loss(&self) -> bool {
        false
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        region_targets(partition, alive, self.buckets.to_grid().extent())
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::TopCells {
            buckets: self.buckets,
            window: self.window,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<(u32, u64)>, StcamError> {
        let cells = want_cell_counts(response)?;
        let limit = self.buckets.cols as u64 * self.buckets.rows as u64;
        if cells.iter().any(|&(idx, _)| idx as u64 >= limit) {
            return Err(StcamError::Remote("bucket index out of range".into()));
        }
        Ok(cells)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<(u32, u64)>)>) -> Vec<(CellId, u64)> {
        let mut totals: HashMap<u32, u64> = HashMap::new();
        for (_, cells) in partials {
            for (idx, count) in cells {
                *totals.entry(idx).or_insert(0) += count;
            }
        }
        let mut ranked: Vec<(u32, u64)> = totals.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.k);
        let cols = self.buckets.cols;
        ranked
            .into_iter()
            .map(|(idx, count)| (CellId::new(idx % cols, idx / cols), count))
            .collect()
    }
}

/// Cluster-wide retention sweep. Idempotent: evicting before the same
/// cutoff twice is a no-op. Carries the issuer's routing-plan epoch so
/// workers can fence sweeps from a stale control plane.
#[derive(Debug, Clone, Copy)]
pub struct EvictOp {
    /// Observations strictly older than this are dropped.
    pub cutoff: Timestamp,
    /// The issuer's routing-plan epoch.
    pub epoch: u64,
}

impl DistributedOp for EvictOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "evict"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        all_alive(alive)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::EvictBefore {
            cutoff: self.cutoff,
            epoch: self.epoch,
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Control-plane census sweep: collects every alive worker's
/// [`CensusReport`](crate::CensusReport) — installed route epoch, owned cells, replica-log
/// keys, and standing registrations. Consumed via [`Executor::run`] so a
/// reconstructing coordinator can use whatever subset of the roster
/// answers.
#[derive(Debug, Clone, Copy)]
pub struct CensusOp;

impl DistributedOp for CensusOp {
    type Partial = crate::protocol::CensusReport;
    type Output = Vec<(NodeId, crate::protocol::CensusReport)>;
    fn name(&self) -> &'static str {
        "census"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        all_alive(alive)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Census
    }
    fn decode(&self, response: Response) -> Result<crate::protocol::CensusReport, StcamError> {
        match response {
            Response::Census(report) => Ok(report),
            Response::Error(msg) => Err(StcamError::Remote(msg)),
            other => Err(StcamError::Remote(format!(
                "unexpected census response: {other:?}"
            ))),
        }
    }
    fn merge(
        self,
        mut partials: Vec<(NodeId, crate::protocol::CensusReport)>,
    ) -> Vec<(NodeId, crate::protocol::CensusReport)> {
        partials.sort_by_key(|(w, _)| *w);
        partials
    }
}

/// Statistics collection from every alive worker.
#[derive(Debug, Clone, Copy)]
pub struct StatsOp;

impl DistributedOp for StatsOp {
    type Partial = WorkerStatsMsg;
    type Output = Vec<(NodeId, WorkerStatsMsg)>;
    fn name(&self) -> &'static str {
        "stats"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        all_alive(alive)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Stats
    }
    fn decode(&self, response: Response) -> Result<WorkerStatsMsg, StcamError> {
        want_stats(response)
    }
    fn merge(self, mut partials: Vec<(NodeId, WorkerStatsMsg)>) -> Vec<(NodeId, WorkerStatsMsg)> {
        partials.sort_by_key(|(w, _)| *w);
        partials
    }
}

/// Installs a standing query at the workers overlapping its region
/// (optionally restricted to one worker, for failover re-registration).
/// Idempotent: re-inserting the same registration is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct RegisterContinuousOp {
    /// Query id.
    pub id: ContinuousQueryId,
    /// Match predicate.
    pub predicate: Predicate,
    /// Node notified on match.
    pub notify: NodeId,
    /// When set, register only at this worker (it must overlap).
    pub only: Option<NodeId>,
}

impl DistributedOp for RegisterContinuousOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "register_continuous"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        region_targets(partition, alive, self.predicate.region)
            .into_iter()
            .filter(|w| self.only.is_none_or(|o| o == *w))
            .collect()
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::RegisterContinuous {
            id: self.id,
            predicate: self.predicate,
            notify: self.notify,
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Removes a standing query everywhere. Idempotent.
#[derive(Debug, Clone, Copy)]
pub struct UnregisterContinuousOp {
    /// Query id.
    pub id: ContinuousQueryId,
}

impl DistributedOp for UnregisterContinuousOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "unregister_continuous"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        all_alive(alive)
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::UnregisterContinuous(self.id)
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Shard migration, extract side: remove and return `region`'s contents
/// from one worker. **Not** idempotent — a retried extract after a lost
/// reply would discard the first extraction's data.
#[derive(Debug, Clone, Copy)]
pub struct ExtractRegionOp {
    /// The worker migrating data away.
    pub target: NodeId,
    /// The region being migrated.
    pub region: BBox,
}

impl DistributedOp for ExtractRegionOp {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        "extract_region"
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::ExtractRegion {
            region: self.region,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        partials.into_iter().flat_map(|(_, obs)| obs).collect()
    }
}

/// Failover: tell a successor to absorb its replica log of `failed`.
/// Idempotent: promotion removes the log before absorbing it, and the
/// worker inserts through an id filter, so a retried promote after a
/// lost ack finds an empty log and is a no-op. Retrying matters — a
/// promote lost to the loss model would otherwise strand the replica
/// data outside the primary index until a second failover.
#[derive(Debug, Clone, Copy)]
pub struct PromoteOp {
    /// The successor absorbing the shard.
    pub target: NodeId,
    /// The failed primary.
    pub failed: NodeId,
    /// The issuer's routing-plan epoch (split-brain fencing).
    pub epoch: u64,
}

impl DistributedOp for PromoteOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "promote"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Promote {
            failed: self.failed,
            epoch: self.epoch,
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Installs every worker's slice of the routing plan (epoch + owned
/// macro cells). Broadcast after each plan publication and pushed to
/// restarted workers so a stale node cannot keep acknowledging sequenced
/// ingest for cells it no longer owns. Idempotent: installing the same
/// epoch twice is a no-op, and workers ignore older epochs.
#[derive(Debug, Clone)]
pub struct RouteUpdateOp {
    /// The plan epoch being installed.
    pub epoch: u64,
    /// The macro grid the packed cell indices refer to.
    pub grid: GridSpecMsg,
    /// Per-worker owned cells, packed `row * cols + col`. Workers absent
    /// from the map receive an *empty* cell set — which is the point for
    /// failed-out nodes: an empty route makes them NACK every sequenced
    /// batch, steering stale senders to refresh.
    pub cells: HashMap<NodeId, Vec<u32>>,
    /// When set, send only to this worker (restart push).
    pub only: Option<NodeId>,
}

impl RouteUpdateOp {
    /// Builds the broadcast for `partition` at `epoch`.
    pub fn from_plan(epoch: u64, partition: &PartitionMap) -> Self {
        let cols = partition.grid().cols();
        let cells = partition
            .workers()
            .iter()
            .map(|&w| {
                let packed = partition
                    .cells_of(w)
                    .into_iter()
                    .map(|c| c.row * cols + c.col)
                    .collect();
                (w, packed)
            })
            .collect();
        RouteUpdateOp {
            epoch,
            grid: GridSpecMsg::from(*partition.grid()),
            cells,
            only: None,
        }
    }
}

impl DistributedOp for RouteUpdateOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "route_update"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        match self.only {
            Some(worker) => vec![worker],
            None => all_alive(alive),
        }
    }
    fn request(&self, to: NodeId) -> Request {
        Request::RouteUpdate {
            epoch: self.epoch,
            grid: self.grid,
            cells: self.cells.get(&to).cloned().unwrap_or_default(),
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Anti-entropy digest sweep: collect every worker's per-cell
/// count/checksum summaries (primary shard plus held replica logs).
/// Idempotent — digests are pure reads. The merge keeps each report tied
/// to its worker, because the repair planner compares copies by node.
#[derive(Debug, Clone, Copy)]
pub struct CellDigestOp {
    /// The macro grid to bucket by (the partition grid of the sweep).
    pub grid: GridSpecMsg,
    /// When set, sweep only this worker (spot checks).
    pub only: Option<NodeId>,
}

impl DistributedOp for CellDigestOp {
    type Partial = DigestReport;
    type Output = Vec<(NodeId, DigestReport)>;
    fn name(&self) -> &'static str {
        "cell_digest"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        match self.only {
            Some(worker) => vec![worker],
            None => all_alive(alive),
        }
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::CellDigest { grid: self.grid }
    }
    fn decode(&self, response: Response) -> Result<DigestReport, StcamError> {
        want_digests(response)
    }
    fn merge(self, mut partials: Vec<(NodeId, DigestReport)>) -> Vec<(NodeId, DigestReport)> {
        partials.sort_by_key(|(w, _)| *w);
        partials
    }
}

/// One chunk of a repair stream into `target`: overwrite (or append to)
/// the cell's copy held for `primary` — the replica log when `primary`
/// differs from the target, the primary shard itself when they are equal
/// (the rejoin/rebalance bulk-sync path). Idempotent: the first chunk
/// truncates before writing and every append passes the holder's id
/// filter, so a retransmitted chunk changes nothing.
#[derive(Debug, Clone)]
pub struct RepairOp {
    /// The worker whose copy is being repaired.
    pub target: NodeId,
    /// The primary the copy belongs to.
    pub primary: NodeId,
    /// The macro grid `cell` refers to.
    pub grid: GridSpecMsg,
    /// Packed macro-cell index being overwritten.
    pub cell: u32,
    /// Whether to drop the cell's current contents first (set on the
    /// first chunk of a stream, and on pure cleanups with no batch).
    pub truncate: bool,
    /// The observations of this chunk.
    pub batch: Vec<Observation>,
}

impl DistributedOp for RepairOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "repair"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Repair {
            primary: self.primary,
            grid: self.grid,
            cell: self.cell,
            truncate: self.truncate,
            batch: self.batch.clone(),
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Readmission handshake sent to a restarted worker: reset all local
/// state and install the epoch-stamped routing slice it will own once
/// the coordinator publishes the readmitting plan. Idempotent — resetting
/// an already-empty worker and reinstalling the same route are no-ops.
#[derive(Debug, Clone)]
pub struct RejoinOp {
    /// The rejoining worker.
    pub target: NodeId,
    /// The plan epoch the worker will re-enter under.
    pub epoch: u64,
    /// The macro grid the packed cells refer to.
    pub grid: GridSpecMsg,
    /// The cells the worker will own, packed `row * cols + col`.
    pub cells: Vec<u32>,
}

impl DistributedOp for RejoinOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "rejoin"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Rejoin {
            epoch: self.epoch,
            grid: self.grid,
            cells: self.cells.clone(),
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Collects one worker's sealed-segment digests — the compare step of
/// segment-granular bulk sync. Idempotent pure read.
#[derive(Debug, Clone, Copy)]
pub struct SegmentDigestOp {
    /// The worker whose archive is summarised.
    pub target: NodeId,
}

impl DistributedOp for SegmentDigestOp {
    type Partial = Vec<SegmentDigestEntry>;
    type Output = Vec<SegmentDigestEntry>;
    fn name(&self) -> &'static str {
        "segment_digest"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::SegmentDigest
    }
    fn decode(&self, response: Response) -> Result<Vec<SegmentDigestEntry>, StcamError> {
        want_segment_digests(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<SegmentDigestEntry>)>) -> Vec<SegmentDigestEntry> {
        partials.into_iter().flat_map(|(_, d)| d).collect()
    }
}

/// Reads a region's contents from one worker as whole sealed segment
/// frames plus loose head rows, skipping segments the requester already
/// holds. Non-destructive and deterministic (retried exports produce
/// digest-identical frames), so the op is idempotent over lossy links.
#[derive(Debug, Clone)]
pub struct ExportSegmentsOp {
    /// The worker to export from.
    pub target: NodeId,
    /// The region whose contents move.
    pub region: BBox,
    /// Segment digests the destination already holds.
    pub skip: Vec<SegmentDigestEntry>,
}

impl DistributedOp for ExportSegmentsOp {
    type Partial = (Vec<stcam_codec::SegmentFrame>, Vec<Observation>);
    type Output = (Vec<stcam_codec::SegmentFrame>, Vec<Observation>);
    fn name(&self) -> &'static str {
        "export_segments"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::ExportSegments {
            region: self.region,
            skip: self.skip.clone(),
        }
    }
    fn decode(
        &self,
        response: Response,
    ) -> Result<(Vec<stcam_codec::SegmentFrame>, Vec<Observation>), StcamError> {
        want_segments(response)
    }
    fn merge(
        self,
        partials: Vec<(NodeId, (Vec<stcam_codec::SegmentFrame>, Vec<Observation>))>,
    ) -> (Vec<stcam_codec::SegmentFrame>, Vec<Observation>) {
        let mut frames = Vec::new();
        let mut head = Vec::new();
        for (_, (f, h)) in partials {
            frames.extend(f);
            head.extend(h);
        }
        (frames, head)
    }
}

/// Installs exported segments whole into one worker's archive tier, and
/// the loose head rows through deduplicated ingest. Idempotent: the
/// receiver drops frames whose digest it already holds and rows it has
/// already seen, so a retry after a lost ack changes nothing.
#[derive(Debug, Clone)]
pub struct InstallSegmentsOp {
    /// The worker receiving the segments.
    pub target: NodeId,
    /// Sealed segment frames to archive.
    pub frames: Vec<stcam_codec::SegmentFrame>,
    /// Loose mutable-head rows to ingest.
    pub head: Vec<Observation>,
}

impl DistributedOp for InstallSegmentsOp {
    type Partial = ();
    type Output = ();
    fn name(&self) -> &'static str {
        "install_segments"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::InstallSegments {
            frames: self.frames.clone(),
            head: self.head.clone(),
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        want_ack(response)
    }
    fn merge(self, _partials: Vec<(NodeId, ())>) {}
}

/// Non-destructive read of a region's contents from one worker — the
/// copy side of repair and copy-then-cutover migration. Unlike
/// [`ExtractRegionOp`] the source keeps its data, so the op is idempotent
/// and safe to retry over lossy links; the stale source copy is truncated
/// later, only after the destination chain is covered.
#[derive(Debug, Clone, Copy)]
pub struct CopyRegionOp {
    /// The worker to read from.
    pub target: NodeId,
    /// The region to copy.
    pub region: BBox,
}

impl DistributedOp for CopyRegionOp {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        "copy_region"
    }
    fn idempotent(&self) -> bool {
        true
    }
    fn targets(&self, _partition: &PartitionMap, _alive: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.target]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Range {
            region: self.region,
            window: TimeInterval::ALL,
            limit: 0,
            projection: crate::protocol::PROJ_FULL,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        partials.into_iter().flat_map(|(_, obs)| obs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_net::{Fabric, LinkModel};
    use stcam_world::{EntityClass, EntityId};

    fn obs(seq: u64, x: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::ZERO,
            position: Point::new(x, 0.0),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    fn window() -> TimeInterval {
        TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100))
    }

    fn one_worker_world() -> (PartitionMap, HashSet<NodeId>) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let partition = PartitionMap::uniform(extent, 250.0, vec![NodeId(1)]);
        let alive: HashSet<NodeId> = [NodeId(1)].into_iter().collect();
        (partition, alive)
    }

    #[test]
    fn policy_overrides_take_effect() {
        let fabric = Fabric::new(LinkModel::instant());
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy::new(StdDuration::from_secs(5)),
        );
        assert_eq!(exec.policy_for("range").max_attempts, 3);
        exec.set_policy("range", OpPolicy::no_retry(StdDuration::from_millis(50)));
        assert_eq!(exec.policy_for("range").max_attempts, 1);
        assert_eq!(
            exec.policy_for("range").timeout,
            StdDuration::from_millis(50)
        );
        // Other ops keep the default.
        assert_eq!(exec.policy_for("heatmap").max_attempts, 3);
    }

    #[test]
    fn op_stats_since_subtracts() {
        let a = OpStats {
            invocations: 2,
            sub_queries: 8,
            bytes_sent: 100,
            ..Default::default()
        };
        let b = OpStats {
            invocations: 5,
            sub_queries: 20,
            bytes_sent: 450,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.invocations, 3);
        assert_eq!(d.sub_queries, 12);
        assert_eq!(d.bytes_sent, 350);
    }

    #[test]
    fn decoders_map_remote_errors() {
        let range = RangeOp {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            window: window(),
            limit: 0,
            projection: 0,
        };
        assert!(matches!(
            range.decode(Response::Error("boom".into())),
            Err(StcamError::Remote(_))
        ));
        assert!(matches!(
            range.decode(Response::Ack),
            Err(StcamError::Remote(_))
        ));
        assert!(matches!(FlushOp.decode(Response::Ack), Ok(())));
        let heat = HeatmapOp {
            buckets: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 10.0,
                cols: 2,
                rows: 2,
            },
            window: window(),
        };
        // An out-of-range bucket index is an application error, not a
        // panic at merge time.
        assert!(matches!(
            heat.decode(Response::CellCounts(vec![(4, 1)])),
            Err(StcamError::Remote(_))
        ));
        assert_eq!(
            heat.decode(Response::CellCounts(vec![(0, 1), (3, 4)]))
                .unwrap(),
            vec![(0, 1), (3, 4)]
        );
    }

    #[test]
    fn sort_knn_orders_by_distance_then_id_and_survives_nan() {
        let mut v = vec![obs(2, 5.0), obs(0, 10.0), obs(1, 5.0)];
        sort_knn(&mut v, Point::new(0.0, 0.0));
        let seqs: Vec<u64> = v.iter().map(|o| o.id.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 0]);
        // A NaN position no longer destabilises the order of the rest.
        let mut w = vec![obs(3, f64::NAN), obs(4, 1.0), obs(5, 2.0)];
        sort_knn(&mut w, Point::new(0.0, 0.0));
        assert_eq!(w[0].id.seq(), 4);
        assert_eq!(w[1].id.seq(), 5);
        assert_eq!(w[2].id.seq(), 3); // NaN distance sorts last under total_cmp
    }

    #[test]
    fn top_cells_merge_ranks_by_count_then_index() {
        let op = TopCellsOp {
            buckets: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 10.0,
                cols: 4,
                rows: 4,
            },
            window: window(),
            k: 3,
        };
        let partials = vec![
            (NodeId(1), vec![(0u32, 5u64), (5, 2)]),
            (NodeId(2), vec![(5, 2), (9, 4), (1, 4)]),
        ];
        let top = op.merge(partials);
        // cell 0 → 5; cells 1, 5, 9 → 4 each (tie broken by index).
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (CellId::new(0, 0), 5));
        assert_eq!(top[1], (CellId::new(1, 0), 4));
        assert_eq!(top[2], (CellId::new(1, 1), 4)); // index 5 = col 1, row 1
    }

    #[test]
    fn idempotent_read_is_retried_after_a_lost_request() {
        // A worker that swallows the first request it sees and serves
        // every later one: the seed coordinator would surface a timeout;
        // the executor retries and succeeds, with the retry on record.
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy {
                timeout: StdDuration::from_millis(100),
                max_attempts: 3,
                backoff: StdDuration::from_millis(1),
            },
        );
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_worker = std::sync::Arc::clone(&stop);
        let flaky = std::thread::spawn(move || {
            let mut dropped = false;
            while !stop_worker.load(Ordering::Relaxed) {
                let Some(env) = worker_ep.recv_timeout(StdDuration::from_millis(10)) else {
                    continue;
                };
                if !dropped {
                    dropped = true; // swallow the first attempt
                    continue;
                }
                let _ = worker_ep.reply(
                    &env,
                    encode_to_vec(&Response::Observations(vec![obs(7, 1.0)])),
                );
            }
        });
        let (partition, alive) = one_worker_world();
        let result = exec.execute(
            RangeOp {
                region: BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
                window: window(),
                limit: 0,
                projection: 0,
            },
            &partition,
            &alive,
        );
        stop.store(true, Ordering::Relaxed);
        flaky.join().unwrap();
        let hits = result.expect("retry should have recovered the query");
        assert_eq!(hits.len(), 1);
        let stats = exec.stats_for("range");
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.sub_queries, 2); // original + retry
        assert_eq!(stats.failures, 0);
        assert!(stats.bytes_sent > 0);
        assert!(stats.bytes_received > 0);
    }

    #[test]
    fn non_idempotent_op_is_never_retried() {
        // Nobody serves NodeId(1): every attempt times out. Extract must
        // fail on the first timeout without retrying (a retry after a
        // lost reply would discard the first extraction's data).
        let fabric = Fabric::new(LinkModel::instant());
        let _worker_ep = fabric.register(NodeId(1));
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy {
                timeout: StdDuration::from_millis(50),
                max_attempts: 3,
                backoff: StdDuration::ZERO,
            },
        );
        let (partition, alive) = one_worker_world();
        let result = exec.execute(
            ExtractRegionOp {
                target: NodeId(1),
                region: BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            },
            &partition,
            &alive,
        );
        assert!(matches!(result, Err(StcamError::Net(NetError::Timeout))));
        let stats = exec.stats_for("extract_region");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.sub_queries, 1);
        assert_eq!(stats.failures, 1);
    }

    #[test]
    fn completeness_accounting() {
        let full = Completeness {
            shards_total: 4,
            shards_from_primary: 3,
            shards_from_replica: 1,
            replicas_used: vec![(NodeId(2), NodeId(3))],
            subset: true,
            ..Completeness::default()
        };
        assert!(full.is_full());
        assert_eq!(full.fraction(), 1.0);
        let mut degraded = Completeness {
            shards_total: 4,
            shards_from_primary: 3,
            missing: vec![NodeId(2)],
            subset: true,
            ..Completeness::default()
        };
        assert!(!degraded.is_full());
        assert_eq!(degraded.fraction(), 0.75);
        // Absorbing a second phase sums counters, dedups missing, and
        // ANDs the subset guarantee.
        degraded.absorb(Completeness {
            shards_total: 2,
            shards_from_primary: 1,
            missing: vec![NodeId(2), NodeId(5)],
            retries: 1,
            subset: false,
            ..Completeness::default()
        });
        assert_eq!(degraded.shards_total, 6);
        assert_eq!(degraded.missing, vec![NodeId(2), NodeId(5)]);
        assert_eq!(degraded.retries, 1);
        assert!(!degraded.subset);
        // Nothing to cover counts as complete.
        assert_eq!(Completeness::default().fraction(), 1.0);
        assert!(Completeness::default().is_full());
    }

    #[test]
    fn op_degradation_flags() {
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let grid = GridSpecMsg {
            origin: Point::new(0.0, 0.0),
            cell_size: 1.0,
            cols: 1,
            rows: 1,
        };
        // Unions and per-bucket sums lose rows monotonically.
        let range = RangeOp {
            region,
            window: window(),
            limit: 0,
            projection: 0,
        };
        assert!(range.replica_readable() && range.subset_on_loss());
        let heat = HeatmapOp {
            buckets: grid,
            window: window(),
        };
        assert!(heat.replica_readable() && heat.subset_on_loss());
        // Top-k shapes can promote wrong items when a shard is lost.
        let knn = KnnBroadcastOp {
            at: Point::ORIGIN,
            window: window(),
            k: 3,
        };
        assert!(knn.replica_readable() && !knn.subset_on_loss());
        let top = TopCellsOp {
            buckets: grid,
            window: window(),
            k: 3,
        };
        assert!(top.replica_readable() && !top.subset_on_loss());
        // Writes and probes never read replicas.
        assert!(!FlushOp.replica_readable());
        assert!(!ProbeOp.replica_readable());
        let extract = ExtractRegionOp {
            target: NodeId(1),
            region,
        };
        assert!(!extract.replica_readable() && !extract.idempotent());
    }

    #[test]
    fn degraded_execute_reports_a_dead_unreplicated_shard_as_missing() {
        // One worker, nobody serving it, replication 0: the degraded
        // path must answer with an empty value and a truthful account.
        let fabric = Fabric::new(LinkModel::instant());
        let _worker_ep = fabric.register(NodeId(1));
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy::no_retry(StdDuration::from_millis(50)),
        );
        let (partition, alive) = one_worker_world();
        let d = exec.execute_degraded(
            RangeOp {
                region: BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
                window: window(),
                limit: 0,
                projection: 0,
            },
            &partition,
            &alive,
        );
        assert!(d.value.is_empty());
        assert_eq!(d.completeness.shards_total, 1);
        assert_eq!(d.completeness.missing, vec![NodeId(1)]);
        assert!(!d.completeness.is_full());
        assert_eq!(d.completeness.fraction(), 0.0);
        assert!(d.completeness.subset, "a lost range shard still subsets");
        // The failed call also raised suspicion on the silent worker.
        assert!(exec.health().is_suspect(NodeId(1)));
        let stats = exec.stats_for("range");
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.failovers, 0, "no replicas configured");
    }

    #[test]
    fn empty_target_set_yields_empty_output_without_traffic() {
        let fabric = Fabric::new(LinkModel::instant());
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy::new(StdDuration::from_secs(1)),
        );
        let (partition, _) = one_worker_world();
        let alive = HashSet::new(); // nobody alive
        let hits = exec
            .execute(
                RangeOp {
                    region: BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
                    window: window(),
                    limit: 0,
                    projection: 0,
                },
                &partition,
                &alive,
            )
            .unwrap();
        assert!(hits.is_empty());
        let stats = exec.stats_for("range");
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.sub_queries, 0);
        assert_eq!(stats.bytes_sent, 0);
    }
}
