//! The coordinator ↔ worker wire protocol.
//!
//! Every message is a [`Request`] or [`Response`] encoded with
//! `stcam-codec`. Discriminants are explicit single bytes so the format is
//! stable and the communication-cost experiment's byte counts are
//! meaningful.

use bytes::{Buf, BufMut};
use stcam_camnet::{batch, Observation, ObservationId};
use stcam_codec::{DecodeError, Wire};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval};
use stcam_net::NodeId;

use crate::continuous::{ContinuousQueryId, Predicate};

/// A wire-encodable stand-in for [`GridSpec`] (which keeps its fields
/// private in `stcam-geo`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpecMsg {
    /// Grid origin.
    pub origin: Point,
    /// Cell side, metres.
    pub cell_size: f64,
    /// Columns.
    pub cols: u32,
    /// Rows.
    pub rows: u32,
}

impl From<GridSpec> for GridSpecMsg {
    fn from(g: GridSpec) -> Self {
        GridSpecMsg {
            origin: g.origin(),
            cell_size: g.cell_size(),
            cols: g.cols(),
            rows: g.rows(),
        }
    }
}

impl GridSpecMsg {
    /// Reconstructs the grid.
    pub fn to_grid(self) -> GridSpec {
        GridSpec::new(self.origin, self.cell_size, self.cols, self.rows)
    }
}

impl Wire for GridSpecMsg {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.origin.encode(buf);
        self.cell_size.encode(buf);
        self.cols.encode(buf);
        self.rows.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let origin = Point::decode(buf)?;
        let cell_size = f64::decode(buf)?;
        let cols = u32::decode(buf)?;
        let rows = u32::decode(buf)?;
        if cell_size <= 0.0 || !cell_size.is_finite() || cols == 0 || rows == 0 {
            return Err(DecodeError::InvalidValue {
                reason: "degenerate grid spec",
            });
        }
        Ok(GridSpecMsg {
            origin,
            cell_size,
            cols,
            rows,
        })
    }
}

/// A request sent to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Sequenced, acknowledged ingest: the cluster's one write path.
    ///
    /// The `(sender, seq)` pair identifies the batch for retransmission
    /// dedup: the worker remembers recent sequence numbers per sender and
    /// answers a retransmitted batch from that memory without re-applying
    /// it. `epoch` is the routing-plan epoch the sender routed under; a
    /// worker whose own plan disagrees about ownership answers with
    /// [`Response::IngestNack`] naming the misrouted observations. The
    /// worker does **not** replicate onward — the sender performs
    /// replication itself (via `ReplicateSeq`) so that an ack can certify
    /// durability.
    IngestSeq {
        /// The ingesting endpoint (an ingestor or the coordinator).
        sender: NodeId,
        /// Per-sender monotonically increasing batch sequence number.
        seq: u64,
        /// The routing-plan epoch the sender routed this batch under.
        epoch: u64,
        /// The observations, all believed owned by the addressee.
        batch: Vec<Observation>,
    },
    /// Sequenced, acknowledged replica write, sent by the *ingesting*
    /// endpoint (not the primary) to each ring successor of `primary`
    /// before the batch is acknowledged.
    /// Deduplicated by `(sender, seq)` exactly like `IngestSeq`, and
    /// answered with [`Response::IngestAck`].
    ReplicateSeq {
        /// The ingesting endpoint performing sender-side replication.
        sender: NodeId,
        /// Per-sender monotonically increasing batch sequence number
        /// (a namespace separate from `IngestSeq` sequence numbers).
        seq: u64,
        /// The worker whose shard these observations belong to.
        primary: NodeId,
        /// The replicated observations.
        batch: Vec<Observation>,
    },
    /// Installs the addressee's slice of the routing plan: the set of
    /// grid cells it owns as of `epoch`. Workers use it to detect
    /// misrouted `IngestSeq` batches from stale senders; updates with an
    /// epoch older than the installed one are ignored.
    RouteUpdate {
        /// The routing-plan epoch this cell set belongs to.
        epoch: u64,
        /// The macro grid the cell indices refer to.
        grid: GridSpecMsg,
        /// Owned cells, packed as `row * grid_cols + col`.
        cells: Vec<u32>,
    },
    /// Return observations in `region` × `window` from the local shard.
    Range {
        /// Spatial predicate.
        region: BBox,
        /// Temporal predicate.
        window: TimeInterval,
        /// Per-shard result cutoff: when non-zero, the worker ships at
        /// most `limit` rows — the lowest observation ids first, so the
        /// client's merge-and-truncate over all shards is exact. `0`
        /// means unlimited.
        limit: u32,
        /// Column projection ([`PROJ_FULL`] or [`PROJ_THIN`]): with
        /// `PROJ_THIN` the worker blanks the appearance signature and
        /// ground-truth columns before encoding, and the batch codec
        /// elides the 64-byte signature column from the wire frame.
        projection: u8,
    },
    /// Return the local k nearest observations to `at` within `window`,
    /// optionally only those within `max_distance` of `at`.
    Knn {
        /// Query point.
        at: Point,
        /// Temporal predicate.
        window: TimeInterval,
        /// Result size bound.
        k: u32,
        /// Prune radius from a previous phase, if any.
        max_distance: Option<f64>,
    },
    /// Return per-bucket counts over the local shard.
    Heatmap {
        /// Aggregation buckets.
        buckets: GridSpecMsg,
        /// Temporal predicate.
        window: TimeInterval,
    },
    /// Register a standing continuous query; matches stream to `notify`.
    RegisterContinuous {
        /// Query id (cluster-unique).
        id: ContinuousQueryId,
        /// Match predicate.
        predicate: Predicate,
        /// Node to notify on match.
        notify: NodeId,
    },
    /// Remove a standing query.
    UnregisterContinuous(ContinuousQueryId),
    /// Report local statistics.
    Stats,
    /// Drop observations older than the timestamp (retention sweep).
    /// Carries the issuing coordinator's routing-plan epoch so a worker
    /// can fence sweeps from a stale control plane.
    EvictBefore {
        /// Evict observations strictly older than this timestamp.
        cutoff: stcam_geo::Timestamp,
        /// The issuer's routing-plan epoch; workers reject the sweep when
        /// it is below their installed route epoch.
        epoch: u64,
    },
    /// Failover: absorb the local replica log held for `failed` into the
    /// primary shard. The reply is `Ack`; the replication factor is
    /// restored afterwards by the anti-entropy repair pass.
    Promote {
        /// The failed worker being taken over.
        failed: NodeId,
        /// The issuer's routing-plan epoch; workers reject the promotion
        /// when it is below their installed route epoch (split-brain
        /// fencing — a stale coordinator must not trigger failover).
        epoch: u64,
    },
    /// Control-plane census: report this worker's installed route epoch,
    /// owned primary cells, held replica-log keys, and locally-installed
    /// standing registrations ([`Response::Census`]). A restarting
    /// coordinator reconstructs its entire control state — partition map,
    /// roster, epoch, and continuous-query table — from these reports;
    /// workers are the ground truth, the coordinator only a cache.
    Census,
    /// Shard migration: remove and return every observation positioned in
    /// `region` (all retained time). Online rebalancing drains the result
    /// into the region's new owner with `Repair`.
    ExtractRegion {
        /// The spatial region being migrated away.
        region: BBox,
    },
    /// As `Range` with an additional entity-class filter — predicate
    /// pushdown for typed queries ("trucks inside A").
    RangeFiltered {
        /// Spatial predicate.
        region: BBox,
        /// Temporal predicate.
        window: TimeInterval,
        /// Required class, as `EntityClass::as_u8`.
        class: u8,
        /// Per-shard result cutoff, as in [`Request::Range`] (`0` =
        /// unlimited).
        limit: u32,
        /// Column projection, as in [`Request::Range`].
        projection: u8,
    },
    /// Return the *non-zero* per-bucket counts over the local shard, as
    /// sparse `(bucket index, count)` pairs. The coordinator sums them
    /// and keeps the densest `k` ("hot cell" ranking). The sparse reply
    /// keeps the wire cost proportional to occupied cells, not grid size.
    TopCells {
        /// Aggregation buckets.
        buckets: GridSpecMsg,
        /// Temporal predicate.
        window: TimeInterval,
    },
    /// Answer `inner` from the replica log this worker holds for primary
    /// `of`, instead of from the local primary shard. This is the
    /// replica-failover read path: when a shard's primary is unreachable,
    /// the executor re-issues the shard's sub-query to a ring successor
    /// wrapped in this envelope. Only read requests are replica-readable;
    /// anything else (including a nested `ReplicaRead`) is answered with
    /// an application error.
    ReplicaRead {
        /// The unreachable primary whose replicated shard is queried.
        of: NodeId,
        /// The read to evaluate against that replica log.
        inner: Box<Request>,
    },
    /// Anti-entropy digest request: report, per macro cell of `grid`, the
    /// observation count and an order-independent checksum — once over
    /// the local primary shard, and once per replica log held for other
    /// primaries. The coordinator's repair sweeper compares primary and
    /// replica digests to find under-replicated or diverged cells without
    /// moving any observation data.
    CellDigest {
        /// The macro grid cells are reported against (packed
        /// `row * cols + col`, positions bucketed by `cell_of_clamped`).
        grid: GridSpecMsg,
    },
    /// Idempotent cell overwrite, the repair streamer's write primitive.
    ///
    /// When `primary` names *another* worker, the batch is applied to the
    /// replica log held for that primary; when it names the addressee
    /// itself, the batch is applied to the local primary shard (the
    /// rejoin/rebalance bulk-sync path). With `truncate` set the cell's
    /// current contents (under `grid`'s clamped bucketing) are removed
    /// first — including their dedup ids — so a repair round converges to
    /// exactly the primary's content even when the target holds stale or
    /// hinted extras. Chunked streams set `truncate` only on the first
    /// chunk; appends deduplicate by observation id, so a retransmitted
    /// chunk is harmless.
    Repair {
        /// The primary whose shard the cell belongs to (the addressee
        /// itself for primary-shard bulk sync).
        primary: NodeId,
        /// The macro grid `cell` refers to.
        grid: GridSpecMsg,
        /// The cell being overwritten, packed `row * cols + col`.
        cell: u32,
        /// Remove the cell's current contents before appending.
        truncate: bool,
        /// The authoritative observations for the cell (one chunk of).
        batch: Vec<Observation>,
    },
    /// Readmission handshake for a restarted worker: drop *all* local
    /// state (primary index, replica logs, dedup memories, standing
    /// queries) and install the given route. The coordinator then
    /// bulk-syncs the worker's shard via `Repair` and re-enters it into
    /// the plan; resetting first makes the whole handshake idempotent —
    /// a worker that answers `Rejoin` twice just starts over.
    Rejoin {
        /// The routing-plan epoch of the installed route.
        epoch: u64,
        /// The macro grid the cell indices refer to.
        grid: GridSpecMsg,
        /// The cells this worker will own, packed `row * cols + col`.
        cells: Vec<u32>,
    },
    /// Report the digests of every sealed segment held by the primary
    /// shard ([`Response::SegmentDigests`]). The rejoin bulk-sync path
    /// asks both sides for these and ships only the segments the receiver
    /// lacks.
    SegmentDigest,
    /// Export the primary shard's contents overlapping `region` as whole
    /// sealed segments (split at cell boundaries against the segments'
    /// own grid) plus the not-yet-sealed head rows, skipping any segment
    /// whose digest appears in `skip` ([`Response::Segments`]). The
    /// export is non-destructive and deterministic, so a retried transfer
    /// produces byte-identical frames and the receiver's dedup holds.
    ExportSegments {
        /// The region whose contents to export (routing region of the
        /// moving cells).
        region: BBox,
        /// Digests the requester already holds; matching segments are
        /// omitted from the reply.
        skip: Vec<SegmentDigestEntry>,
    },
    /// Install exported segments into the primary shard: each frame is
    /// verified (counts, checksums, window bounds) and archived whole —
    /// no row-by-row re-indexing — and `head` rows go through normal
    /// deduplicated ingest. Re-delivery is harmless: frames matching an
    /// already-held digest and rows already seen are dropped.
    InstallSegments {
        /// Verified-on-receipt sealed segment frames.
        frames: Vec<stcam_codec::SegmentFrame>,
        /// Rows that were still in the exporter's mutable head.
        head: Vec<Observation>,
    },
    /// Pull one page of a paged result ([`Response::ResultPage`]). A
    /// worker whose read produced a result larger than the page bound
    /// parks the remaining pages under a `cursor` and answers with page
    /// 0; the client pulls pages `1..pages` with this request. Pulls are
    /// idempotent (the parked pages are kept until the cursor is evicted),
    /// so the existing timeout/retry machinery applies unchanged. An
    /// unknown cursor — evicted, or invented — is answered with
    /// [`Response::Error`].
    FetchPage {
        /// The cursor issued with page 0 of the result.
        cursor: u64,
        /// Which page to return, `1..pages`.
        page: u32,
    },
}

/// [`Request::Range`] projection: ship full rows.
pub const PROJ_FULL: u8 = 0;
/// [`Request::Range`] projection: blank the appearance-signature and
/// ground-truth columns — position, time, camera, class, and id survive.
/// The batch codec then elides the signature column from the frame, which
/// is most of a row's bytes.
pub const PROJ_THIN: u8 = 1;

impl Request {
    /// The stable operation name of this request, used as the dispatch
    /// key in the worker's handler table and as the label of per-op serve
    /// counters. One name per variant.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::IngestSeq { .. } => "ingest_seq",
            Request::ReplicateSeq { .. } => "replicate_seq",
            Request::RouteUpdate { .. } => "route_update",
            Request::Range { .. } => "range",
            Request::Knn { .. } => "knn",
            Request::Heatmap { .. } => "heatmap",
            Request::RegisterContinuous { .. } => "register_continuous",
            Request::UnregisterContinuous(_) => "unregister_continuous",
            Request::Stats => "stats",
            Request::EvictBefore { .. } => "evict_before",
            Request::Promote { .. } => "promote",
            Request::ExtractRegion { .. } => "extract_region",
            Request::RangeFiltered { .. } => "range_filtered",
            Request::TopCells { .. } => "top_cells",
            Request::ReplicaRead { .. } => "replica_read",
            Request::CellDigest { .. } => "cell_digest",
            Request::Repair { .. } => "repair",
            Request::Rejoin { .. } => "rejoin",
            Request::SegmentDigest => "segment_digest",
            Request::ExportSegments { .. } => "export_segments",
            Request::InstallSegments { .. } => "install_segments",
            Request::FetchPage { .. } => "fetch_page",
            Request::Census => "census",
        }
    }
}

/// The identity of one sealed segment: slice number, row count, and the
/// XOR-folded content checksum. Equal digests certify equal contents (up
/// to mix collisions), so rejoin and rebalance compare digest lists and
/// move only missing segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentDigestEntry {
    /// The time-slice number the segment covers.
    pub number: u64,
    /// Rows in the segment.
    pub count: u64,
    /// XOR fold of the per-observation mix over all rows.
    pub checksum: u64,
}

impl Wire for SegmentDigestEntry {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.number.encode(buf);
        self.count.encode(buf);
        self.checksum.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(SegmentDigestEntry {
            number: u64::decode(buf)?,
            count: u64::decode(buf)?,
            checksum: u64::decode(buf)?,
        })
    }
}

impl From<stcam_index::SegmentDigest> for SegmentDigestEntry {
    fn from(d: stcam_index::SegmentDigest) -> Self {
        SegmentDigestEntry {
            number: d.number,
            count: d.count,
            checksum: d.checksum,
        }
    }
}

impl SegmentDigestEntry {
    /// The index-side digest this entry mirrors.
    pub fn to_digest(self) -> stcam_index::SegmentDigest {
        stcam_index::SegmentDigest {
            number: self.number,
            count: self.count,
            checksum: self.checksum,
        }
    }
}

/// One cell's digest over a worker's primary shard: observation count
/// plus an order-independent checksum of the cell's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestEntry {
    /// The macro cell, packed `row * cols + col`.
    pub cell: u32,
    /// Observations positioned in the cell.
    pub count: u32,
    /// XOR-folded per-observation mix of id and timestamp (see
    /// [`observation_checksum`](crate::repair::observation_checksum)) —
    /// insertion-order independent, so two holders of the same set agree
    /// regardless of arrival order.
    pub checksum: u64,
}

impl Wire for DigestEntry {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.cell.encode(buf);
        self.count.encode(buf);
        self.checksum.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(DigestEntry {
            cell: u32::decode(buf)?,
            count: u32::decode(buf)?,
            checksum: u64::decode(buf)?,
        })
    }
}

/// One cell's digest over a replica log: as [`DigestEntry`], keyed by the
/// primary the log is held for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaDigestEntry {
    /// The primary whose replica log the entry describes.
    pub primary: NodeId,
    /// The macro cell, packed `row * cols + col`.
    pub cell: u32,
    /// Observations positioned in the cell.
    pub count: u32,
    /// Order-independent content checksum (same mix as [`DigestEntry`]).
    pub checksum: u64,
}

impl Wire for ReplicaDigestEntry {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.primary.0.encode(buf);
        self.cell.encode(buf);
        self.count.encode(buf);
        self.checksum.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(ReplicaDigestEntry {
            primary: NodeId(u32::decode(buf)?),
            cell: u32::decode(buf)?,
            count: u32::decode(buf)?,
            checksum: u64::decode(buf)?,
        })
    }
}

/// A worker's answer to [`Request::CellDigest`]: sparse per-cell digests
/// of its primary shard and of every replica log it holds. Cells with no
/// observations are omitted, so the wire cost tracks occupancy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DigestReport {
    /// Occupied cells of the primary shard, sorted by cell.
    pub primary: Vec<DigestEntry>,
    /// Occupied cells of each held replica log, sorted by
    /// `(primary, cell)`.
    pub replicas: Vec<ReplicaDigestEntry>,
}

impl Wire for DigestReport {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.primary.encode(buf);
        self.replicas.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(DigestReport {
            primary: Vec::decode(buf)?,
            replicas: Vec::decode(buf)?,
        })
    }
}

/// Statistics reported by a worker.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerStatsMsg {
    /// Observations in the primary shard index.
    pub primary_observations: u64,
    /// Observations held as replicas for other workers.
    pub replica_observations: u64,
    /// Total observations ever ingested as primary.
    pub ingested_total: u64,
    /// Continuous-query notifications sent.
    pub notifications_sent: u64,
    /// Standing continuous queries registered.
    pub continuous_queries: u64,
    /// Occupied (cell, class) buckets in the worker's continuous-query
    /// interest index — a size signal for the sub-linear matcher.
    pub interest_buckets: u64,
    /// Cumulative microseconds this worker has spent executing requests
    /// (its "busy time"). On a single-core host, wall-clock numbers do
    /// not show parallel speedup; the evaluation instead reports the
    /// critical path — the busiest shard's busy time — which is what a
    /// multi-machine deployment's latency would track.
    pub busy_micros: u64,
    /// Approximate bytes the primary shard keeps in memory: mutable-head
    /// rows plus resident (non-spilled) sealed-segment payloads and
    /// footers. The archive-scale experiment reads this to show the
    /// memory ceiling staying flat as the sealed tier grows.
    pub resident_bytes: u64,
    /// Sealed immutable segments held by the primary shard.
    pub sealed_segments: u64,
    /// End of the newest retained index slice, in milliseconds, if any
    /// data is held. Drives cluster-wide retention sweeps.
    pub newest_ms: Option<u64>,
    /// Requests served, per operation name (see [`Request::op_name`]),
    /// sorted by name. Only operations served at least once appear.
    pub served: Vec<(String, u64)>,
}

impl WorkerStatsMsg {
    /// Requests served under operation name `op` (0 when never served).
    pub fn served_count(&self, op: &str) -> u64 {
        self.served
            .iter()
            .find(|(name, _)| name == op)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

impl Wire for WorkerStatsMsg {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.primary_observations.encode(buf);
        self.replica_observations.encode(buf);
        self.ingested_total.encode(buf);
        self.notifications_sent.encode(buf);
        self.continuous_queries.encode(buf);
        self.interest_buckets.encode(buf);
        self.busy_micros.encode(buf);
        self.resident_bytes.encode(buf);
        self.sealed_segments.encode(buf);
        self.newest_ms.encode(buf);
        self.served.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(WorkerStatsMsg {
            primary_observations: u64::decode(buf)?,
            replica_observations: u64::decode(buf)?,
            ingested_total: u64::decode(buf)?,
            notifications_sent: u64::decode(buf)?,
            continuous_queries: u64::decode(buf)?,
            interest_buckets: u64::decode(buf)?,
            busy_micros: u64::decode(buf)?,
            resident_bytes: u64::decode(buf)?,
            sealed_segments: u64::decode(buf)?,
            newest_ms: Option::decode(buf)?,
            served: Vec::decode(buf)?,
        })
    }
}

/// One standing continuous-query registration as installed at a worker,
/// reported in a [`CensusReport`]. The reconstructing coordinator takes
/// the union of these over all responders as the authoritative
/// registration table.
#[derive(Debug, Clone, PartialEq)]
pub struct CensusRegistration {
    /// The cluster-unique query id.
    pub id: ContinuousQueryId,
    /// The match predicate.
    pub predicate: Predicate,
    /// The node notified on match.
    pub notify: NodeId,
}

impl Wire for CensusRegistration {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.id.0.encode(buf);
        self.predicate.encode(buf);
        self.notify.0.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(CensusRegistration {
            id: ContinuousQueryId(u64::decode(buf)?),
            predicate: Predicate::decode(buf)?,
            notify: NodeId(u32::decode(buf)?),
        })
    }
}

/// A worker's answer to [`Request::Census`]: everything a restarting
/// coordinator needs to reconstruct its control state from the surviving
/// cluster. `epoch` is 0 and `grid` is `None` when no route was ever
/// installed (a fresh worker).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CensusReport {
    /// The installed route epoch (0 when no route is installed).
    pub epoch: u64,
    /// The macro grid the owned cells refer to, if a route is installed.
    pub grid: Option<GridSpecMsg>,
    /// Owned primary cells under `grid`, packed `row * cols + col`,
    /// ascending.
    pub cells: Vec<u32>,
    /// Primaries this worker holds a replica log for, ascending by id.
    /// These witness roster members that may currently be dead — the
    /// reconstructed `known` set includes them so they can later rejoin.
    pub replica_of: Vec<NodeId>,
    /// Standing continuous queries installed locally, ascending by id.
    pub registrations: Vec<CensusRegistration>,
}

impl Wire for CensusReport {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.epoch.encode(buf);
        self.grid.encode(buf);
        self.cells.encode(buf);
        self.replica_of
            .iter()
            .map(|n| n.0)
            .collect::<Vec<u32>>()
            .encode(buf);
        self.registrations.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(CensusReport {
            epoch: u64::decode(buf)?,
            grid: Option::decode(buf)?,
            cells: Vec::decode(buf)?,
            replica_of: Vec::<u32>::decode(buf)?.into_iter().map(NodeId).collect(),
            registrations: Vec::decode(buf)?,
        })
    }
}

/// A worker's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success without data.
    Ack,
    /// Matching observations.
    Observations(Vec<Observation>),
    /// Dense per-bucket counts.
    Counts(Vec<u64>),
    /// Worker statistics.
    Stats(WorkerStatsMsg),
    /// Application-level failure.
    Error(String),
    /// Sparse per-bucket counts: `(bucket index, count)` for occupied
    /// buckets only (answer to [`Request::TopCells`]).
    CellCounts(Vec<(u32, u64)>),
    /// Positive acknowledgement of an `IngestSeq`/`ReplicateSeq` batch:
    /// every observation in the batch is owned by the addressee and is
    /// now applied (`accepted` counts them, including ones already
    /// present from an earlier transmission of the same batch).
    IngestAck {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Observations applied (or already present) at the addressee.
        accepted: u32,
    },
    /// Negative acknowledgement of an `IngestSeq` batch: the addressee
    /// applied the observations it owns (`accepted` of them) but rejects
    /// `misrouted` — observations its routing plan assigns elsewhere.
    /// `epoch` is the addressee's plan epoch, so a stale sender can tell
    /// whether *it* must refresh (its epoch is older) before re-routing.
    IngestNack {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Observations applied (or already present) at the addressee.
        accepted: u32,
        /// The addressee's routing-plan epoch.
        epoch: u64,
        /// Ids of the observations the addressee refuses to own.
        misrouted: Vec<ObservationId>,
    },
    /// Per-cell anti-entropy digests (answer to [`Request::CellDigest`]).
    Digests(DigestReport),
    /// Digests of every sealed segment held (answer to
    /// [`Request::SegmentDigest`]), ascending by `(number, digest)`.
    SegmentDigests(Vec<SegmentDigestEntry>),
    /// Sealed segment frames plus loose head rows (answer to
    /// [`Request::ExportSegments`]).
    Segments {
        /// Whole sealed segments overlapping the requested region.
        frames: Vec<stcam_codec::SegmentFrame>,
        /// Rows from the exporter's mutable head, sorted by id.
        head: Vec<Observation>,
    },
    /// One page of a result too large for a single frame. Page 0 arrives
    /// in place of the plain response; the client pulls pages `1..pages`
    /// with [`Request::FetchPage`] and reassembles (see
    /// [`paging`](crate::paging)). Every page's `payload` is a standalone
    /// encoding of its rows, so pages decode independently and a lost
    /// pull retries harmlessly.
    ResultPage {
        /// Identifies the parked result at the answering worker.
        cursor: u64,
        /// This page's index, `0..pages`.
        page: u32,
        /// Total pages in the result.
        pages: u32,
        /// Payload encoding:
        /// [`PAGE_OBSERVATIONS`](crate::paging::PAGE_OBSERVATIONS) or
        /// [`PAGE_CELL_COUNTS`](crate::paging::PAGE_CELL_COUNTS) (see
        /// [`paging`](crate::paging)).
        kind: u8,
        /// The page's standalone-encoded rows.
        payload: Vec<u8>,
    },
    /// Control-plane census (answer to [`Request::Census`]).
    Census(CensusReport),
}

const REQ_PING: u8 = 0;
// Tags 1, 2, 8 and 9 are retired. Never reassign them: the surviving
// tags keep their values, and a frame from an older peer using a retired
// tag fails to decode instead of meaning something else.
const REQ_RANGE: u8 = 3;
const REQ_KNN: u8 = 4;
const REQ_HEATMAP: u8 = 5;
const REQ_REGISTER: u8 = 6;
const REQ_UNREGISTER: u8 = 7;
const REQ_STATS: u8 = 10;
const REQ_EVICT: u8 = 11;
const REQ_PROMOTE: u8 = 12;
const REQ_EXTRACT: u8 = 13;
const REQ_RANGE_FILTERED: u8 = 14;
const REQ_TOP_CELLS: u8 = 15;
const REQ_REPLICA_READ: u8 = 16;
const REQ_INGEST_SEQ: u8 = 17;
const REQ_REPLICATE_SEQ: u8 = 18;
const REQ_ROUTE_UPDATE: u8 = 19;
const REQ_CELL_DIGEST: u8 = 20;
const REQ_REPAIR: u8 = 21;
const REQ_REJOIN: u8 = 22;
const REQ_SEGMENT_DIGEST: u8 = 23;
const REQ_EXPORT_SEGMENTS: u8 = 24;
const REQ_INSTALL_SEGMENTS: u8 = 25;
const REQ_FETCH_PAGE: u8 = 26;
const REQ_CENSUS: u8 = 27;

impl Wire for Request {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Request::Ping => buf.put_u8(REQ_PING),
            Request::Range {
                region,
                window,
                limit,
                projection,
            } => {
                buf.put_u8(REQ_RANGE);
                region.encode(buf);
                window.encode(buf);
                limit.encode(buf);
                projection.encode(buf);
            }
            Request::Knn {
                at,
                window,
                k,
                max_distance,
            } => {
                buf.put_u8(REQ_KNN);
                at.encode(buf);
                window.encode(buf);
                k.encode(buf);
                max_distance.encode(buf);
            }
            Request::Heatmap { buckets, window } => {
                buf.put_u8(REQ_HEATMAP);
                buckets.encode(buf);
                window.encode(buf);
            }
            Request::RegisterContinuous {
                id,
                predicate,
                notify,
            } => {
                buf.put_u8(REQ_REGISTER);
                id.0.encode(buf);
                predicate.encode(buf);
                notify.0.encode(buf);
            }
            Request::UnregisterContinuous(id) => {
                buf.put_u8(REQ_UNREGISTER);
                id.0.encode(buf);
            }
            Request::Stats => buf.put_u8(REQ_STATS),
            Request::EvictBefore { cutoff, epoch } => {
                buf.put_u8(REQ_EVICT);
                cutoff.encode(buf);
                epoch.encode(buf);
            }
            Request::Promote { failed, epoch } => {
                buf.put_u8(REQ_PROMOTE);
                failed.0.encode(buf);
                epoch.encode(buf);
            }
            Request::ExtractRegion { region } => {
                buf.put_u8(REQ_EXTRACT);
                region.encode(buf);
            }
            Request::RangeFiltered {
                region,
                window,
                class,
                limit,
                projection,
            } => {
                buf.put_u8(REQ_RANGE_FILTERED);
                region.encode(buf);
                window.encode(buf);
                class.encode(buf);
                limit.encode(buf);
                projection.encode(buf);
            }
            Request::TopCells { buckets, window } => {
                buf.put_u8(REQ_TOP_CELLS);
                buckets.encode(buf);
                window.encode(buf);
            }
            Request::ReplicaRead { of, inner } => {
                buf.put_u8(REQ_REPLICA_READ);
                of.0.encode(buf);
                inner.encode(buf);
            }
            Request::IngestSeq {
                sender,
                seq,
                epoch,
                batch,
            } => {
                buf.put_u8(REQ_INGEST_SEQ);
                sender.0.encode(buf);
                seq.encode(buf);
                epoch.encode(buf);
                batch::encode_batch(batch, buf);
            }
            Request::ReplicateSeq {
                sender,
                seq,
                primary,
                batch,
            } => {
                buf.put_u8(REQ_REPLICATE_SEQ);
                sender.0.encode(buf);
                seq.encode(buf);
                primary.0.encode(buf);
                batch::encode_batch(batch, buf);
            }
            Request::RouteUpdate { epoch, grid, cells } => {
                buf.put_u8(REQ_ROUTE_UPDATE);
                epoch.encode(buf);
                grid.encode(buf);
                cells.encode(buf);
            }
            Request::CellDigest { grid } => {
                buf.put_u8(REQ_CELL_DIGEST);
                grid.encode(buf);
            }
            Request::Repair {
                primary,
                grid,
                cell,
                truncate,
                batch,
            } => {
                buf.put_u8(REQ_REPAIR);
                primary.0.encode(buf);
                grid.encode(buf);
                cell.encode(buf);
                truncate.encode(buf);
                batch::encode_batch(batch, buf);
            }
            Request::Rejoin { epoch, grid, cells } => {
                buf.put_u8(REQ_REJOIN);
                epoch.encode(buf);
                grid.encode(buf);
                cells.encode(buf);
            }
            Request::SegmentDigest => buf.put_u8(REQ_SEGMENT_DIGEST),
            Request::ExportSegments { region, skip } => {
                buf.put_u8(REQ_EXPORT_SEGMENTS);
                region.encode(buf);
                skip.encode(buf);
            }
            Request::InstallSegments { frames, head } => {
                buf.put_u8(REQ_INSTALL_SEGMENTS);
                frames.encode(buf);
                batch::encode_batch(head, buf);
            }
            Request::FetchPage { cursor, page } => {
                buf.put_u8(REQ_FETCH_PAGE);
                cursor.encode(buf);
                page.encode(buf);
            }
            Request::Census => buf.put_u8(REQ_CENSUS),
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let tag = u8::decode(buf)?;
        Self::decode_tagged(tag, buf)
    }

    fn size_hint(&self) -> usize {
        1 + match self {
            Request::IngestSeq { batch, .. } => 23 + batch::batch_size_hint(batch),
            Request::ReplicateSeq { batch, .. } => 28 + batch::batch_size_hint(batch),
            Request::RouteUpdate { cells, .. } => 41 + cells.size_hint(),
            Request::ReplicaRead { inner, .. } => 5 + inner.size_hint(),
            Request::Repair { batch, .. } => 42 + batch::batch_size_hint(batch),
            Request::Rejoin { cells, .. } => 41 + cells.size_hint(),
            Request::ExportSegments { skip, .. } => 32 + skip.size_hint(),
            Request::InstallSegments { frames, head } => {
                frames.size_hint() + batch::batch_size_hint(head)
            }
            Request::Range { .. } => 53,
            Request::RangeFiltered { .. } => 54,
            _ => 48,
        }
    }
}

/// Decodes and validates a projection byte.
fn decode_projection<B: Buf>(buf: &mut B) -> Result<u8, DecodeError> {
    let projection = u8::decode(buf)?;
    if projection > PROJ_THIN {
        return Err(DecodeError::InvalidValue {
            reason: "unknown projection",
        });
    }
    Ok(projection)
}

impl Request {
    /// Decodes the request body for an already-read discriminant byte.
    fn decode_tagged<B: Buf>(tag: u8, buf: &mut B) -> Result<Self, DecodeError> {
        Ok(match tag {
            REQ_PING => Request::Ping,
            REQ_RANGE => Request::Range {
                region: BBox::decode(buf)?,
                window: TimeInterval::decode(buf)?,
                limit: u32::decode(buf)?,
                projection: decode_projection(buf)?,
            },
            REQ_KNN => Request::Knn {
                at: Point::decode(buf)?,
                window: TimeInterval::decode(buf)?,
                k: u32::decode(buf)?,
                max_distance: Option::decode(buf)?,
            },
            REQ_HEATMAP => Request::Heatmap {
                buckets: GridSpecMsg::decode(buf)?,
                window: TimeInterval::decode(buf)?,
            },
            REQ_REGISTER => Request::RegisterContinuous {
                id: ContinuousQueryId(u64::decode(buf)?),
                predicate: Predicate::decode(buf)?,
                notify: NodeId(u32::decode(buf)?),
            },
            REQ_UNREGISTER => Request::UnregisterContinuous(ContinuousQueryId(u64::decode(buf)?)),
            REQ_STATS => Request::Stats,
            REQ_EVICT => Request::EvictBefore {
                cutoff: stcam_geo::Timestamp::decode(buf)?,
                epoch: u64::decode(buf)?,
            },
            REQ_PROMOTE => Request::Promote {
                failed: NodeId(u32::decode(buf)?),
                epoch: u64::decode(buf)?,
            },
            REQ_EXTRACT => Request::ExtractRegion {
                region: BBox::decode(buf)?,
            },
            REQ_RANGE_FILTERED => Request::RangeFiltered {
                region: BBox::decode(buf)?,
                window: TimeInterval::decode(buf)?,
                class: u8::decode(buf)?,
                limit: u32::decode(buf)?,
                projection: decode_projection(buf)?,
            },
            REQ_TOP_CELLS => Request::TopCells {
                buckets: GridSpecMsg::decode(buf)?,
                window: TimeInterval::decode(buf)?,
            },
            REQ_REPLICA_READ => {
                let of = NodeId(u32::decode(buf)?);
                let inner_tag = u8::decode(buf)?;
                // Reject nesting *before* recursing: the decoder depth on
                // hostile input stays bounded at two.
                if inner_tag == REQ_REPLICA_READ {
                    return Err(DecodeError::InvalidValue {
                        reason: "nested replica read",
                    });
                }
                Request::ReplicaRead {
                    of,
                    inner: Box::new(Self::decode_tagged(inner_tag, buf)?),
                }
            }
            REQ_INGEST_SEQ => Request::IngestSeq {
                sender: NodeId(u32::decode(buf)?),
                seq: u64::decode(buf)?,
                epoch: u64::decode(buf)?,
                batch: batch::decode_batch(buf)?,
            },
            REQ_REPLICATE_SEQ => Request::ReplicateSeq {
                sender: NodeId(u32::decode(buf)?),
                seq: u64::decode(buf)?,
                primary: NodeId(u32::decode(buf)?),
                batch: batch::decode_batch(buf)?,
            },
            REQ_ROUTE_UPDATE => Request::RouteUpdate {
                epoch: u64::decode(buf)?,
                grid: GridSpecMsg::decode(buf)?,
                cells: Vec::decode(buf)?,
            },
            REQ_CELL_DIGEST => Request::CellDigest {
                grid: GridSpecMsg::decode(buf)?,
            },
            REQ_REPAIR => Request::Repair {
                primary: NodeId(u32::decode(buf)?),
                grid: GridSpecMsg::decode(buf)?,
                cell: u32::decode(buf)?,
                truncate: bool::decode(buf)?,
                batch: batch::decode_batch(buf)?,
            },
            REQ_REJOIN => Request::Rejoin {
                epoch: u64::decode(buf)?,
                grid: GridSpecMsg::decode(buf)?,
                cells: Vec::decode(buf)?,
            },
            REQ_SEGMENT_DIGEST => Request::SegmentDigest,
            REQ_EXPORT_SEGMENTS => Request::ExportSegments {
                region: BBox::decode(buf)?,
                skip: Vec::decode(buf)?,
            },
            REQ_INSTALL_SEGMENTS => Request::InstallSegments {
                frames: Vec::decode(buf)?,
                head: batch::decode_batch(buf)?,
            },
            REQ_FETCH_PAGE => Request::FetchPage {
                cursor: u64::decode(buf)?,
                page: u32::decode(buf)?,
            },
            REQ_CENSUS => Request::Census,
            other => {
                return Err(DecodeError::InvalidDiscriminant {
                    type_name: "Request",
                    value: other as u64,
                })
            }
        })
    }
}

const RESP_ACK: u8 = 0;
const RESP_OBSERVATIONS: u8 = 1;
const RESP_COUNTS: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_CELL_COUNTS: u8 = 5;
const RESP_INGEST_ACK: u8 = 6;
const RESP_INGEST_NACK: u8 = 7;
const RESP_DIGESTS: u8 = 8;
const RESP_SEGMENT_DIGESTS: u8 = 9;
const RESP_SEGMENTS: u8 = 10;
const RESP_RESULT_PAGE: u8 = 11;
const RESP_CENSUS: u8 = 12;

impl Wire for Response {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Response::Ack => buf.put_u8(RESP_ACK),
            Response::Observations(obs) => {
                buf.put_u8(RESP_OBSERVATIONS);
                batch::encode_batch(obs, buf);
            }
            Response::Counts(counts) => {
                buf.put_u8(RESP_COUNTS);
                counts.encode(buf);
            }
            Response::Stats(stats) => {
                buf.put_u8(RESP_STATS);
                stats.encode(buf);
            }
            Response::Error(msg) => {
                buf.put_u8(RESP_ERROR);
                msg.encode(buf);
            }
            Response::CellCounts(cells) => {
                buf.put_u8(RESP_CELL_COUNTS);
                cells.encode(buf);
            }
            Response::IngestAck { seq, accepted } => {
                buf.put_u8(RESP_INGEST_ACK);
                seq.encode(buf);
                accepted.encode(buf);
            }
            Response::IngestNack {
                seq,
                accepted,
                epoch,
                misrouted,
            } => {
                buf.put_u8(RESP_INGEST_NACK);
                seq.encode(buf);
                accepted.encode(buf);
                epoch.encode(buf);
                misrouted.encode(buf);
            }
            Response::Digests(report) => {
                buf.put_u8(RESP_DIGESTS);
                report.encode(buf);
            }
            Response::SegmentDigests(digests) => {
                buf.put_u8(RESP_SEGMENT_DIGESTS);
                digests.encode(buf);
            }
            Response::Segments { frames, head } => {
                buf.put_u8(RESP_SEGMENTS);
                frames.encode(buf);
                batch::encode_batch(head, buf);
            }
            Response::ResultPage {
                cursor,
                page,
                pages,
                kind,
                payload,
            } => {
                buf.put_u8(RESP_RESULT_PAGE);
                cursor.encode(buf);
                page.encode(buf);
                pages.encode(buf);
                kind.encode(buf);
                payload.encode(buf);
            }
            Response::Census(report) => {
                buf.put_u8(RESP_CENSUS);
                report.encode(buf);
            }
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            RESP_ACK => Response::Ack,
            RESP_OBSERVATIONS => Response::Observations(batch::decode_batch(buf)?),
            RESP_COUNTS => Response::Counts(Vec::decode(buf)?),
            RESP_STATS => Response::Stats(WorkerStatsMsg::decode(buf)?),
            RESP_ERROR => Response::Error(String::decode(buf)?),
            RESP_CELL_COUNTS => Response::CellCounts(Vec::decode(buf)?),
            RESP_INGEST_ACK => Response::IngestAck {
                seq: u64::decode(buf)?,
                accepted: u32::decode(buf)?,
            },
            RESP_INGEST_NACK => Response::IngestNack {
                seq: u64::decode(buf)?,
                accepted: u32::decode(buf)?,
                epoch: u64::decode(buf)?,
                misrouted: Vec::decode(buf)?,
            },
            RESP_DIGESTS => Response::Digests(DigestReport::decode(buf)?),
            RESP_SEGMENT_DIGESTS => Response::SegmentDigests(Vec::decode(buf)?),
            RESP_SEGMENTS => Response::Segments {
                frames: Vec::decode(buf)?,
                head: batch::decode_batch(buf)?,
            },
            RESP_RESULT_PAGE => {
                let cursor = u64::decode(buf)?;
                let page = u32::decode(buf)?;
                let pages = u32::decode(buf)?;
                if page >= pages {
                    return Err(DecodeError::InvalidValue {
                        reason: "result page index out of range",
                    });
                }
                Response::ResultPage {
                    cursor,
                    page,
                    pages,
                    kind: u8::decode(buf)?,
                    payload: Vec::decode(buf)?,
                }
            }
            RESP_CENSUS => Response::Census(CensusReport::decode(buf)?),
            other => {
                return Err(DecodeError::InvalidDiscriminant {
                    type_name: "Response",
                    value: other as u64,
                })
            }
        })
    }

    fn size_hint(&self) -> usize {
        1 + match self {
            Response::Observations(obs) => batch::batch_size_hint(obs),
            Response::Counts(counts) => counts.size_hint(),
            Response::CellCounts(cells) => cells.size_hint(),
            Response::Error(msg) => msg.size_hint(),
            Response::IngestNack { misrouted, .. } => 21 + misrouted.size_hint(),
            Response::Digests(report) => {
                16 * report.primary.len() + 20 * report.replicas.len() + 20
            }
            Response::SegmentDigests(digests) => digests.size_hint(),
            Response::Segments { frames, head } => {
                frames.size_hint() + batch::batch_size_hint(head)
            }
            Response::ResultPage { payload, .. } => 21 + payload.size_hint(),
            Response::Census(report) => {
                48 + 4 * report.cells.len()
                    + 4 * report.replica_of.len()
                    + 48 * report.registrations.len()
            }
            _ => 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_codec::{decode_from_slice, encode_to_vec};
    use stcam_geo::Timestamp;
    use stcam_world::{EntityClass, EntityId};

    fn obs() -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(1), 7),
            camera: CameraId(1),
            time: Timestamp::from_secs(3),
            position: Point::new(10.0, 20.0),
            class: EntityClass::Pedestrian,
            signature: Signature::latent_for_entity(5),
            truth: Some(EntityId(5)),
        }
    }

    fn round_trip_req(r: Request) {
        let bytes = encode_to_vec(&r);
        assert_eq!(decode_from_slice::<Request>(&bytes).unwrap(), r);
    }

    fn round_trip_resp(r: Response) {
        let bytes = encode_to_vec(&r);
        assert_eq!(decode_from_slice::<Response>(&bytes).unwrap(), r);
    }

    #[test]
    fn all_requests_round_trip() {
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10));
        round_trip_req(Request::Ping);
        round_trip_req(Request::Range {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            window,
            limit: 0,
            projection: PROJ_FULL,
        });
        round_trip_req(Request::Range {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            window,
            limit: 500,
            projection: PROJ_THIN,
        });
        round_trip_req(Request::Knn {
            at: Point::new(1.0, 2.0),
            window,
            k: 16,
            max_distance: Some(120.5),
        });
        round_trip_req(Request::Knn {
            at: Point::new(1.0, 2.0),
            window,
            k: 1,
            max_distance: None,
        });
        round_trip_req(Request::Heatmap {
            buckets: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 100.0,
                cols: 8,
                rows: 8,
            },
            window,
        });
        round_trip_req(Request::RegisterContinuous {
            id: ContinuousQueryId(9),
            predicate: Predicate {
                region: BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
                class: Some(EntityClass::Truck),
            },
            notify: NodeId(0),
        });
        round_trip_req(Request::UnregisterContinuous(ContinuousQueryId(9)));
        round_trip_req(Request::Stats);
        round_trip_req(Request::EvictBefore {
            cutoff: Timestamp::from_secs(100),
            epoch: 6,
        });
        round_trip_req(Request::Promote {
            failed: NodeId(7),
            epoch: 4,
        });
        round_trip_req(Request::Census);
        round_trip_req(Request::ExtractRegion {
            region: BBox::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0)),
        });
        round_trip_req(Request::RangeFiltered {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0)),
            window,
            class: 3,
            limit: 1024,
            projection: PROJ_THIN,
        });
        round_trip_req(Request::TopCells {
            buckets: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 50.0,
                cols: 16,
                rows: 16,
            },
            window,
        });
        round_trip_req(Request::ReplicaRead {
            of: NodeId(5),
            inner: Box::new(Request::Range {
                region: BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
                window,
                limit: 0,
                projection: PROJ_FULL,
            }),
        });
        round_trip_req(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 42,
            epoch: 3,
            batch: vec![obs(), obs()],
        });
        round_trip_req(Request::ReplicateSeq {
            sender: NodeId(10_001),
            seq: 43,
            primary: NodeId(2),
            batch: vec![obs()],
        });
        round_trip_req(Request::RouteUpdate {
            epoch: 4,
            grid: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 200.0,
                cols: 8,
                rows: 8,
            },
            cells: vec![0, 7, 63],
        });
        round_trip_req(Request::CellDigest {
            grid: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 100.0,
                cols: 4,
                rows: 4,
            },
        });
        round_trip_req(Request::Repair {
            primary: NodeId(3),
            grid: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 100.0,
                cols: 4,
                rows: 4,
            },
            cell: 9,
            truncate: true,
            batch: vec![obs(), obs()],
        });
        round_trip_req(Request::Repair {
            primary: NodeId(4),
            grid: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 100.0,
                cols: 4,
                rows: 4,
            },
            cell: 0,
            truncate: false,
            batch: vec![],
        });
        round_trip_req(Request::Rejoin {
            epoch: 9,
            grid: GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 100.0,
                cols: 4,
                rows: 4,
            },
            cells: vec![1, 2, 14],
        });
        round_trip_req(Request::SegmentDigest);
        round_trip_req(Request::ExportSegments {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            skip: vec![
                SegmentDigestEntry {
                    number: 3,
                    count: 12,
                    checksum: 0xFEED,
                },
                SegmentDigestEntry {
                    number: 4,
                    count: 1,
                    checksum: u64::MAX,
                },
            ],
        });
        round_trip_req(Request::InstallSegments {
            frames: vec![segment_frame()],
            head: vec![obs(), obs()],
        });
        round_trip_req(Request::InstallSegments {
            frames: vec![],
            head: vec![],
        });
        round_trip_req(Request::FetchPage {
            cursor: u64::MAX,
            page: 17,
        });
    }

    /// A real sealed-segment frame: seal one observation, export it.
    fn segment_frame() -> stcam_codec::SegmentFrame {
        let mut index = stcam_index::StIndex::new(
            stcam_index::IndexConfig::new(
                BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
                50.0,
                stcam_geo::Duration::from_secs(10),
            )
            .with_head_slices(1),
        );
        index.insert(obs());
        index.seal_all();
        let everything = BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12));
        let (frames, _) = index.export_segments(everything, &[]);
        assert_eq!(frames.len(), 1);
        frames.into_iter().next().unwrap()
    }

    #[test]
    fn nested_replica_read_rejected() {
        let evil = Request::ReplicaRead {
            of: NodeId(1),
            inner: Box::new(Request::ReplicaRead {
                of: NodeId(2),
                inner: Box::new(Request::Ping),
            }),
        };
        let bytes = encode_to_vec(&evil);
        assert!(matches!(
            decode_from_slice::<Request>(&bytes),
            Err(DecodeError::InvalidValue {
                reason: "nested replica read"
            })
        ));
    }

    #[test]
    fn all_responses_round_trip() {
        round_trip_resp(Response::Ack);
        round_trip_resp(Response::Observations(vec![obs()]));
        round_trip_resp(Response::Counts(vec![0, 5, 17]));
        round_trip_resp(Response::Stats(WorkerStatsMsg {
            primary_observations: 10,
            replica_observations: 3,
            ingested_total: 100,
            notifications_sent: 4,
            continuous_queries: 1,
            interest_buckets: 6,
            busy_micros: 1234,
            resident_bytes: 4_096,
            sealed_segments: 7,
            newest_ms: Some(99_000),
            served: vec![("ping".into(), 3), ("range".into(), 12)],
        }));
        round_trip_resp(Response::Error("shard unavailable".into()));
        round_trip_resp(Response::CellCounts(vec![(0, 9), (17, 1), (250, 3)]));
        round_trip_resp(Response::IngestAck {
            seq: 42,
            accepted: 17,
        });
        round_trip_resp(Response::IngestNack {
            seq: 43,
            accepted: 2,
            epoch: 5,
            misrouted: vec![
                ObservationId::compose(CameraId(1), 7),
                ObservationId::compose(CameraId(2), 9),
            ],
        });
        round_trip_resp(Response::Digests(DigestReport::default()));
        round_trip_resp(Response::Digests(DigestReport {
            primary: vec![
                DigestEntry {
                    cell: 0,
                    count: 3,
                    checksum: 0xDEAD_BEEF,
                },
                DigestEntry {
                    cell: 7,
                    count: 1,
                    checksum: 42,
                },
            ],
            replicas: vec![ReplicaDigestEntry {
                primary: NodeId(2),
                cell: 5,
                count: 9,
                checksum: u64::MAX,
            }],
        }));
        round_trip_resp(Response::SegmentDigests(vec![]));
        round_trip_resp(Response::SegmentDigests(vec![
            SegmentDigestEntry {
                number: 0,
                count: 1000,
                checksum: 7,
            },
            SegmentDigestEntry {
                number: 5,
                count: 1,
                checksum: 0xABCD,
            },
        ]));
        round_trip_resp(Response::Segments {
            frames: vec![segment_frame()],
            head: vec![obs()],
        });
        round_trip_resp(Response::Segments {
            frames: vec![],
            head: vec![],
        });
        round_trip_resp(Response::ResultPage {
            cursor: 7,
            page: 0,
            pages: 3,
            kind: 0,
            payload: vec![1, 2, 3, 4],
        });
        round_trip_resp(Response::ResultPage {
            cursor: u64::MAX,
            page: 2,
            pages: 3,
            kind: 1,
            payload: vec![],
        });
        round_trip_resp(Response::Census(CensusReport::default()));
        round_trip_resp(Response::Census(CensusReport {
            epoch: 9,
            grid: Some(GridSpecMsg {
                origin: Point::new(0.0, 0.0),
                cell_size: 200.0,
                cols: 8,
                rows: 8,
            }),
            cells: vec![0, 7, 63],
            replica_of: vec![NodeId(2), NodeId(5)],
            registrations: vec![CensusRegistration {
                id: ContinuousQueryId(3),
                predicate: Predicate {
                    region: BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
                    class: Some(EntityClass::Truck),
                },
                notify: NodeId(0),
            }],
        }));
    }

    #[test]
    fn unknown_projection_rejected() {
        let mut bytes = encode_to_vec(&Request::Range {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10)),
            limit: 0,
            projection: PROJ_FULL,
        });
        *bytes.last_mut().unwrap() = 9; // projection is the final byte
        assert!(matches!(
            decode_from_slice::<Request>(&bytes),
            Err(DecodeError::InvalidValue {
                reason: "unknown projection"
            })
        ));
    }

    #[test]
    fn result_page_index_out_of_range_rejected() {
        let bad = Response::ResultPage {
            cursor: 1,
            page: 3,
            pages: 3,
            kind: 0,
            payload: vec![],
        };
        let bytes = encode_to_vec(&bad);
        assert!(matches!(
            decode_from_slice::<Response>(&bytes),
            Err(DecodeError::InvalidValue {
                reason: "result page index out of range"
            })
        ));
    }

    #[test]
    fn op_names_are_unique_and_stable() {
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1));
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let grid = GridSpecMsg {
            origin: Point::new(0.0, 0.0),
            cell_size: 1.0,
            cols: 1,
            rows: 1,
        };
        let all = [
            Request::Ping,
            Request::Range {
                region,
                window,
                limit: 0,
                projection: PROJ_FULL,
            },
            Request::Knn {
                at: Point::new(0.0, 0.0),
                window,
                k: 1,
                max_distance: None,
            },
            Request::Heatmap {
                buckets: grid,
                window,
            },
            Request::RegisterContinuous {
                id: ContinuousQueryId(1),
                predicate: Predicate {
                    region,
                    class: None,
                },
                notify: NodeId(0),
            },
            Request::UnregisterContinuous(ContinuousQueryId(1)),
            Request::Stats,
            Request::EvictBefore {
                cutoff: Timestamp::ZERO,
                epoch: 0,
            },
            Request::Promote {
                failed: NodeId(1),
                epoch: 0,
            },
            Request::ExtractRegion { region },
            Request::RangeFiltered {
                region,
                window,
                class: 0,
                limit: 0,
                projection: PROJ_FULL,
            },
            Request::TopCells {
                buckets: grid,
                window,
            },
            Request::ReplicaRead {
                of: NodeId(1),
                inner: Box::new(Request::Range {
                    region,
                    window,
                    limit: 0,
                    projection: PROJ_FULL,
                }),
            },
            Request::IngestSeq {
                sender: NodeId(0),
                seq: 0,
                epoch: 1,
                batch: vec![],
            },
            Request::ReplicateSeq {
                sender: NodeId(0),
                seq: 0,
                primary: NodeId(1),
                batch: vec![],
            },
            Request::RouteUpdate {
                epoch: 1,
                grid,
                cells: vec![],
            },
            Request::CellDigest { grid },
            Request::Repair {
                primary: NodeId(1),
                grid,
                cell: 0,
                truncate: false,
                batch: vec![],
            },
            Request::Rejoin {
                epoch: 1,
                grid,
                cells: vec![],
            },
            Request::SegmentDigest,
            Request::ExportSegments {
                region,
                skip: vec![],
            },
            Request::InstallSegments {
                frames: vec![],
                head: vec![],
            },
            Request::FetchPage { cursor: 0, page: 1 },
            Request::Census,
        ];
        let names: std::collections::HashSet<&str> = all.iter().map(|r| r.op_name()).collect();
        assert_eq!(names.len(), all.len(), "duplicate op names");
    }

    #[test]
    fn served_count_lookup() {
        let stats = WorkerStatsMsg {
            served: vec![("ping".into(), 2), ("range".into(), 7)],
            ..Default::default()
        };
        assert_eq!(stats.served_count("range"), 7);
        assert_eq!(stats.served_count("knn"), 0);
    }

    #[test]
    fn unknown_tags_rejected() {
        // 200 was never assigned; 1, 2, 8 and 9 are retired request tags.
        for tag in [200u8, 1, 2, 8, 9] {
            assert!(matches!(
                decode_from_slice::<Request>(&[tag]),
                Err(DecodeError::InvalidDiscriminant { .. })
            ));
        }
        assert!(matches!(
            decode_from_slice::<Response>(&[200]),
            Err(DecodeError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn grid_spec_msg_round_trips_through_grid() {
        let g = GridSpec::new(Point::new(5.0, 5.0), 25.0, 4, 8);
        let msg = GridSpecMsg::from(g);
        let g2 = msg.to_grid();
        assert_eq!(g, g2);
    }

    #[test]
    fn degenerate_grid_rejected() {
        let bad = GridSpecMsg {
            origin: Point::ORIGIN,
            cell_size: 0.0,
            cols: 4,
            rows: 4,
        };
        let bytes = encode_to_vec(&bad);
        assert!(matches!(
            decode_from_slice::<GridSpecMsg>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }
}
