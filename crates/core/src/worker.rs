//! Worker nodes: shard storage and sub-query serving.
//!
//! A spawned worker runs two execution lanes:
//!
//! * the **control lane** — the single thread behind [`Worker::run`],
//!   which owns all mutable state and serves every side-effecting
//!   request (ingest, replication, routing, repair, migration) in
//!   arrival order;
//! * the **read executor pool** — [`WorkerConfig::read_threads`] threads
//!   that answer read-only sub-queries concurrently against an immutable
//!   [`ReadView`] snapshot of the shard, taken by the control lane at
//!   dispatch time. Snapshots are cheap (`Arc` bumps over the sealed
//!   tier plus a copy-on-write head) and are reused across consecutive
//!   reads until the next mutating request invalidates them.
//!
//! Per-link FIFO delivery plus sequential dispatch on the control lane
//! guarantee that a read observes every write the same client issued
//! before it. Oversize read results never ship as one frame: replies go
//! through [`crate::paging`], parking pages under a cursor served by
//! [`Request::FetchPage`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stcam_camnet::{Observation, ObservationId, Signature, SIGNATURE_DIM};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_index::{IndexConfig, ReadView, StIndex};
use stcam_net::{Endpoint, Envelope, MessageKind, NodeId, Waker};

use crate::continuous::{InterestIndex, Notification};
use crate::paging;
use crate::protocol::{Request, Response, WorkerStatsMsg, PROJ_THIN};

/// Per-sender sequence numbers remembered for retransmission dedup;
/// lowest are evicted beyond this. 256 far exceeds any sender's in-flight
/// window, so a live retransmission always hits the memory.
const SEQ_MEMORY: usize = 256;

/// Parked paged results kept per worker; oldest cursors are evicted
/// beyond this, bounding the page store regardless of client behaviour.
/// A client that pulls promptly (the executor does, immediately after
/// page 0) never sees an eviction.
const PAGE_CURSORS: usize = 64;

/// The worker's slice of the routing plan: the macro grid plus the set of
/// cells (packed `row * cols + col`) this worker owns as of `epoch`.
/// Installed by [`Request::RouteUpdate`]; used to reject misrouted
/// sequenced ingest from stale senders.
#[derive(Debug)]
struct RouteInfo {
    epoch: u64,
    grid: stcam_geo::GridSpec,
    cells: HashSet<u32>,
}

impl RouteInfo {
    fn owns(&self, position: stcam_geo::Point) -> bool {
        let cell = self.grid.cell_of_clamped(position);
        self.cells
            .contains(&(cell.row * self.grid.cols() + cell.col))
    }
}

/// Remembered responses per sender, keyed by batch sequence number.
/// A retransmitted `(sender, seq)` is answered from here without being
/// re-applied — the idempotence half of reliable ingest.
#[derive(Debug, Default)]
struct SeqMemory {
    answered: HashMap<NodeId, BTreeMap<u64, Response>>,
}

impl SeqMemory {
    fn replay(&self, sender: NodeId, seq: u64) -> Option<Response> {
        self.answered.get(&sender)?.get(&seq).cloned()
    }

    fn remember(&mut self, sender: NodeId, seq: u64, response: Response) {
        let table = self.answered.entry(sender).or_default();
        table.insert(seq, response);
        while table.len() > SEQ_MEMORY {
            let Some(&oldest) = table.keys().next() else {
                break;
            };
            table.remove(&oldest);
        }
    }
}

/// Static configuration of one worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Configuration of the local shard index.
    pub index: IndexConfig,
    /// Size of the read executor pool the serving loop runs: read-only
    /// sub-queries are answered concurrently from index snapshots by this
    /// many threads. `0` disables the pool and serves everything
    /// sequentially on the control lane.
    pub read_threads: usize,
}

/// One parked paged result: the page payloads (page 0 included, so a
/// re-pull after a lost reply is answerable) and their encoding kind.
#[derive(Debug)]
struct ParkedPages {
    kind: u8,
    pages: Vec<Vec<u8>>,
}

/// State shared between the control lane and the read executor pool:
/// serve counters, busy-time accounting, and the parked-page store.
#[derive(Debug, Default)]
struct ReadShared {
    /// Requests served, keyed by operation name (both lanes).
    served: Mutex<HashMap<&'static str, u64>>,
    /// Cumulative request execution time across both lanes, microseconds.
    busy_micros: AtomicU64,
    /// Parked pages of oversize results, keyed by cursor (cursors are
    /// allocated in increasing order, so the smallest key is the oldest).
    pages: Mutex<BTreeMap<u64, ParkedPages>>,
    /// Cursor allocator; the first issued cursor is 1.
    next_cursor: AtomicU64,
}

impl ReadShared {
    fn count(&self, op: &'static str) {
        *self.served.lock().entry(op).or_insert(0) += 1;
    }

    fn record_busy(&self, elapsed: std::time::Duration) {
        self.busy_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Parks a paged result and returns its page-0 reply. A pathological
    /// zero-page result answers with an application error instead of
    /// panicking the serving loop (the client retries the sub-query).
    fn park(&self, kind: u8, pages: Vec<Vec<u8>>) -> Response {
        let Some(first) = pages.first().cloned() else {
            return Response::Error("paged result produced no pages".into());
        };
        let cursor = self.next_cursor.fetch_add(1, Ordering::Relaxed) + 1;
        let total = pages.len() as u32;
        let mut store = self.pages.lock();
        store.insert(cursor, ParkedPages { kind, pages });
        while store.len() > PAGE_CURSORS {
            let Some(&oldest) = store.keys().next() else {
                break;
            };
            store.remove(&oldest);
        }
        Response::ResultPage {
            cursor,
            page: 0,
            pages: total,
            kind,
            payload: first,
        }
    }

    /// Serves one page pull. Unknown cursors (evicted or invented) and
    /// out-of-range indices answer with an application error; the client
    /// treats it as a lost sub-query and retries the whole operation.
    fn fetch_page(&self, cursor: u64, page: u32) -> Response {
        let store = self.pages.lock();
        match store.get(&cursor) {
            Some(parked) => match parked.pages.get(page as usize) {
                Some(payload) => Response::ResultPage {
                    cursor,
                    page,
                    pages: parked.pages.len() as u32,
                    kind: parked.kind,
                    payload: payload.clone(),
                },
                None => Response::Error(format!("page {page} out of range for cursor {cursor}")),
            },
            None => Response::Error(format!("unknown page cursor {cursor}")),
        }
    }
}

/// Replies to a request envelope, diverting oversize row results through
/// the paging store so no response frame exceeds the page bound. Both
/// lanes reply through here, so pagination is uniform.
fn reply_paged(endpoint: &Endpoint, shared: &ReadShared, envelope: &Envelope, response: Response) {
    if envelope.kind != MessageKind::Request {
        return;
    }
    let response = match paging::pages_for(&response) {
        Some((kind, pages)) => shared.park(kind, pages),
        None => response,
    };
    let _ = endpoint.reply(envelope, encode_to_vec(&response));
}

/// Sparsifies a dense heat-map into `(bucket, count)` pairs. Heat-map
/// family partials always ship sparse: a shard's shard-local answer
/// occupies only its own region's buckets, so the dense vector is mostly
/// zeros and the sparse frame is both smaller and far cheaper to
/// varint-decode on the client.
fn sparse_counts(dense: Vec<u64>) -> Vec<(u32, u64)> {
    dense
        .into_iter()
        .enumerate()
        .filter(|&(_, count)| count > 0)
        .map(|(idx, count)| (idx as u32, count))
        .collect()
}

/// Applies the `Range`-family pushdown tail to a result row set: the
/// per-shard `limit` cutoff (lowest observation ids first, matching the
/// client's global merge-and-truncate) and the column projection
/// (blanking the signature and truth columns lets the batch codec elide
/// the signature bytes from the frame).
fn finish_rows(mut rows: Vec<Observation>, limit: u32, projection: u8) -> Vec<Observation> {
    if limit != 0 && rows.len() > limit as usize {
        rows.sort_unstable_by_key(|o| o.id);
        rows.truncate(limit as usize);
    }
    if projection == PROJ_THIN {
        for row in &mut rows {
            row.signature = Signature::new([0.0; SIGNATURE_DIM]);
            row.truth = None;
        }
    }
    rows
}

/// Executes one read-only request against an immutable shard snapshot.
/// Runs on pool threads; must not touch worker state beyond `shared`.
fn execute_read(view: &ReadView, shared: &ReadShared, request: Request) -> Response {
    match request {
        Request::Range {
            region,
            window,
            limit,
            projection,
        } => Response::Observations(finish_rows(view.range(region, window), limit, projection)),
        Request::RangeFiltered {
            region,
            window,
            class,
            limit,
            projection,
        } => match stcam_world::EntityClass::from_u8(class) {
            Some(class) => {
                let rows = view
                    .range(region, window)
                    .into_iter()
                    .filter(|o| o.class == class)
                    .collect();
                Response::Observations(finish_rows(rows, limit, projection))
            }
            None => Response::Error(format!("invalid class {class}")),
        },
        Request::Knn {
            at,
            window,
            k,
            max_distance,
        } => {
            let mut hits = view.knn(at, window, k as usize);
            if let Some(limit) = max_distance {
                hits.retain(|o| at.distance(o.position) <= limit);
            }
            hits.truncate(k as usize);
            Response::Observations(hits)
        }
        Request::Heatmap { buckets, window } => {
            Response::CellCounts(sparse_counts(view.heatmap(&buckets.to_grid(), window)))
        }
        Request::TopCells { buckets, window } => {
            Response::CellCounts(sparse_counts(view.heatmap(&buckets.to_grid(), window)))
        }
        Request::FetchPage { cursor, page } => shared.fetch_page(cursor, page),
        other => Response::Error(format!("{} is not pool-servable", other.op_name())),
    }
}

/// One unit of pooled work: the request envelope plus the shard snapshot
/// it must be answered against.
#[derive(Debug)]
struct ReadJob {
    envelope: Envelope,
    request: Request,
    view: Arc<ReadView>,
}

/// The read executor pool: worker threads draining a shared MPMC channel
/// of [`ReadJob`]s. Dropping the pool closes the channel and joins the
/// threads after they drain the queue.
#[derive(Debug)]
struct ReadPool {
    tx: Option<crossbeam::channel::Sender<ReadJob>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ReadPool {
    fn start(
        threads: usize,
        endpoint: &Arc<Endpoint>,
        shared: &Arc<ReadShared>,
    ) -> Option<ReadPool> {
        if threads == 0 {
            return None;
        }
        let (tx, rx) = crossbeam::channel::unbounded::<ReadJob>();
        let threads = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let endpoint = Arc::clone(endpoint);
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("stcam-read-{}-{i}", endpoint.id().0))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let started = std::time::Instant::now();
                            shared.count(job.request.op_name());
                            let response = execute_read(&job.view, &shared, job.request);
                            shared.record_busy(started.elapsed());
                            reply_paged(&endpoint, &shared, &job.envelope, response);
                        }
                    })
                    .expect("spawn read executor thread")
            })
            .collect();
        Some(ReadPool {
            tx: Some(tx),
            threads,
        })
    }

    fn submit(&self, job: ReadJob) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(job);
        }
    }
}

impl Drop for ReadPool {
    fn drop(&mut self) {
        self.tx.take();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A worker node: owns the local shard and the replica logs it holds for
/// other primaries, answers sub-queries from the coordinator, and
/// evaluates continuous-query predicates at ingest time. Replica copies
/// are written by the ingesting endpoint (`ReplicateSeq`) and by repair,
/// never forwarded by the worker itself.
///
/// Normally driven via [`Worker::spawn`], which runs the serving loop on a
/// dedicated thread until [`WorkerHandle::shutdown`] (or fabric crash).
/// [`Worker::handle_request`] is public for deterministic single-threaded
/// tests.
#[derive(Debug)]
pub struct Worker {
    endpoint: Arc<Endpoint>,
    config: WorkerConfig,
    index: StIndex,
    /// Append-only replica logs, one per primary this worker backs up.
    replica_logs: HashMap<NodeId, Vec<Observation>>,
    /// Ids present in each replica log, so retransmitted replica writes
    /// and repair appends never add the same observation twice.
    replica_seen: HashMap<NodeId, HashSet<ObservationId>>,
    /// Standing-query registrations, bucketed by (coarse cell, class)
    /// so ingest-time matching is sub-linear in the registration count.
    continuous: InterestIndex,
    /// Routing slice installed by `RouteUpdate` (absent until the first
    /// update; an uninstalled route accepts everything, preserving legacy
    /// single-worker setups that never publish a plan).
    route: Option<RouteInfo>,
    /// Retransmission memory for `IngestSeq`, keyed `(sender, seq)`.
    ingest_seqs: SeqMemory,
    /// Retransmission memory for `ReplicateSeq` (separate namespace).
    replicate_seqs: SeqMemory,
    /// Ids ever inserted into the primary index via sequenced ingest or
    /// promotion — the second dedup line for batches that reach this
    /// worker under a *different* `(sender, seq)` after a failover.
    seen: HashSet<ObservationId>,
    ingested_total: u64,
    notifications_sent: u64,
    /// Serve counters, busy time, and the parked-page store — shared
    /// with the read executor pool while the serving loop runs.
    shared: Arc<ReadShared>,
}

/// One row of the dispatch table: an operation name and its handler.
type Handler = fn(&mut Worker, Request) -> Response;

/// The worker's dispatch table, keyed by [`Request::op_name`]. Adding a
/// request kind means adding exactly one row here plus its handler.
const DISPATCH: &[(&str, Handler)] = &[
    ("ping", Worker::serve_ping),
    ("range", Worker::serve_range),
    ("knn", Worker::serve_knn),
    ("heatmap", Worker::serve_heatmap),
    ("top_cells", Worker::serve_top_cells),
    ("register_continuous", Worker::serve_register_continuous),
    ("unregister_continuous", Worker::serve_unregister_continuous),
    ("promote", Worker::serve_promote),
    ("extract_region", Worker::serve_extract_region),
    ("range_filtered", Worker::serve_range_filtered),
    ("stats", Worker::serve_stats),
    ("evict_before", Worker::serve_evict_before),
    ("replica_read", Worker::serve_replica_read),
    ("ingest_seq", Worker::serve_ingest_seq),
    ("replicate_seq", Worker::serve_replicate_seq),
    ("route_update", Worker::serve_route_update),
    ("cell_digest", Worker::serve_cell_digest),
    ("repair", Worker::serve_repair),
    ("rejoin", Worker::serve_rejoin),
    ("segment_digest", Worker::serve_segment_digest),
    ("export_segments", Worker::serve_export_segments),
    ("install_segments", Worker::serve_install_segments),
    ("fetch_page", Worker::serve_fetch_page),
    ("census", Worker::serve_census),
];

/// The application error a worker answers to any control mutation whose
/// epoch is below the installed route epoch — the split-brain fence. A
/// stale coordinator sees this and must re-census before mutating.
pub const STALE_EPOCH_ERROR: &str = "stale control epoch";

impl Worker {
    /// Creates a worker serving on `endpoint`.
    pub fn new(endpoint: Endpoint, config: WorkerConfig) -> Self {
        let index = StIndex::new(config.index.clone());
        let continuous = InterestIndex::new(config.index.extent);
        Worker {
            endpoint: Arc::new(endpoint),
            config,
            index,
            replica_logs: HashMap::new(),
            replica_seen: HashMap::new(),
            continuous,
            route: None,
            ingest_seqs: SeqMemory::default(),
            replicate_seqs: SeqMemory::default(),
            seen: HashSet::new(),
            ingested_total: 0,
            notifications_sent: 0,
            shared: Arc::new(ReadShared::default()),
        }
    }

    /// This worker's node id.
    pub fn id(&self) -> NodeId {
        self.endpoint.id()
    }

    /// Spawns the serving loop on a new thread.
    pub fn spawn(endpoint: Endpoint, config: WorkerConfig) -> WorkerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_clone = Arc::clone(&stop);
        let waker = endpoint.waker();
        let id = endpoint.id();
        let join = std::thread::Builder::new()
            .name(format!("stcam-worker-{}", id.0))
            .spawn(move || {
                let mut worker = Worker::new(endpoint, config);
                worker.run(&stop_clone);
            })
            .expect("spawn worker thread");
        WorkerHandle {
            stop,
            waker,
            join: Some(join),
        }
    }

    /// Whether a request is answerable from an immutable shard snapshot
    /// and therefore eligible for the read executor pool. `ReplicaRead`
    /// is not: it reads the replica logs, which only the control lane
    /// owns — acceptable, since it is failover-only traffic.
    fn pool_servable(request: &Request) -> bool {
        matches!(
            request,
            Request::Range { .. }
                | Request::RangeFiltered { .. }
                | Request::Knn { .. }
                | Request::Heatmap { .. }
                | Request::TopCells { .. }
                | Request::FetchPage { .. }
        )
    }

    /// Serves requests until `stop` is set (blocking receive; a
    /// [`Waker`] message re-checks the flag), the fabric shuts down, or
    /// this node is crashed. Runs the read executor pool when
    /// [`WorkerConfig::read_threads`] is non-zero: reads are handed to
    /// the pool with a snapshot of the shard taken *here*, on the
    /// control lane — per-link FIFO then guarantees the snapshot holds
    /// every write the requesting client issued earlier. Any
    /// control-lane request may mutate the shard, so it invalidates the
    /// cached snapshot.
    pub fn run(&mut self, stop: &AtomicBool) {
        let pool = ReadPool::start(self.config.read_threads, &self.endpoint, &self.shared);
        let mut view: Option<Arc<ReadView>> = None;
        while !stop.load(Ordering::Relaxed) {
            let Some(envelope) = self.endpoint.recv() else {
                break;
            };
            if Waker::is_wake(&envelope) {
                continue;
            }
            let request = match decode_from_slice::<Request>(&envelope.payload) {
                Ok(r) => r,
                Err(e) => {
                    if envelope.kind == MessageKind::Request {
                        let resp = Response::Error(format!("bad request: {e}"));
                        let _ = self.endpoint.reply(&envelope, encode_to_vec(&resp));
                    }
                    continue;
                }
            };
            match &pool {
                Some(pool) if Self::pool_servable(&request) => {
                    let view =
                        Arc::clone(view.get_or_insert_with(|| Arc::new(self.index.read_view())));
                    pool.submit(ReadJob {
                        envelope,
                        request,
                        view,
                    });
                }
                _ => {
                    view = None;
                    self.dispatch_decoded(envelope, request);
                }
            }
        }
    }

    /// Executes a decoded request on the control lane and replies
    /// (paged when oversize).
    fn dispatch_decoded(&mut self, envelope: Envelope, request: Request) {
        let started = std::time::Instant::now();
        let response = self.handle_request(request);
        self.shared.record_busy(started.elapsed());
        reply_paged(&self.endpoint, &self.shared, &envelope, response);
    }

    /// Executes one request against local state and produces the response.
    ///
    /// Dispatch is table-driven by [`Request::op_name`] over the
    /// `DISPATCH` table; every served request increments that operation's
    /// serve counter.
    /// Sequenced ingest also emits standing-query notifications through
    /// the endpoint; no request makes the worker send replica traffic.
    pub fn handle_request(&mut self, request: Request) -> Response {
        let name = request.op_name();
        match DISPATCH.iter().find(|(op, _)| *op == name) {
            Some(&(op, handler)) => {
                self.shared.count(op);
                handler(self, request)
            }
            None => Response::Error(format!("no handler for operation {name}")),
        }
    }

    /// A request routed to the wrong handler — only reachable if the
    /// dispatch table and [`Request::op_name`] disagree.
    fn misrouted(request: &Request) -> Response {
        Response::Error(format!(
            "request {} misrouted in dispatch table",
            request.op_name()
        ))
    }

    fn serve_ping(&mut self, _request: Request) -> Response {
        Response::Ack
    }

    /// Appends `batch` to the replica log held for `primary`, skipping
    /// observations already present (a retransmitted replica write may
    /// arrive under a new sequence number after a failover).
    fn append_replica(&mut self, primary: NodeId, batch: Vec<Observation>) {
        let log = self.replica_logs.entry(primary).or_default();
        let ids = self.replica_seen.entry(primary).or_default();
        for obs in batch {
            if ids.insert(obs.id) {
                log.push(obs);
            }
        }
    }

    fn serve_ingest_seq(&mut self, request: Request) -> Response {
        let Request::IngestSeq {
            sender,
            seq,
            epoch,
            batch,
        } = request
        else {
            return Self::misrouted(&request);
        };
        // Retransmission of an already-answered batch: replay the stored
        // answer without re-applying (idempotent retry).
        if let Some(answer) = self.ingest_seqs.replay(sender, seq) {
            return answer;
        }
        // Partition the batch into observations this worker owns under
        // its installed routing slice and ones a stale sender misrouted.
        // A sender whose routing epoch is *newer* than the installed slice
        // is better informed (this worker missed a broadcast, e.g. on a
        // lossy link): accept permissively instead of NACKing writes the
        // newest plan really does route here, which would livelock the
        // sender's redo loop.
        let (owned, misrouted): (Vec<Observation>, Vec<Observation>) = match &self.route {
            Some(route) if route.epoch >= epoch => {
                batch.into_iter().partition(|o| route.owns(o.position))
            }
            _ => (batch, Vec::new()),
        };
        let accepted = owned.len() as u32;
        self.ingested_total += owned.len() as u64;
        self.notify_continuous(&owned);
        // No onward replication here: the *sender* replicates (via
        // `ReplicateSeq`) before counting the batch durable, so the ack
        // below certifies exactly this worker's copy.
        let fresh: Vec<Observation> = owned
            .into_iter()
            .filter(|o| self.seen.insert(o.id))
            .collect();
        self.index.insert_batch(fresh);
        let answer = if misrouted.is_empty() {
            Response::IngestAck { seq, accepted }
        } else {
            Response::IngestNack {
                seq,
                accepted,
                epoch: self.route.as_ref().map_or(0, |r| r.epoch),
                misrouted: misrouted.into_iter().map(|o| o.id).collect(),
            }
        };
        self.ingest_seqs.remember(sender, seq, answer.clone());
        answer
    }

    fn serve_replicate_seq(&mut self, request: Request) -> Response {
        let Request::ReplicateSeq {
            sender,
            seq,
            primary,
            batch,
        } = request
        else {
            return Self::misrouted(&request);
        };
        if let Some(answer) = self.replicate_seqs.replay(sender, seq) {
            return answer;
        }
        let accepted = batch.len() as u32;
        self.append_replica(primary, batch);
        let answer = Response::IngestAck { seq, accepted };
        self.replicate_seqs.remember(sender, seq, answer.clone());
        answer
    }

    /// `Some(error)` when a control mutation carries an epoch below the
    /// installed route epoch: the one-sided fence that keeps a stale
    /// coordinator instance from corrupting worker state. An uninstalled
    /// route accepts every epoch (fresh workers must be governable), and
    /// an equal epoch passes — the live coordinator mutates under its
    /// current plan.
    fn fence(&self, epoch: u64) -> Option<Response> {
        match &self.route {
            Some(r) if epoch < r.epoch => Some(Response::Error(STALE_EPOCH_ERROR.into())),
            _ => None,
        }
    }

    fn serve_route_update(&mut self, request: Request) -> Response {
        let Request::RouteUpdate { epoch, grid, cells } = request else {
            return Self::misrouted(&request);
        };
        if let Some(rejected) = self.fence(epoch) {
            return rejected;
        }
        self.route = Some(RouteInfo {
            epoch,
            grid: grid.to_grid(),
            cells: cells.into_iter().collect(),
        });
        Response::Ack
    }

    /// Answers the anti-entropy sweep: sparse per-cell count/checksum
    /// digests over the primary shard and every held replica log,
    /// bucketed by the request's grid with clamping (the ingest routing
    /// rule), so the coordinator can compare copies without moving data.
    fn serve_cell_digest(&mut self, request: Request) -> Response {
        let Request::CellDigest { grid } = request else {
            return Self::misrouted(&request);
        };
        let grid = grid.to_grid();
        // Stream the shard through the accumulator instead of
        // materialising it: sealed segments decode block by block.
        let mut acc = crate::repair::DigestAccumulator::new(&grid);
        self.index.for_each(|o| acc.add(o));
        let primary = acc
            .finish()
            .into_iter()
            .map(|(cell, count, checksum)| crate::protocol::DigestEntry {
                cell,
                count,
                checksum,
            })
            .collect();
        let mut replicas: Vec<crate::protocol::ReplicaDigestEntry> = Vec::new();
        for (&of, log) in &self.replica_logs {
            replicas.extend(
                crate::repair::digest_observations(&grid, log.iter())
                    .into_iter()
                    .map(
                        |(cell, count, checksum)| crate::protocol::ReplicaDigestEntry {
                            primary: of,
                            cell,
                            count,
                            checksum,
                        },
                    ),
            );
        }
        replicas.sort_by_key(|e| (e.primary, e.cell));
        Response::Digests(crate::protocol::DigestReport { primary, replicas })
    }

    /// Applies one repair stream chunk. `truncate` first removes the
    /// cell's current contents (and their dedup ids), so a full stream is
    /// an idempotent overwrite; appends then pass through the id filter,
    /// making chunk retransmissions harmless. `primary == self` targets
    /// the primary shard (the rejoin/rebalance bulk-sync path); any other
    /// primary targets the replica log held for it.
    fn serve_repair(&mut self, request: Request) -> Response {
        let Request::Repair {
            primary,
            grid,
            cell,
            truncate,
            batch,
        } = request
        else {
            return Self::misrouted(&request);
        };
        let region = crate::repair::cell_region(&grid.to_grid(), cell);
        if primary == self.endpoint.id() {
            if truncate {
                for removed in self.index.extract_range(region) {
                    self.seen.remove(&removed.id);
                }
            }
            let fresh: Vec<Observation> = batch
                .into_iter()
                .filter(|o| self.seen.insert(o.id))
                .collect();
            self.index.insert_batch(fresh);
        } else {
            let log = self.replica_logs.entry(primary).or_default();
            let ids = self.replica_seen.entry(primary).or_default();
            if truncate {
                log.retain(|o| {
                    let stale = region.contains(o.position);
                    if stale {
                        ids.remove(&o.id);
                    }
                    !stale
                });
            }
            for o in batch {
                if ids.insert(o.id) {
                    log.push(o);
                }
            }
            // An emptied log reads as "nothing held for that primary",
            // matching a fresh worker.
            if log.is_empty() {
                self.replica_logs.remove(&primary);
                self.replica_seen.remove(&primary);
            }
        }
        Response::Ack
    }

    /// Readmission handshake for a restarted worker: drop **all** local
    /// state (the pre-crash incarnation's shard, replica logs, dedup and
    /// retransmission memory, standing queries) and install the new
    /// epoch-stamped routing slice. The coordinator then bulk-syncs the
    /// shard via [`Request::Repair`] and re-registers standing queries
    /// before publishing the plan that re-admits this node. Idempotent:
    /// re-clearing an empty worker and re-installing the same route are
    /// no-ops.
    fn serve_rejoin(&mut self, request: Request) -> Response {
        let Request::Rejoin { epoch, grid, cells } = request else {
            return Self::misrouted(&request);
        };
        // Fence *before* the reset: a stale coordinator's rejoin handshake
        // must not wipe a live worker's shard.
        if let Some(rejected) = self.fence(epoch) {
            return rejected;
        }
        self.index = StIndex::new(self.config.index.clone());
        self.replica_logs.clear();
        self.replica_seen.clear();
        self.seen.clear();
        self.continuous.clear();
        self.ingest_seqs = SeqMemory::default();
        self.replicate_seqs = SeqMemory::default();
        self.route = Some(RouteInfo {
            epoch,
            grid: grid.to_grid(),
            cells: cells.into_iter().collect(),
        });
        Response::Ack
    }

    /// Reports the digests of every sealed segment in the primary shard,
    /// so a bulk-sync peer can ask for only the segments it lacks.
    fn serve_segment_digest(&mut self, request: Request) -> Response {
        let Request::SegmentDigest = request else {
            return Self::misrouted(&request);
        };
        Response::SegmentDigests(
            self.index
                .segment_digests()
                .into_iter()
                .map(Into::into)
                .collect(),
        )
    }

    /// Exports the shard contents overlapping a region as whole sealed
    /// segment frames (split at cell boundaries, skipping digests the
    /// requester already holds) plus the loose mutable-head rows. The
    /// export reads without mutating, so it is safe to retry and the
    /// deterministic split keeps retried frames digest-identical.
    fn serve_export_segments(&mut self, request: Request) -> Response {
        let Request::ExportSegments { region, skip } = request else {
            return Self::misrouted(&request);
        };
        let skip: Vec<stcam_index::SegmentDigest> = skip
            .into_iter()
            .map(crate::protocol::SegmentDigestEntry::to_digest)
            .collect();
        let (frames, head) = self.index.export_segments(region, &skip);
        Response::Segments { frames, head }
    }

    /// Installs exported segments whole into the archive tier — the
    /// frames were verified during decode-time reconstruction, so no
    /// row-by-row re-indexing happens — and routes loose head rows
    /// through the normal deduplicated ingest. Duplicate frames (digest
    /// already held) and already-seen rows are dropped, making
    /// retransmission harmless.
    fn serve_install_segments(&mut self, request: Request) -> Response {
        let Request::InstallSegments { frames, head } = request else {
            return Self::misrouted(&request);
        };
        for frame in frames {
            let segment = match stcam_index::SealedSegment::from_frame(frame) {
                Ok(segment) => segment,
                Err(e) => return Response::Error(format!("bad segment frame: {e:?}")),
            };
            // The dedup filter must know the archived ids even though the
            // rows never pass through insert; decode once up front.
            let rows = segment.unseal();
            if self.index.install_segment(segment) {
                for o in &rows {
                    self.seen.insert(o.id);
                }
            }
        }
        let fresh: Vec<Observation> = head
            .into_iter()
            .filter(|o| self.seen.insert(o.id))
            .collect();
        self.index.insert_batch(fresh);
        Response::Ack
    }

    fn serve_range(&mut self, request: Request) -> Response {
        let Request::Range {
            region,
            window,
            limit,
            projection,
        } = request
        else {
            return Self::misrouted(&request);
        };
        Response::Observations(finish_rows(
            self.index.range(region, window),
            limit,
            projection,
        ))
    }

    /// Serves a page pull on the control lane — the no-pool path;
    /// pooled workers answer these on executor threads.
    fn serve_fetch_page(&mut self, request: Request) -> Response {
        let Request::FetchPage { cursor, page } = request else {
            return Self::misrouted(&request);
        };
        self.shared.fetch_page(cursor, page)
    }

    fn serve_knn(&mut self, request: Request) -> Response {
        let Request::Knn {
            at,
            window,
            k,
            max_distance,
        } = request
        else {
            return Self::misrouted(&request);
        };
        let mut hits: Vec<Observation> = self.index.knn(at, window, k as usize);
        if let Some(limit) = max_distance {
            hits.retain(|o| at.distance(o.position) <= limit);
        }
        // Candidate lists never ship more than k rows, whatever the
        // index returned.
        hits.truncate(k as usize);
        Response::Observations(hits)
    }

    fn serve_heatmap(&mut self, request: Request) -> Response {
        let Request::Heatmap { buckets, window } = request else {
            return Self::misrouted(&request);
        };
        Response::CellCounts(sparse_counts(
            self.index.heatmap(&buckets.to_grid(), window),
        ))
    }

    fn serve_top_cells(&mut self, request: Request) -> Response {
        let Request::TopCells { buckets, window } = request else {
            return Self::misrouted(&request);
        };
        // Sparse partial aggregate: only occupied buckets go on the wire.
        Response::CellCounts(sparse_counts(
            self.index.heatmap(&buckets.to_grid(), window),
        ))
    }

    fn serve_register_continuous(&mut self, request: Request) -> Response {
        let Request::RegisterContinuous {
            id,
            predicate,
            notify,
        } = request
        else {
            return Self::misrouted(&request);
        };
        self.continuous.insert(id, predicate, notify);
        Response::Ack
    }

    fn serve_unregister_continuous(&mut self, request: Request) -> Response {
        let Request::UnregisterContinuous(id) = request else {
            return Self::misrouted(&request);
        };
        self.continuous.remove(id);
        Response::Ack
    }

    fn serve_promote(&mut self, request: Request) -> Response {
        let Request::Promote { failed, epoch } = request else {
            return Self::misrouted(&request);
        };
        if let Some(rejected) = self.fence(epoch) {
            return rejected;
        }
        // No onward copy: the anti-entropy pass that follows every
        // failover restores the replication factor against the new plan.
        let log = self.replica_logs.remove(&failed).unwrap_or_default();
        self.replica_seen.remove(&failed);
        // The same observations may already be primary here — a sender
        // whose ack from `failed` was lost retransmits to this worker
        // after failover. Promote through the seen-id filter so they
        // count once; a retried `Promote` is likewise a no-op (the log
        // was removed above).
        let fresh: Vec<Observation> = log.into_iter().filter(|o| self.seen.insert(o.id)).collect();
        self.index.insert_batch(fresh);
        Response::Ack
    }

    fn serve_extract_region(&mut self, request: Request) -> Response {
        let Request::ExtractRegion { region } = request else {
            return Self::misrouted(&request);
        };
        // Extraction cedes ownership of the data, so the extracted ids
        // must leave the dedup set too — if the cell migrates back here
        // later, the repair stream's appends have to be accepted again.
        let extracted = self.index.extract_range(region);
        for o in &extracted {
            self.seen.remove(&o.id);
        }
        Response::Observations(extracted)
    }

    fn serve_range_filtered(&mut self, request: Request) -> Response {
        let Request::RangeFiltered {
            region,
            window,
            class,
            limit,
            projection,
        } = request
        else {
            return Self::misrouted(&request);
        };
        match stcam_world::EntityClass::from_u8(class) {
            Some(class) => {
                let rows = self
                    .index
                    .range(region, window)
                    .into_iter()
                    .filter(|o| o.class == class)
                    .collect();
                Response::Observations(finish_rows(rows, limit, projection))
            }
            None => Response::Error(format!("invalid class {class}")),
        }
    }

    /// Answers a read against the replica log held for an unreachable
    /// primary. The log is an unindexed append-only vector, so every
    /// replica read is a scan — acceptable for the degraded path, which
    /// only runs while the primary is down.
    fn serve_replica_read(&mut self, request: Request) -> Response {
        let Request::ReplicaRead { of, inner } = request else {
            return Self::misrouted(&request);
        };
        let log: &[Observation] = self.replica_logs.get(&of).map_or(&[], |v| v.as_slice());
        match *inner {
            Request::Range {
                region,
                window,
                limit,
                projection,
            } => {
                let rows = log
                    .iter()
                    .filter(|o| region.contains(o.position) && window.contains(o.time))
                    .cloned()
                    .collect();
                Response::Observations(finish_rows(rows, limit, projection))
            }
            Request::RangeFiltered {
                region,
                window,
                class,
                limit,
                projection,
            } => match stcam_world::EntityClass::from_u8(class) {
                Some(class) => {
                    let rows = log
                        .iter()
                        .filter(|o| {
                            o.class == class
                                && region.contains(o.position)
                                && window.contains(o.time)
                        })
                        .cloned()
                        .collect();
                    Response::Observations(finish_rows(rows, limit, projection))
                }
                None => Response::Error(format!("invalid class {class}")),
            },
            Request::Knn {
                at,
                window,
                k,
                max_distance,
            } => {
                let mut hits: Vec<Observation> = log
                    .iter()
                    .filter(|o| window.contains(o.time))
                    .cloned()
                    .collect();
                crate::exec::sort_knn(&mut hits, at);
                hits.truncate(k as usize);
                if let Some(limit) = max_distance {
                    hits.retain(|o| at.distance(o.position) <= limit);
                }
                Response::Observations(hits)
            }
            Request::Heatmap { buckets, window } => Response::CellCounts(sparse_counts(
                Self::log_heatmap(log, &buckets.to_grid(), window),
            )),
            Request::TopCells { buckets, window } => Response::CellCounts(sparse_counts(
                Self::log_heatmap(log, &buckets.to_grid(), window),
            )),
            other => Response::Error(format!("{} is not replica-readable", other.op_name())),
        }
    }

    /// Dense per-bucket counts over an unindexed replica log, matching the
    /// bucket flattening of `StIndex::heatmap` (row-major).
    fn log_heatmap(
        log: &[Observation],
        grid: &stcam_geo::GridSpec,
        window: stcam_geo::TimeInterval,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; grid.cell_count() as usize];
        for o in log {
            if !window.contains(o.time) {
                continue;
            }
            if let Some(cell) = grid.cell_of(o.position) {
                counts[cell.row as usize * grid.cols() as usize + cell.col as usize] += 1;
            }
        }
        counts
    }

    fn serve_stats(&mut self, _request: Request) -> Response {
        Response::Stats(self.stats())
    }

    fn serve_evict_before(&mut self, request: Request) -> Response {
        let Request::EvictBefore { cutoff, epoch } = request else {
            return Self::misrouted(&request);
        };
        if let Some(rejected) = self.fence(epoch) {
            return rejected;
        }
        self.index.evict_before(cutoff);
        for log in self.replica_logs.values_mut() {
            log.retain(|o| o.time >= cutoff);
        }
        Response::Ack
    }

    /// Answers the control-plane census: installed route epoch, owned
    /// primary cells, held replica-log keys, and locally-installed
    /// standing registrations. A reconstructing coordinator derives its
    /// whole control state from these reports — worker state is the
    /// ground truth, coordinator memory only a cache of it.
    fn serve_census(&mut self, request: Request) -> Response {
        let Request::Census = request else {
            return Self::misrouted(&request);
        };
        let (epoch, grid, cells) = match &self.route {
            Some(r) => {
                let mut cells: Vec<u32> = r.cells.iter().copied().collect();
                cells.sort_unstable();
                (
                    r.epoch,
                    Some(crate::protocol::GridSpecMsg::from(r.grid)),
                    cells,
                )
            }
            None => (0, None, Vec::new()),
        };
        let mut replica_of: Vec<NodeId> = self.replica_logs.keys().copied().collect();
        replica_of.sort_unstable_by_key(|n| n.0);
        let registrations = self
            .continuous
            .all()
            .into_iter()
            .map(
                |(id, predicate, notify)| crate::protocol::CensusRegistration {
                    id,
                    predicate,
                    notify,
                },
            )
            .collect();
        Response::Census(crate::protocol::CensusReport {
            epoch,
            grid,
            cells,
            replica_of,
            registrations,
        })
    }

    fn notify_continuous(&mut self, batch: &[Observation]) {
        if self.continuous.is_empty() {
            return;
        }
        // The interest index groups matches per query, so each ingest
        // batch costs at most one notification message per matching
        // query — and only registrations interested in the batch's cells
        // are consulted at all.
        for (id, notify, matches) in self.continuous.matching(batch) {
            let notification = Notification { query: id, matches };
            if self
                .endpoint
                .send(notify, encode_to_vec(&notification))
                .is_ok()
            {
                self.notifications_sent += 1;
            }
        }
    }

    /// Local statistics.
    pub fn stats(&self) -> WorkerStatsMsg {
        let mut served: Vec<(String, u64)> = self
            .shared
            .served
            .lock()
            .iter()
            .map(|(&op, &n)| (op.to_string(), n))
            .collect();
        served.sort();
        let index_stats = self.index.stats();
        WorkerStatsMsg {
            primary_observations: self.index.len() as u64,
            replica_observations: self.replica_logs.values().map(|v| v.len() as u64).sum(),
            ingested_total: self.ingested_total,
            notifications_sent: self.notifications_sent,
            continuous_queries: self.continuous.len() as u64,
            interest_buckets: self.continuous.bucket_count() as u64,
            busy_micros: self.shared.busy_micros.load(Ordering::Relaxed),
            resident_bytes: index_stats.resident_bytes as u64,
            sealed_segments: index_stats.sealed_segments as u64,
            newest_ms: index_stats.newest.map(|t| t.as_millis()),
            served,
        }
    }

    /// Read access to the shard index (tests and embedded use).
    pub fn index(&self) -> &StIndex {
        &self.index
    }
}

/// Owner handle of a spawned worker thread.
#[derive(Debug)]
pub struct WorkerHandle {
    stop: Arc<AtomicBool>,
    /// Unblocks the serving loop's blocking receive so it observes the
    /// stop flag — works even when the node is crashed in the fabric.
    waker: Waker,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// Stops the serving loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{ContinuousQueryId, Predicate};
    use crate::protocol::PROJ_FULL;
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_geo::{BBox, Duration, Point, TimeInterval, Timestamp};
    use stcam_net::{Fabric, LinkModel};
    use stcam_world::{EntityClass, EntityId};
    use std::time::Duration as StdDuration;

    fn obs(seq: u64, t_ms: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    fn index_config() -> IndexConfig {
        IndexConfig::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            50.0,
            Duration::from_secs(10),
        )
    }

    fn lone_worker() -> (Fabric, Worker) {
        let fabric = Fabric::new(LinkModel::instant());
        let endpoint = fabric.register(NodeId(1));
        let worker = Worker::new(
            endpoint,
            WorkerConfig {
                index: index_config(),
                read_threads: 0,
            },
        );
        (fabric, worker)
    }

    fn window_all() -> TimeInterval {
        TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1_000))
    }

    /// Sender id of the test seeding helpers (clear of every real role).
    const SEED_SENDER: NodeId = NodeId(30_000);

    /// A sequenced ingest request carrying `batch`, with a fresh sequence
    /// number per call so no two seeds collide in the replay memory.
    fn seed_request(batch: Vec<Observation>) -> Request {
        static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
        Request::IngestSeq {
            sender: SEED_SENDER,
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
            batch,
        }
    }

    /// Asserts that a seeding request was acknowledged in full.
    fn assert_acked(response: Response, count: usize) {
        assert!(
            matches!(response, Response::IngestAck { accepted, .. } if accepted as usize == count),
            "expected an ack for {count} observations, got {response:?}"
        );
    }

    /// Seeds the primary shard through the acked ingest path.
    fn seed(worker: &mut Worker, batch: Vec<Observation>) -> Response {
        worker.handle_request(seed_request(batch))
    }

    /// Seeds the replica log held for `primary` through the acked
    /// replica-write path.
    fn seed_replica(worker: &mut Worker, primary: NodeId, batch: Vec<Observation>) -> Response {
        static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
        worker.handle_request(Request::ReplicateSeq {
            sender: SEED_SENDER,
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            primary,
            batch,
        })
    }

    /// The replica log held for `primary`, sorted by id.
    fn replica_log(worker: &Worker, primary: NodeId) -> Vec<Observation> {
        let mut log = worker
            .replica_logs
            .get(&primary)
            .cloned()
            .unwrap_or_default();
        log.sort_by_key(|o| o.id);
        log
    }

    #[test]
    fn ingest_then_range() {
        let (_fabric, mut worker) = lone_worker();
        assert_acked(seed(&mut worker, vec![obs(0, 500, 10.0, 10.0)]), 1);
        let resp = worker.handle_request(Request::Range {
            region: BBox::around(Point::new(10.0, 10.0), 5.0),
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        });
        match resp {
            Response::Observations(hits) => assert_eq!(hits.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn knn_respects_max_distance() {
        let (_fabric, mut worker) = lone_worker();
        seed(
            &mut worker,
            vec![obs(0, 0, 10.0, 0.0), obs(1, 0, 100.0, 0.0)],
        );
        let resp = worker.handle_request(Request::Knn {
            at: Point::new(0.0, 0.0),
            window: window_all(),
            k: 5,
            max_distance: Some(50.0),
        });
        match resp {
            Response::Observations(hits) => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].id.seq(), 0);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn promote_moves_replica_log_into_index() {
        let (_fabric, mut worker) = lone_worker();
        seed_replica(&mut worker, NodeId(1), vec![obs(0, 0, 5.0, 5.0)]);
        assert_eq!(
            worker.handle_request(Request::Promote {
                failed: NodeId(1),
                epoch: 0,
            }),
            Response::Ack
        );
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 1);
        assert_eq!(stats.replica_observations, 0);
        // Promoting an unknown primary is a harmless no-op.
        assert_eq!(
            worker.handle_request(Request::Promote {
                failed: NodeId(9),
                epoch: 0,
            }),
            Response::Ack
        );
    }

    #[test]
    fn continuous_query_notifies_on_match() {
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let mut worker = Worker::new(
            worker_ep,
            WorkerConfig {
                index: index_config(),
                read_threads: 0,
            },
        );
        worker.handle_request(Request::RegisterContinuous {
            id: ContinuousQueryId(7),
            predicate: Predicate {
                region: BBox::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)),
                class: Some(EntityClass::Car),
            },
            notify: NodeId(0),
        });
        seed(
            &mut worker,
            vec![
                obs(0, 0, 10.0, 10.0),   // match
                obs(1, 0, 500.0, 500.0), // outside region
            ],
        );
        let env = client.recv_timeout(StdDuration::from_secs(1)).unwrap();
        let notification: Notification = decode_from_slice(&env.payload).unwrap();
        assert_eq!(notification.query, ContinuousQueryId(7));
        assert_eq!(notification.matches.len(), 1);
        assert_eq!(notification.matches[0].id.seq(), 0);
        // Unregister stops the stream.
        worker.handle_request(Request::UnregisterContinuous(ContinuousQueryId(7)));
        seed(&mut worker, vec![obs(2, 0, 10.0, 10.0)]);
        assert!(client.recv_timeout(StdDuration::from_millis(50)).is_none());
    }

    #[test]
    fn eviction_trims_index_and_replica_logs() {
        let (_fabric, mut worker) = lone_worker();
        seed(&mut worker, vec![obs(0, 1_000, 1.0, 1.0)]);
        seed_replica(
            &mut worker,
            NodeId(9),
            vec![obs(1, 1_000, 2.0, 2.0), obs(2, 90_000, 2.0, 2.0)],
        );
        worker.handle_request(Request::EvictBefore {
            cutoff: Timestamp::from_secs(60),
            epoch: 0,
        });
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 0);
        assert_eq!(stats.replica_observations, 1);
    }

    #[test]
    fn extract_region_removes_and_returns() {
        let (_fabric, mut worker) = lone_worker();
        seed(
            &mut worker,
            vec![obs(0, 0, 100.0, 100.0), obs(1, 0, 900.0, 900.0)],
        );
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0));
        match worker.handle_request(Request::ExtractRegion { region }) {
            Response::Observations(moved) => {
                assert_eq!(moved.len(), 1);
                assert_eq!(moved[0].id.seq(), 0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(worker.stats().primary_observations, 1);
        // Idempotent on an already-empty region.
        match worker.handle_request(Request::ExtractRegion { region }) {
            Response::Observations(moved) => assert!(moved.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
        // Extraction must also release the ids from the ingest dedup set:
        // if the cell migrates back here later, the same observation has
        // to be accepted again rather than silently dropped.
        seed(&mut worker, vec![obs(0, 0, 100.0, 100.0)]);
        assert_eq!(worker.stats().primary_observations, 2);
    }

    #[test]
    fn range_filtered_applies_class_predicate() {
        let (_fabric, mut worker) = lone_worker();
        let mut truck = obs(0, 0, 100.0, 100.0);
        truck.class = EntityClass::Truck;
        seed(&mut worker, vec![truck, obs(1, 0, 110.0, 110.0)]);
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0));
        match worker.handle_request(Request::RangeFiltered {
            region,
            window: window_all(),
            class: EntityClass::Truck.as_u8(),
            limit: 0,
            projection: PROJ_FULL,
        }) {
            Response::Observations(hits) => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].class, EntityClass::Truck);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Invalid class byte → application error, not a panic.
        match worker.handle_request(Request::RangeFiltered {
            region,
            window: window_all(),
            class: 200,
            limit: 0,
            projection: PROJ_FULL,
        }) {
            Response::Error(msg) => assert!(msg.contains("invalid class")),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn dispatch_table_covers_every_request_kind() {
        use crate::protocol::GridSpecMsg;
        let all = [
            Request::Ping,
            Request::Range {
                region: BBox::around(Point::ORIGIN, 1.0),
                window: window_all(),
                limit: 0,
                projection: PROJ_FULL,
            },
            Request::Knn {
                at: Point::ORIGIN,
                window: window_all(),
                k: 1,
                max_distance: None,
            },
            Request::Heatmap {
                buckets: GridSpecMsg {
                    origin: Point::ORIGIN,
                    cell_size: 1.0,
                    cols: 1,
                    rows: 1,
                },
                window: window_all(),
            },
            Request::TopCells {
                buckets: GridSpecMsg {
                    origin: Point::ORIGIN,
                    cell_size: 1.0,
                    cols: 1,
                    rows: 1,
                },
                window: window_all(),
            },
            Request::RegisterContinuous {
                id: ContinuousQueryId(1),
                predicate: Predicate {
                    region: BBox::around(Point::ORIGIN, 1.0),
                    class: None,
                },
                notify: NodeId(0),
            },
            Request::UnregisterContinuous(ContinuousQueryId(1)),
            Request::Promote {
                failed: NodeId(1),
                epoch: 0,
            },
            Request::ExtractRegion {
                region: BBox::around(Point::ORIGIN, 1.0),
            },
            Request::RangeFiltered {
                region: BBox::around(Point::ORIGIN, 1.0),
                window: window_all(),
                class: EntityClass::Car.as_u8(),
                limit: 0,
                projection: PROJ_FULL,
            },
            Request::Stats,
            Request::EvictBefore {
                cutoff: Timestamp::ZERO,
                epoch: 0,
            },
            Request::ReplicaRead {
                of: NodeId(1),
                inner: Box::new(Request::Range {
                    region: BBox::around(Point::ORIGIN, 1.0),
                    window: window_all(),
                    limit: 0,
                    projection: PROJ_FULL,
                }),
            },
            Request::IngestSeq {
                sender: NodeId(10_001),
                seq: 0,
                epoch: 1,
                batch: vec![],
            },
            Request::ReplicateSeq {
                sender: NodeId(10_001),
                seq: 0,
                primary: NodeId(1),
                batch: vec![],
            },
            Request::RouteUpdate {
                epoch: 1,
                grid: GridSpecMsg {
                    origin: Point::ORIGIN,
                    cell_size: 1.0,
                    cols: 1,
                    rows: 1,
                },
                cells: vec![],
            },
            Request::CellDigest {
                grid: GridSpecMsg {
                    origin: Point::ORIGIN,
                    cell_size: 1.0,
                    cols: 1,
                    rows: 1,
                },
            },
            Request::Repair {
                primary: NodeId(1),
                grid: GridSpecMsg {
                    origin: Point::ORIGIN,
                    cell_size: 1.0,
                    cols: 1,
                    rows: 1,
                },
                cell: 0,
                truncate: false,
                batch: vec![],
            },
            Request::Rejoin {
                epoch: 1,
                grid: GridSpecMsg {
                    origin: Point::ORIGIN,
                    cell_size: 1.0,
                    cols: 1,
                    rows: 1,
                },
                cells: vec![],
            },
            Request::SegmentDigest,
            Request::ExportSegments {
                region: BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
                skip: vec![],
            },
            Request::InstallSegments {
                frames: vec![],
                head: vec![],
            },
            Request::FetchPage { cursor: 0, page: 1 },
            Request::Census,
        ];
        assert_eq!(
            all.len(),
            DISPATCH.len(),
            "dispatch table out of sync with Request"
        );
        for request in all {
            let name = request.op_name();
            assert!(
                DISPATCH.iter().any(|(op, _)| *op == name),
                "no dispatch row for {name}"
            );
        }
    }

    #[test]
    fn export_install_bulk_syncs_a_fresh_worker() {
        let (fabric, mut source) = lone_worker();
        // Spread across enough slices that the head seals some of them.
        let batch: Vec<Observation> = (0..200)
            .map(|i| {
                obs(
                    i,
                    (i * 250) % 50_000,
                    (i * 37 % 1000) as f64,
                    (i * 61 % 1000) as f64,
                )
            })
            .collect();
        assert_acked(seed(&mut source, batch.clone()), batch.len());
        let Response::SegmentDigests(digests) = source.handle_request(Request::SegmentDigest)
        else {
            panic!("expected segment digests");
        };
        assert!(!digests.is_empty(), "nothing sealed at the source");
        let everything = BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12));
        let Response::Segments { frames, head } = source.handle_request(Request::ExportSegments {
            region: everything,
            skip: vec![],
        }) else {
            panic!("expected segments");
        };
        assert_eq!(frames.len(), digests.len());
        assert_eq!(
            frames.iter().map(|f| f.count as usize).sum::<usize>() + head.len(),
            batch.len()
        );
        // Install into a fresh worker; answers must match the source's.
        let endpoint = fabric.register(NodeId(2));
        let mut target = Worker::new(
            endpoint,
            WorkerConfig {
                index: index_config(),
                read_threads: 0,
            },
        );
        assert_eq!(
            target.handle_request(Request::InstallSegments {
                frames: frames.clone(),
                head: head.clone(),
            }),
            Response::Ack
        );
        assert_eq!(target.stats().primary_observations, batch.len() as u64);
        assert_eq!(target.stats().sealed_segments, digests.len() as u64);
        let probe = Request::Range {
            region: BBox::new(Point::new(100.0, 100.0), Point::new(800.0, 800.0)),
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        };
        assert_eq!(
            source.handle_request(probe.clone()),
            target.handle_request(probe)
        );
        // Retransmission: digest dedup and the id filter drop everything.
        assert_eq!(
            target.handle_request(Request::InstallSegments { frames, head }),
            Response::Ack
        );
        assert_eq!(target.stats().primary_observations, batch.len() as u64);
        assert_eq!(target.stats().sealed_segments, digests.len() as u64);
        // A skip list naming everything held suppresses the re-export.
        let Response::Segments { frames, .. } = source.handle_request(Request::ExportSegments {
            region: everything,
            skip: digests,
        }) else {
            panic!("expected segments");
        };
        assert!(frames.is_empty(), "skip list ignored");
    }

    #[test]
    fn duplicate_sequenced_batch_counts_once() {
        let (_fabric, mut worker) = lone_worker();
        let sender = NodeId(10_001);
        let batch = vec![obs(0, 500, 10.0, 10.0), obs(1, 500, 20.0, 20.0)];
        let first = worker.handle_request(Request::IngestSeq {
            sender,
            seq: 5,
            epoch: 1,
            batch: batch.clone(),
        });
        assert_eq!(
            first,
            Response::IngestAck {
                seq: 5,
                accepted: 2
            }
        );
        // Retransmission: answered from memory, applied exactly once.
        let replay = worker.handle_request(Request::IngestSeq {
            sender,
            seq: 5,
            epoch: 1,
            batch,
        });
        assert_eq!(replay, first);
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 2);
        assert_eq!(stats.ingested_total, 2);
    }

    #[test]
    fn same_observation_under_new_seq_inserts_once() {
        // After a failover the same batch can legitimately arrive under a
        // fresh (sender, seq); the id filter must still count it once.
        let (_fabric, mut worker) = lone_worker();
        let sender = NodeId(10_001);
        let batch = vec![obs(0, 500, 10.0, 10.0)];
        worker.handle_request(Request::IngestSeq {
            sender,
            seq: 1,
            epoch: 1,
            batch: batch.clone(),
        });
        let again = worker.handle_request(Request::IngestSeq {
            sender,
            seq: 2,
            epoch: 1,
            batch,
        });
        // Still a full ack — the data is present, which is what an ack
        // certifies.
        assert_eq!(
            again,
            Response::IngestAck {
                seq: 2,
                accepted: 1
            }
        );
        assert_eq!(worker.stats().primary_observations, 1);
    }

    #[test]
    fn misrouted_observations_are_nacked_with_epoch() {
        use crate::protocol::GridSpecMsg;
        let (_fabric, mut worker) = lone_worker();
        // Own only cell 0 of a 2×1 macro grid splitting x at 500.
        worker.handle_request(Request::RouteUpdate {
            epoch: 7,
            grid: GridSpecMsg {
                origin: Point::ORIGIN,
                cell_size: 500.0,
                cols: 2,
                rows: 1,
            },
            cells: vec![0],
        });
        let mine = obs(0, 500, 100.0, 100.0);
        let theirs = obs(1, 500, 900.0, 100.0);
        let theirs_id = theirs.id;
        let resp = worker.handle_request(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 1,
            epoch: 3,
            batch: vec![mine, theirs],
        });
        assert_eq!(
            resp,
            Response::IngestNack {
                seq: 1,
                accepted: 1,
                epoch: 7,
                misrouted: vec![theirs_id],
            }
        );
        // The owned observation was applied despite the nack.
        assert_eq!(worker.stats().primary_observations, 1);
    }

    #[test]
    fn route_update_ignores_older_epoch() {
        use crate::protocol::GridSpecMsg;
        let (_fabric, mut worker) = lone_worker();
        let grid = GridSpecMsg {
            origin: Point::ORIGIN,
            cell_size: 500.0,
            cols: 2,
            rows: 1,
        };
        worker.handle_request(Request::RouteUpdate {
            epoch: 9,
            grid,
            cells: vec![0],
        });
        // A stale update must not widen ownership back to cell 1.
        worker.handle_request(Request::RouteUpdate {
            epoch: 4,
            grid,
            cells: vec![0, 1],
        });
        let resp = worker.handle_request(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 1,
            epoch: 4,
            batch: vec![obs(0, 500, 900.0, 100.0)],
        });
        assert!(
            matches!(resp, Response::IngestNack { epoch: 9, .. }),
            "unexpected response {resp:?}"
        );
    }

    #[test]
    fn stale_epoch_control_mutations_are_fenced() {
        use crate::protocol::GridSpecMsg;
        let (_fabric, mut worker) = lone_worker();
        let grid = GridSpecMsg {
            origin: Point::ORIGIN,
            cell_size: 500.0,
            cols: 2,
            rows: 1,
        };
        worker.handle_request(Request::RouteUpdate {
            epoch: 9,
            grid,
            cells: vec![0],
        });
        let stale = Response::Error(STALE_EPOCH_ERROR.into());
        // Every control mutation below the installed epoch is rejected
        // with an explicit error — the stale sender learns it is fenced.
        assert_eq!(
            worker.handle_request(Request::RouteUpdate {
                epoch: 8,
                grid,
                cells: vec![0, 1],
            }),
            stale
        );
        assert_eq!(
            worker.handle_request(Request::EvictBefore {
                cutoff: Timestamp::from_secs(100),
                epoch: 8,
            }),
            stale
        );
        assert_eq!(
            worker.handle_request(Request::Promote {
                failed: NodeId(7),
                epoch: 8,
            }),
            stale
        );
        assert_eq!(
            worker.handle_request(Request::Rejoin {
                epoch: 8,
                grid,
                cells: vec![0, 1],
            }),
            stale
        );
        // The fence rejected the rejoin *before* any state reset: the
        // installed route is untouched.
        assert!(
            matches!(
                worker.handle_request(Request::Census),
                Response::Census(ref r) if r.epoch == 9 && r.cells == vec![0]
            ),
            "route must survive a fenced rejoin"
        );
        // The installed epoch itself (and anything above) passes.
        assert_eq!(
            worker.handle_request(Request::EvictBefore {
                cutoff: Timestamp::from_secs(100),
                epoch: 9,
            }),
            Response::Ack
        );
    }

    #[test]
    fn census_reports_route_replicas_and_registrations() {
        use crate::protocol::{CensusRegistration, CensusReport, GridSpecMsg};
        let (_fabric, mut worker) = lone_worker();
        // No route yet: an empty report at epoch 0.
        let resp = worker.handle_request(Request::Census);
        assert_eq!(resp, Response::Census(CensusReport::default()));
        let grid = GridSpecMsg {
            origin: Point::ORIGIN,
            cell_size: 500.0,
            cols: 2,
            rows: 1,
        };
        worker.handle_request(Request::RouteUpdate {
            epoch: 5,
            grid,
            cells: vec![1, 0],
        });
        // A replica log and a standing registration become census facts.
        seed_replica(&mut worker, NodeId(9), vec![obs(1, 500, 100.0, 100.0)]);
        let predicate = Predicate {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0)),
            class: None,
        };
        worker.handle_request(Request::RegisterContinuous {
            id: ContinuousQueryId(7),
            predicate,
            notify: NodeId(0),
        });
        let resp = worker.handle_request(Request::Census);
        assert_eq!(
            resp,
            Response::Census(CensusReport {
                epoch: 5,
                grid: Some(grid),
                cells: vec![0, 1],
                replica_of: vec![NodeId(9)],
                registrations: vec![CensusRegistration {
                    id: ContinuousQueryId(7),
                    predicate,
                    notify: NodeId(0),
                }],
            })
        );
    }

    #[test]
    fn newer_sender_epoch_is_accepted_permissively() {
        use crate::protocol::GridSpecMsg;
        let (_fabric, mut worker) = lone_worker();
        // Installed slice (epoch 7) owns only cell 0 — but the sender
        // writes under epoch 9, so its plan post-dates this worker's and
        // the out-of-slice observation must be accepted, not NACKed.
        worker.handle_request(Request::RouteUpdate {
            epoch: 7,
            grid: GridSpecMsg {
                origin: Point::ORIGIN,
                cell_size: 500.0,
                cols: 2,
                rows: 1,
            },
            cells: vec![0],
        });
        let resp = worker.handle_request(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 1,
            epoch: 9,
            batch: vec![obs(0, 500, 900.0, 100.0)],
        });
        assert_eq!(
            resp,
            Response::IngestAck {
                seq: 1,
                accepted: 1
            }
        );
        assert_eq!(worker.stats().primary_observations, 1);
    }

    #[test]
    fn replicate_seq_is_idempotent_and_id_deduped() {
        let (_fabric, mut worker) = lone_worker();
        let sender = NodeId(10_001);
        let batch = vec![obs(0, 500, 10.0, 10.0), obs(1, 500, 20.0, 20.0)];
        let first = worker.handle_request(Request::ReplicateSeq {
            sender,
            seq: 1,
            primary: NodeId(4),
            batch: batch.clone(),
        });
        assert_eq!(
            first,
            Response::IngestAck {
                seq: 1,
                accepted: 2
            }
        );
        // Same seq: replayed. New seq, same ids: appended zero times.
        worker.handle_request(Request::ReplicateSeq {
            sender,
            seq: 1,
            primary: NodeId(4),
            batch: batch.clone(),
        });
        worker.handle_request(Request::ReplicateSeq {
            sender,
            seq: 2,
            primary: NodeId(4),
            batch,
        });
        assert_eq!(worker.stats().replica_observations, 2);
    }

    #[test]
    fn promote_skips_observations_already_primary() {
        let (_fabric, mut worker) = lone_worker();
        let shared = obs(0, 500, 10.0, 10.0);
        // Arrives once as a replica for a primary that will fail…
        worker.handle_request(Request::ReplicateSeq {
            sender: NodeId(10_001),
            seq: 1,
            primary: NodeId(4),
            batch: vec![shared.clone(), obs(1, 500, 20.0, 20.0)],
        });
        // …and once directly (sender retried to the successor).
        worker.handle_request(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 2,
            epoch: 1,
            batch: vec![shared],
        });
        worker.handle_request(Request::Promote {
            failed: NodeId(4),
            epoch: 0,
        });
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 2);
        assert_eq!(stats.replica_observations, 0);
    }

    #[test]
    fn replica_read_answers_from_the_replica_log() {
        use crate::protocol::GridSpecMsg;
        let (_fabric, mut worker) = lone_worker();
        // Primary data must NOT leak into replica reads.
        seed(&mut worker, vec![obs(90, 0, 500.0, 500.0)]);
        let mut truck = obs(1, 0, 20.0, 20.0);
        truck.class = EntityClass::Truck;
        seed_replica(
            &mut worker,
            NodeId(7),
            vec![obs(0, 0, 10.0, 10.0), truck, obs(2, 80_000, 30.0, 30.0)],
        );
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let replica_read = |inner: Request| Request::ReplicaRead {
            of: NodeId(7),
            inner: Box::new(inner),
        };
        match worker.handle_request(replica_read(Request::Range {
            region,
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        })) {
            Response::Observations(hits) => {
                let mut seqs: Vec<u64> = hits.iter().map(|o| o.id.seq()).collect();
                seqs.sort_unstable();
                assert_eq!(seqs, vec![0, 1, 2]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Time window and class filters apply on the log scan too.
        match worker.handle_request(replica_read(Request::RangeFiltered {
            region,
            window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(60)),
            class: EntityClass::Truck.as_u8(),
            limit: 0,
            projection: PROJ_FULL,
        })) {
            Response::Observations(hits) => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].id.seq(), 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        match worker.handle_request(replica_read(Request::Knn {
            at: Point::new(0.0, 0.0),
            window: window_all(),
            k: 2,
            max_distance: None,
        })) {
            Response::Observations(hits) => {
                assert_eq!(hits.len(), 2);
                assert_eq!(hits[0].id.seq(), 0);
                assert_eq!(hits[1].id.seq(), 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let buckets = GridSpecMsg {
            origin: Point::new(0.0, 0.0),
            cell_size: 100.0,
            cols: 10,
            rows: 10,
        };
        match worker.handle_request(replica_read(Request::Heatmap {
            buckets,
            window: window_all(),
        })) {
            Response::CellCounts(cells) => {
                assert_eq!(cells, vec![(0, 3)]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        match worker.handle_request(replica_read(Request::TopCells {
            buckets,
            window: window_all(),
        })) {
            Response::CellCounts(cells) => assert_eq!(cells, vec![(0, 3)]),
            other => panic!("unexpected response {other:?}"),
        }
        // An unknown primary reads as an empty log, not an error.
        match worker.handle_request(Request::ReplicaRead {
            of: NodeId(42),
            inner: Box::new(Request::Range {
                region,
                window: window_all(),
                limit: 0,
                projection: PROJ_FULL,
            }),
        }) {
            Response::Observations(hits) => assert!(hits.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn non_read_requests_are_not_replica_readable() {
        let (_fabric, mut worker) = lone_worker();
        match worker.handle_request(Request::ReplicaRead {
            of: NodeId(7),
            inner: Box::new(Request::EvictBefore {
                cutoff: Timestamp::ZERO,
                epoch: 0,
            }),
        }) {
            Response::Error(msg) => assert!(msg.contains("not replica-readable")),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn served_counters_track_per_op_traffic() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(Request::Ping);
        worker.handle_request(Request::Ping);
        seed(&mut worker, vec![obs(0, 0, 10.0, 10.0)]);
        let stats = worker.stats();
        assert_eq!(stats.served_count("ping"), 2);
        assert_eq!(stats.served_count("ingest_seq"), 1);
        assert_eq!(stats.served_count("range"), 0);
    }

    #[test]
    fn top_cells_reports_sparse_nonzero_buckets() {
        use crate::protocol::GridSpecMsg;
        let (_fabric, mut worker) = lone_worker();
        seed(
            &mut worker,
            vec![
                obs(0, 0, 10.0, 10.0),   // cell (0, 0)
                obs(1, 0, 10.0, 15.0),   // cell (0, 0)
                obs(2, 0, 910.0, 910.0), // cell (9, 9)
            ],
        );
        let buckets = GridSpecMsg {
            origin: Point::new(0.0, 0.0),
            cell_size: 100.0,
            cols: 10,
            rows: 10,
        };
        match worker.handle_request(Request::TopCells {
            buckets,
            window: window_all(),
        }) {
            Response::CellCounts(cells) => {
                assert_eq!(cells, vec![(0, 2), (99, 1)]);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn grid_2x2() -> crate::protocol::GridSpecMsg {
        crate::protocol::GridSpecMsg {
            origin: Point::ORIGIN,
            cell_size: 500.0,
            cols: 2,
            rows: 2,
        }
    }

    #[test]
    fn cell_digest_covers_primary_and_replica_logs() {
        use crate::repair::observation_checksum;
        let (_fabric, mut worker) = lone_worker();
        let a = obs(0, 100, 100.0, 100.0); // cell 0
        let b = obs(1, 200, 100.0, 150.0); // cell 0
        let c = obs(2, 300, 900.0, 900.0); // cell 3
        seed(&mut worker, vec![a.clone(), b.clone()]);
        seed_replica(&mut worker, NodeId(7), vec![c.clone()]);
        match worker.handle_request(Request::CellDigest { grid: grid_2x2() }) {
            Response::Digests(report) => {
                assert_eq!(report.primary.len(), 1);
                assert_eq!(report.primary[0].cell, 0);
                assert_eq!(report.primary[0].count, 2);
                assert_eq!(
                    report.primary[0].checksum,
                    observation_checksum(&a) ^ observation_checksum(&b)
                );
                assert_eq!(report.replicas.len(), 1);
                assert_eq!(report.replicas[0].primary, NodeId(7));
                assert_eq!(report.replicas[0].cell, 3);
                assert_eq!(report.replicas[0].count, 1);
                assert_eq!(report.replicas[0].checksum, observation_checksum(&c));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn repair_overwrites_replica_log_cell_idempotently() {
        let (_fabric, mut worker) = lone_worker();
        // Stale copy in cell 0 of primary 4's log.
        seed_replica(
            &mut worker,
            NodeId(4),
            vec![obs(0, 100, 10.0, 10.0), obs(9, 100, 900.0, 900.0)],
        );
        // Stream the authoritative contents: truncate, then two chunks.
        let fresh = [obs(1, 100, 20.0, 20.0), obs(2, 100, 30.0, 30.0)];
        worker.handle_request(Request::Repair {
            primary: NodeId(4),
            grid: grid_2x2(),
            cell: 0,
            truncate: true,
            batch: vec![fresh[0].clone()],
        });
        worker.handle_request(Request::Repair {
            primary: NodeId(4),
            grid: grid_2x2(),
            cell: 0,
            truncate: false,
            batch: vec![fresh[1].clone()],
        });
        // A retransmitted chunk appends nothing (id dedup).
        worker.handle_request(Request::Repair {
            primary: NodeId(4),
            grid: grid_2x2(),
            cell: 0,
            truncate: false,
            batch: vec![fresh[1].clone()],
        });
        let seqs: Vec<u64> = replica_log(&worker, NodeId(4))
            .iter()
            .map(|o| o.id.seq())
            .collect();
        // Cell 0 replaced (seq 0 gone, 1 and 2 in); cell 3 untouched
        // (seq 9 kept).
        assert_eq!(seqs, vec![1, 2, 9]);
        // Truncating the stale-id namespace re-admits the removed id.
        worker.handle_request(Request::Repair {
            primary: NodeId(4),
            grid: grid_2x2(),
            cell: 0,
            truncate: true,
            batch: vec![obs(0, 100, 10.0, 10.0)],
        });
        let seqs: Vec<u64> = replica_log(&worker, NodeId(4))
            .iter()
            .map(|o| o.id.seq())
            .collect();
        assert_eq!(seqs, vec![0, 9]);
    }

    #[test]
    fn repair_to_self_overwrites_primary_cell() {
        let (_fabric, mut worker) = lone_worker();
        seed(
            &mut worker,
            vec![
                obs(0, 100, 10.0, 10.0),   // cell 0 — to be replaced
                obs(9, 100, 900.0, 900.0), // cell 3 — untouched
            ],
        );
        worker.handle_request(Request::Repair {
            primary: NodeId(1), // == self: primary shard path
            grid: grid_2x2(),
            cell: 0,
            truncate: true,
            batch: vec![obs(1, 100, 20.0, 20.0)],
        });
        let resp = worker.handle_request(Request::Range {
            region: BBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0)),
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        });
        match resp {
            Response::Observations(hits) => {
                let mut seqs: Vec<u64> = hits.iter().map(|o| o.id.seq()).collect();
                seqs.sort_unstable();
                assert_eq!(seqs, vec![1, 9]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The truncated id was released from the dedup filter: the same
        // observation can be streamed back (rebalance return trip).
        worker.handle_request(Request::Repair {
            primary: NodeId(1),
            grid: grid_2x2(),
            cell: 0,
            truncate: true,
            batch: vec![obs(0, 100, 10.0, 10.0)],
        });
        assert_eq!(worker.stats().primary_observations, 2);
    }

    #[test]
    fn rejoin_resets_all_state_and_installs_route() {
        let (_fabric, mut worker) = lone_worker();
        seed(&mut worker, vec![obs(0, 100, 10.0, 10.0)]);
        seed_replica(&mut worker, NodeId(4), vec![obs(1, 100, 20.0, 20.0)]);
        worker.handle_request(Request::RegisterContinuous {
            id: ContinuousQueryId(7),
            predicate: Predicate {
                region: BBox::around(Point::new(10.0, 10.0), 50.0),
                class: None,
            },
            notify: NodeId(0),
        });
        worker.handle_request(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 5,
            epoch: 1,
            batch: vec![obs(2, 100, 30.0, 30.0)],
        });
        assert_eq!(
            worker.handle_request(Request::Rejoin {
                epoch: 9,
                grid: grid_2x2(),
                cells: vec![0],
            }),
            Response::Ack
        );
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 0);
        assert_eq!(stats.replica_observations, 0);
        assert_eq!(stats.continuous_queries, 0);
        // Retransmission memory cleared: the old (sender, seq) is
        // re-applied, not replayed from a forgotten answer.
        worker.handle_request(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 5,
            epoch: 9,
            batch: vec![obs(2, 100, 30.0, 30.0)],
        });
        assert_eq!(worker.stats().primary_observations, 1);
        // The installed route rejects cells outside the new slice.
        let resp = worker.handle_request(Request::IngestSeq {
            sender: NodeId(10_001),
            seq: 6,
            epoch: 9,
            batch: vec![obs(3, 100, 900.0, 900.0)],
        });
        assert!(
            matches!(resp, Response::IngestNack { epoch: 9, .. }),
            "unexpected response {resp:?}"
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(
            worker_ep,
            WorkerConfig {
                index: index_config(),
                read_threads: 0,
            },
        );
        let big: Vec<Observation> = (0..5_000u64)
            .map(|i| {
                obs(
                    i,
                    (i % 60) * 1000,
                    (i as f64 * 7.0) % 1000.0,
                    (i as f64 * 13.0) % 1000.0,
                )
            })
            .collect();
        let resp = client
            .call(
                NodeId(1),
                encode_to_vec(&seed_request(big)),
                StdDuration::from_secs(10),
            )
            .unwrap();
        assert_acked(decode_from_slice::<Response>(&resp).unwrap(), 5_000);
        let stats_bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&Request::Stats),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&stats_bytes).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.primary_observations, 5_000);
                assert!(s.busy_micros > 0, "busy time not recorded");
            }
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn spawned_worker_answers_rpc() {
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(
            worker_ep,
            WorkerConfig {
                index: index_config(),
                read_threads: 0,
            },
        );
        let resp_bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&Request::Ping),
                StdDuration::from_secs(5),
            )
            .unwrap();
        assert_eq!(
            decode_from_slice::<Response>(&resp_bytes).unwrap(),
            Response::Ack
        );
        handle.shutdown();
    }

    #[test]
    fn malformed_request_yields_error_response() {
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(
            worker_ep,
            WorkerConfig {
                index: index_config(),
                read_threads: 0,
            },
        );
        let resp_bytes = client
            .call(NodeId(1), vec![250, 1, 2], StdDuration::from_secs(5))
            .unwrap();
        match decode_from_slice::<Response>(&resp_bytes).unwrap() {
            Response::Error(msg) => assert!(msg.contains("bad request")),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }

    /// Boots a pooled worker and loads `n` spread-out observations.
    fn pooled_worker_with_rows(
        fabric: &Fabric,
        read_threads: usize,
        n: u64,
    ) -> (stcam_net::Endpoint, WorkerHandle) {
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(
            worker_ep,
            WorkerConfig {
                index: index_config(),
                read_threads,
            },
        );
        let rows: Vec<Observation> = (0..n)
            .map(|i| {
                obs(
                    i,
                    (i % 900) * 1000,
                    (i as f64 * 7.0) % 1000.0,
                    (i as f64 * 13.0) % 1000.0,
                )
            })
            .collect();
        let resp = client
            .call(
                NodeId(1),
                encode_to_vec(&seed_request(rows)),
                StdDuration::from_secs(10),
            )
            .unwrap();
        assert_acked(decode_from_slice::<Response>(&resp).unwrap(), n as usize);
        (client, handle)
    }

    #[test]
    fn oversize_read_pages_and_client_reassembles() {
        let fabric = Fabric::new(LinkModel::instant());
        let (client, handle) = pooled_worker_with_rows(&fabric, 2, 4_000);
        let query = Request::Range {
            region: BBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0)),
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        };
        let first = client
            .call(NodeId(1), encode_to_vec(&query), StdDuration::from_secs(10))
            .unwrap();
        assert!(
            first.len() <= crate::paging::PAGE_MAX_BYTES,
            "first frame of {} bytes exceeds the page bound",
            first.len()
        );
        let (cursor, pages, kind, mut payloads) =
            match decode_from_slice::<Response>(&first).unwrap() {
                Response::ResultPage {
                    cursor,
                    page: 0,
                    pages,
                    kind,
                    payload,
                } => (cursor, pages, kind, vec![payload]),
                other => panic!("oversize result did not page: {other:?}"),
            };
        assert!(pages > 1);
        for page in 1..pages {
            let bytes = client
                .call(
                    NodeId(1),
                    encode_to_vec(&Request::FetchPage { cursor, page }),
                    StdDuration::from_secs(10),
                )
                .unwrap();
            assert!(bytes.len() <= crate::paging::PAGE_MAX_BYTES);
            match decode_from_slice::<Response>(&bytes).unwrap() {
                Response::ResultPage {
                    cursor: c,
                    page: p,
                    kind: k,
                    payload,
                    ..
                } => {
                    assert_eq!((c, p, k), (cursor, page, kind));
                    payloads.push(payload);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        match crate::paging::reassemble(kind, &payloads).unwrap() {
            Response::Observations(rows) => {
                assert_eq!(rows.len(), 4_000);
                let seqs: std::collections::HashSet<u64> =
                    rows.iter().map(|o| o.id.seq()).collect();
                assert_eq!(seqs.len(), 4_000, "paging duplicated or dropped rows");
            }
            other => panic!("unexpected reassembly {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn range_limit_and_projection_push_down() {
        let (_fabric, mut worker) = lone_worker();
        seed(
            &mut worker,
            vec![
                obs(3, 100, 10.0, 10.0),
                obs(1, 200, 11.0, 11.0),
                obs(2, 300, 12.0, 12.0),
            ],
        );
        let region = BBox::new(Point::ORIGIN, Point::new(50.0, 50.0));
        // Per-shard limit keeps the lowest-id rows.
        match worker.handle_request(Request::Range {
            region,
            window: window_all(),
            limit: 2,
            projection: PROJ_FULL,
        }) {
            Response::Observations(hits) => {
                let seqs: Vec<u64> = hits.iter().map(|o| o.id.seq()).collect();
                assert_eq!(seqs, vec![1, 2]);
                assert!(hits.iter().all(|o| o.truth.is_some()));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Thin projection blanks the signature and truth columns.
        match worker.handle_request(Request::Range {
            region,
            window: window_all(),
            limit: 0,
            projection: PROJ_THIN,
        }) {
            Response::Observations(hits) => {
                assert_eq!(hits.len(), 3);
                for o in &hits {
                    assert!(o.truth.is_none());
                    assert!(o.signature.values().iter().all(|v| *v == 0.0));
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn unknown_page_cursor_is_an_error() {
        let fabric = Fabric::new(LinkModel::instant());
        let (client, handle) = pooled_worker_with_rows(&fabric, 1, 10);
        let bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&Request::FetchPage {
                    cursor: 999,
                    page: 0,
                }),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&bytes).unwrap() {
            Response::Error(msg) => assert!(msg.contains("unknown page cursor")),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn pooled_reads_observe_prior_ingest() {
        // Per-link FIFO plus control-lane snapshotting: a read issued
        // after an ingest ack must see the ingested rows, pool or not.
        let fabric = Fabric::new(LinkModel::instant());
        let (client, handle) = pooled_worker_with_rows(&fabric, 2, 100);
        let query = |region| Request::Range {
            region,
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        };
        let whole = BBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
        let bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&query(whole)),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&bytes).unwrap() {
            Response::Observations(hits) => assert_eq!(hits.len(), 100),
            other => panic!("unexpected response {other:?}"),
        }
        // A second wave of writes is visible to the next pooled read.
        let more: Vec<Observation> = (100..150u64).map(|i| obs(i, 1_000, 5.0, 5.0)).collect();
        client
            .call(
                NodeId(1),
                encode_to_vec(&seed_request(more)),
                StdDuration::from_secs(5),
            )
            .unwrap();
        let bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&query(whole)),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&bytes).unwrap() {
            Response::Observations(hits) => assert_eq!(hits.len(), 150),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }
}
