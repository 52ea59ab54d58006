//! Every call the benchmark makes into stcam, one function per
//! operation, each inside a span named `<layer>.<operation>` after the
//! module it enters. Keeping the calls in one place keeps the spans in
//! one place, and gives an API change a single call site to follow.

use std::time::Duration;

use stcam::{
    AdmissionControl, CentralizedStore, Cluster, ClusterConfig, ClusterStats, ContinuousQueryId,
    Ingestor, InterestIndex, Notification, OpStats, PartitionMap, Predicate, QueryCtx, QueryMode,
    StcamError, TenantBudget, TenantId, TenantUsage,
};
use stcam_camnet::Observation;
use stcam_geo::{BBox, CellId, GridSpec, Point, TimeInterval};
use stcam_index::{IndexConfig, StIndex};
use stcam_net::{Endpoint, Fabric, FabricStats, LinkModel, NetError, NodeId};

use crate::gen::{Read, KNN_K, TOP_K};
use crate::trace::span;

pub type Result<T> = std::result::Result<T, StcamError>;

// ---------------------------------------------------------------------
// Cluster lifecycle, ingest and control
// ---------------------------------------------------------------------

pub fn launch(config: ClusterConfig) -> Cluster {
    span("cluster.launch", || {
        Cluster::launch(config).expect("a local cluster always launches")
    })
}

pub fn shutdown(cluster: Cluster) {
    span("cluster.shutdown", || cluster.shutdown());
}

/// The index configuration `Cluster::launch` gives every worker.
pub fn index_config(config: &ClusterConfig) -> IndexConfig {
    IndexConfig::new(config.extent, config.index_cell_size, config.slice_len)
        .with_max_observations(config.max_observations_per_worker)
}

pub fn create_ingestor(cluster: &Cluster) -> Ingestor {
    span("ingest.create", || cluster.create_ingestor())
}

pub fn ingest(ingestor: &Ingestor, batch: Vec<Observation>) -> Result<usize> {
    span("ingest.call", || ingestor.ingest(batch))
}

pub fn ingest_pending(ingestor: &Ingestor) -> usize {
    ingestor.pending()
}

pub fn ingest_flush(ingestor: &Ingestor) -> Result<()> {
    span("ingest.flush", || ingestor.flush())
}

pub fn ingestor_id(ingestor: &Ingestor) -> NodeId {
    ingestor.id()
}

pub fn register_tenant(cluster: &Cluster, tenant: TenantId, budget: TenantBudget) {
    cluster.register_tenant(tenant, budget);
}

pub fn tenant_usage(cluster: &Cluster, tenant: TenantId) -> TenantUsage {
    cluster.tenant_usage(tenant)
}

pub fn register_continuous(cluster: &Cluster, predicate: Predicate) -> Result<ContinuousQueryId> {
    span("continuous.register", || {
        cluster.register_continuous(predicate)
    })
}

pub fn poll_notifications(cluster: &Cluster, timeout: Duration) -> Vec<Notification> {
    span("continuous.poll", || cluster.poll_notifications(timeout))
}

pub fn stats(cluster: &Cluster) -> Result<ClusterStats> {
    span("coordinator.stats", || cluster.stats())
}

pub fn op_stats(cluster: &Cluster) -> Vec<(&'static str, OpStats)> {
    cluster.op_stats()
}

pub fn fabric_stats(cluster: &Cluster) -> FabricStats {
    cluster.fabric_stats()
}

pub fn partition(cluster: &Cluster) -> PartitionMap {
    cluster.partition()
}

/// The worker that owns `p` under `map`.
pub fn owner_of(map: &PartitionMap, p: Point) -> NodeId {
    map.owner_of(p)
}

/// Whether `obs` matches a standing query's predicate.
pub fn predicate_matches(predicate: &Predicate, obs: &Observation) -> bool {
    predicate.matches(obs)
}

// ---------------------------------------------------------------------
// Reads through the query-plane facade
// ---------------------------------------------------------------------

/// The answer to one [`Read`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Rows(Vec<Observation>),
    Counts(Vec<u64>),
    Cells(Vec<(CellId, u64)>),
}

/// Runs `read` through the plain facade, or through the admission-gated
/// `*_ctx` facade when `ctx` is given.
pub fn read(
    cluster: &Cluster,
    ctx: Option<&QueryCtx>,
    read: &Read,
    grid: &GridSpec,
) -> Result<Answer> {
    let strict = QueryMode::Strict;
    match (*read, ctx) {
        (Read::Range { region, window }, None) => span("plane.range", || {
            cluster.range_query(region, window).map(Answer::Rows)
        }),
        (Read::Range { region, window }, Some(ctx)) => span("plane.range", || {
            cluster
                .range_query_ctx(ctx, strict, region, window)
                .map(|d| Answer::Rows(d.value))
        }),
        (Read::Knn { at, window }, None) => span("plane.knn", || {
            cluster.knn_query(at, window, KNN_K).map(Answer::Rows)
        }),
        (Read::Knn { at, window }, Some(ctx)) => span("plane.knn", || {
            cluster
                .knn_query_ctx(ctx, strict, at, window, KNN_K)
                .map(|d| Answer::Rows(d.value))
        }),
        (Read::Heatmap { window }, None) => span("plane.heatmap", || {
            cluster.heatmap(grid, window).map(Answer::Counts)
        }),
        (Read::Heatmap { window }, Some(ctx)) => span("plane.heatmap", || {
            cluster
                .heatmap_ctx(ctx, strict, grid, window)
                .map(|d| Answer::Counts(d.value))
        }),
        (Read::TopCells { window }, None) => span("plane.top_cells", || {
            cluster.top_cells(grid, window, TOP_K).map(Answer::Cells)
        }),
        (Read::TopCells { window }, Some(ctx)) => span("plane.top_cells", || {
            cluster
                .top_cells_ctx(ctx, strict, grid, window, TOP_K)
                .map(|d| Answer::Cells(d.value))
        }),
    }
}

// ---------------------------------------------------------------------
// The centralized oracle
// ---------------------------------------------------------------------

pub fn oracle_new(config: IndexConfig) -> CentralizedStore {
    CentralizedStore::indexed(config)
}

pub fn oracle_ingest(oracle: &mut CentralizedStore, batch: Vec<Observation>) {
    span("oracle.ingest", || oracle.ingest(batch));
}

/// The oracle's answer to `read`. Top-cells ranks the oracle's heat map
/// the way the executor ranks merged partials: non-empty cells by count,
/// descending, ties by row-major index.
pub fn oracle_read(oracle: &CentralizedStore, read: &Read, grid: &GridSpec) -> Answer {
    span("oracle.read", || match *read {
        Read::Range { region, window } => Answer::Rows(oracle.range_query(region, window)),
        Read::Knn { at, window } => Answer::Rows(oracle.knn_query(at, window, KNN_K)),
        Read::Heatmap { window } => Answer::Counts(oracle.heatmap(grid, window)),
        Read::TopCells { window } => {
            let counts = oracle.heatmap(grid, window);
            let mut ranked: Vec<(u32, u64)> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(TOP_K);
            let cols = grid.cols();
            Answer::Cells(
                ranked
                    .into_iter()
                    .map(|(i, c)| (CellId::new(i % cols, i / cols), c))
                    .collect(),
            )
        }
    })
}

// ---------------------------------------------------------------------
// Single layers, driven on standalone instances
// ---------------------------------------------------------------------

/// A standalone admission gate armed the way `Cluster::launch` arms the
/// cluster's: saturation at one full fan-out per query-plane endpoint.
pub fn admission_new(config: &ClusterConfig) -> AdmissionControl {
    let gate = AdmissionControl::new();
    gate.set_saturation_width(config.workers * config.query_concurrency.max(1));
    gate
}

pub fn admission_register(gate: &AdmissionControl, tenant: TenantId, budget: TenantBudget) {
    gate.register(tenant, budget);
}

/// Admits one query of scatter width `width` and releases it.
pub fn admit(gate: &AdmissionControl, ctx: &QueryCtx, width: usize) -> Result<()> {
    span("admission.admit", || {
        gate.admit(ctx, QueryMode::Strict, width).map(drop)
    })
}

pub fn index_new(config: IndexConfig) -> StIndex {
    StIndex::new(config)
}

pub fn index_insert(index: &mut StIndex, batch: Vec<Observation>) {
    span("index.insert", || index.insert_batch(batch));
}

/// A range read on one index tier; `name` labels the tier the window
/// selects (`index.head_range` or `index.sealed_range`).
pub fn index_range(
    index: &StIndex,
    name: &'static str,
    region: BBox,
    window: TimeInterval,
) -> usize {
    span(name, || {
        std::hint::black_box(index.range(region, window)).len()
    })
}

pub fn index_heatmap(index: &StIndex, grid: &GridSpec, window: TimeInterval) -> u64 {
    span("index.sealed_heatmap", || {
        std::hint::black_box(index.heatmap(grid, window))
            .iter()
            .sum()
    })
}

pub fn index_knn(index: &StIndex, at: Point, window: TimeInterval) -> usize {
    span("index.knn", || {
        std::hint::black_box(index.knn(at, window, KNN_K)).len()
    })
}

pub fn index_read_view(index: &StIndex) -> usize {
    span("index.read_view", || {
        std::hint::black_box(index.read_view()).len()
    })
}

pub fn index_sealed_segments(index: &StIndex) -> usize {
    index.stats().sealed_segments
}

pub fn encode_batch(batch: &[Observation]) -> Vec<u8> {
    span("codec.batch_encode", || {
        let mut buf = Vec::with_capacity(stcam_camnet::batch::batch_size_hint(batch));
        stcam_camnet::batch::encode_batch(batch, &mut buf);
        buf
    })
}

pub fn decode_batch(bytes: &[u8]) -> Vec<Observation> {
    span("codec.batch_decode", || {
        let mut buf = bytes;
        stcam_camnet::batch::decode_batch(&mut buf).expect("a batch this process encoded decodes")
    })
}

pub fn fabric_new(link: LinkModel) -> Fabric {
    Fabric::new(link)
}

pub fn fabric_register(fabric: &Fabric, node: NodeId) -> Endpoint {
    fabric.register(node)
}

pub fn net_call(
    from: &Endpoint,
    to: NodeId,
    payload: Vec<u8>,
    timeout: Duration,
) -> std::result::Result<Vec<u8>, NetError> {
    span("net.call", || from.call(to, payload, timeout))
}

pub fn net_send(
    from: &Endpoint,
    to: NodeId,
    payload: Vec<u8>,
) -> std::result::Result<(), NetError> {
    from.send(to, payload)
}

/// Echoes requests back until one with an empty payload arrives.
pub fn net_echo_until_empty(endpoint: &Endpoint) {
    while let Some(request) = endpoint.recv_timeout(Duration::from_secs(5)) {
        if request.payload.is_empty() {
            return;
        }
        let payload = request.payload.clone();
        if endpoint.reply(&request, payload).is_err() {
            return;
        }
    }
}

pub fn interest_new(extent: BBox) -> InterestIndex {
    InterestIndex::new(extent)
}

pub fn interest_insert(index: &mut InterestIndex, id: ContinuousQueryId, predicate: Predicate) {
    index.insert(id, predicate, NodeId(0));
}

/// Matches one ingest batch; returns the matched observations.
pub fn interest_match(index: &InterestIndex, batch: &[Observation]) -> usize {
    span("continuous.match", || {
        index.matching(batch).iter().map(|(_, _, m)| m.len()).sum()
    })
}

/// Routes one batch to owners; returns how many distinct owners it hit.
pub fn route(map: &PartitionMap, batch: &[Observation]) -> usize {
    span("partition.route", || {
        let mut owners: Vec<NodeId> = batch.iter().map(|o| owner_of(map, o.position)).collect();
        owners.sort_unstable();
        owners.dedup();
        owners.len()
    })
}
