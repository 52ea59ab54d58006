//! Per-layer metrics of the traced phase.
//!
//! Two sources: the counters the program already exports
//! (`Cluster::op_stats`, `Cluster::stats`, `Cluster::fabric_stats`),
//! differenced around the traced phase, and spans around the benchmark's
//! own calls into single layers driven on standalone instances built
//! like the cluster's (an admission gate, a worker-sized `StIndex`, the
//! batch codec, a `Fabric`, an `InterestIndex`, the `PartitionMap`).

use std::collections::HashMap;
use std::time::Duration;

use stcam::{
    ClusterConfig, ClusterStats, OpStats, PartitionMap, Predicate, QueryCtx, TenantBudget, TenantId,
};
use stcam_camnet::Observation;
use stcam_geo::{BBox, GridSpec, Point, TimeInterval};
use stcam_index::StIndex;
use stcam_net::{FabricStats, NodeId};

use crate::api;
use crate::trace::{self, Span};
use crate::{metric, Metric, Phase};

/// Which end-to-end metric each layer metric should move, and on which
/// workload. `BENCHMARK.json` allows no extra keys, so the map lives here
/// and is printed beside the per-layer table.
pub const LAYER_MAP: &[(&str, &str)] = &[
    ("admission.", "*_p50_ms on live; failed"),
    ("plane.", "<op>_p50_ms on live and archive"),
    ("exec.", "<op>_p50_ms / <op>_p95_ms on live and archive"),
    ("paging.", "range_p95_ms on archive"),
    (
        "worker.",
        "read_ops_per_s, peak_rss_mb on archive; ingest_ack_p50_ms on live",
    ),
    ("index.head", "reads on live"),
    ("index.read_view", "reads on live and archive"),
    ("index.knn", "knn_p50_ms on live and archive"),
    ("index.sealed", "range_p50_ms, heatmap_p50_ms on archive"),
    ("codec.", "ingest_ack_p50_ms on live"),
    ("net.", "every p50 on live and archive"),
    ("ingest.", "ingest_ack_p95_ms on live and archive"),
    ("continuous.", "notify_p50_ms on live and archive"),
    ("partition.", "ingest_ack_p50_ms on live"),
    ("trace.", "(tracing overhead)"),
];

/// Executor operations whose telemetry is reported, with the facade read
/// they serve.
const EXEC_OPS: &[(&str, &str)] = &[
    ("range", "range"),
    ("knn_phase1", "knn"),
    ("knn_phase2", "knn"),
    ("heatmap", "heatmap"),
    ("top_cells", "top_cells"),
];

/// A snapshot of the cluster's exported counters.
#[derive(Debug)]
pub struct Counters {
    ops: HashMap<&'static str, OpStats>,
    stats: ClusterStats,
    fabric: FabricStats,
}

pub fn snapshot(cluster: &stcam::Cluster) -> Counters {
    Counters {
        ops: api::op_stats(cluster).into_iter().collect(),
        stats: api::stats(cluster).expect("cluster stats from a healthy cluster"),
        fabric: api::fabric_stats(cluster),
    }
}

impl Counters {
    fn op(&self, name: &str) -> OpStats {
        self.ops.get(name).copied().unwrap_or_default()
    }

    fn busy_micros(&self) -> HashMap<NodeId, u64> {
        self.stats
            .workers
            .iter()
            .map(|(id, s)| (*id, s.busy_micros))
            .collect()
    }

    fn served(&self, op: &str) -> u64 {
        self.stats
            .workers
            .iter()
            .map(|(_, s)| s.served_count(op))
            .sum()
    }
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// `exec.*`, `plane.*` and `paging.*`: executor telemetry per invocation,
/// facade call time from the spans, and the part of the call the
/// executor's scatter and merge do not account for.
pub fn read_layers(before: &Counters, after: &Counters, out: &mut Vec<Metric>) {
    let mut exec_us: HashMap<&str, f64> = HashMap::new();
    for &(op, facade) in EXEC_OPS {
        let d = after.op(op).since(&before.op(op));
        let n = d.invocations;
        out.push(metric(
            format!("exec.{op}.scatter_us"),
            per(d.scatter_micros as f64, n),
            "us",
        ));
        out.push(metric(
            format!("exec.{op}.merge_us"),
            per(d.merge_micros as f64, n),
            "us",
        ));
        out.push(metric(
            format!("exec.{op}.sub_queries"),
            per(d.sub_queries as f64, n),
            "count",
        ));
        out.push(metric(
            format!("exec.{op}.retries"),
            d.retries as f64,
            "count",
        ));
        out.push(metric(
            format!("exec.{op}.bytes_down"),
            per(d.bytes_received as f64, n),
            "B",
        ));
        *exec_us.entry(facade).or_default() += (d.scatter_micros + d.merge_micros) as f64;
    }
    for facade in crate::gen::READ_KINDS {
        let calls = trace::durations_us(&format!("plane.{facade}"));
        out.push(metric(format!("plane.{facade}.call_us"), calls.p50(), "us"));
        let above = per(
            calls.sum() - exec_us.get(facade).copied().unwrap_or(0.0),
            calls.len() as u64,
        );
        out.push(metric(format!("plane.{facade}.above_exec_us"), above, "us"));
    }
    let ranges = after.op("range").since(&before.op("range")).invocations;
    let pages = after.served("fetch_page") - before.served("fetch_page");
    out.push(metric(
        "paging.pages_per_range",
        per(pages as f64, ranges),
        "count",
    ));
}

/// `worker.*`: busy time over the phase, its critical path and skew, and
/// the shard footprint at the end.
pub fn worker_layers(before: &Counters, after: &Counters, out: &mut Vec<Metric>) {
    let start = before.busy_micros();
    let busy: Vec<f64> = after
        .busy_micros()
        .iter()
        .map(|(id, &b)| b.saturating_sub(start.get(id).copied().unwrap_or(0)) as f64 / 1e3)
        .collect();
    let total: f64 = busy.iter().sum();
    let max = busy.iter().copied().fold(0.0, f64::max);
    let mean = total / busy.len().max(1) as f64;
    out.push(metric("worker.busy_ms", total, "ms"));
    out.push(metric("worker.busy_max_ms", max, "ms"));
    out.push(metric(
        "worker.busy_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    ));
    out.push(metric(
        "worker.resident_mb",
        after.stats.resident_bytes() as f64 / 1e6,
        "MB",
    ));
    out.push(metric(
        "worker.sealed_segments",
        after.stats.sealed_segments() as f64,
        "count",
    ));
}

/// `net.*` from the fabric counters, per end-to-end operation, plus the
/// round trip of a standalone fabric with the same link model.
pub fn net_layers(
    before: &Counters,
    after: &Counters,
    ops: u64,
    config: &ClusterConfig,
    out: &mut Vec<Metric>,
) {
    let d = after.fabric.since(&before.fabric);
    out.push(metric(
        "net.msgs_per_op",
        per(d.total_msgs as f64, ops),
        "count",
    ));
    out.push(metric(
        "net.bytes_per_op",
        per(d.total_bytes as f64, ops),
        "B",
    ));
    out.push(metric("net.dropped", d.total_dropped as f64, "count"));
    out.push(metric("net.rtt_us", net_rtt_us(config), "us"));
}

/// Bytes the ingestor node sent per observation over the phase.
pub fn ingest_wire_bytes(
    before: &Counters,
    after: &Counters,
    ingestor: NodeId,
    observations: u64,
) -> f64 {
    let sent = |c: &Counters| c.fabric.per_node.get(&ingestor).map_or(0, |n| n.bytes_sent);
    per(
        sent(after).saturating_sub(sent(before)) as f64,
        observations,
    )
}

/// `continuous.interest_buckets` summed over the workers.
pub fn interest_buckets(after: &Counters) -> f64 {
    after
        .stats
        .workers
        .iter()
        .map(|(_, s)| s.interest_buckets)
        .sum::<u64>() as f64
}

fn net_rtt_us(config: &ClusterConfig) -> f64 {
    const CALLS: usize = 200;
    let fabric = api::fabric_new(config.link);
    let client = api::fabric_register(&fabric, NodeId(1));
    let server = api::fabric_register(&fabric, NodeId(2));
    let mut rtt = crate::stats::Samples::default();
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| api::net_echo_until_empty(&server));
        for _ in 0..CALLS {
            let start = std::time::Instant::now();
            if api::net_call(&client, NodeId(2), vec![0u8; 64], Duration::from_secs(1)).is_ok() {
                rtt.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        let _ = api::net_send(&client, NodeId(2), Vec::new());
        echo.join().expect("echo thread");
    });
    rtt.p50()
}

/// Median duration of the spans named `name`, µs.
fn median_us(name: &str) -> f64 {
    trace::durations_us(name).p50()
}

/// `admission.admit_us`: admits on a standalone gate with the workload
/// tenant's budget, `n` times at the cluster's fan-out width.
pub fn admission_admit_us(config: &ClusterConfig, tenant: TenantId, n: usize) -> f64 {
    let gate = api::admission_new(config);
    api::admission_register(&gate, tenant, TenantBudget::unlimited());
    let ctx = QueryCtx::new(tenant);
    for _ in 0..n {
        api::admit(&gate, &ctx, config.workers).expect("unlimited tenant admits");
    }
    median_us("admission.admit")
}

/// `codec.*` over the workload's ingest batches.
pub fn codec_layers(batches: &[Vec<Observation>], out: &mut Vec<Metric>) {
    let mut bytes = 0usize;
    let mut obs = 0usize;
    for batch in batches {
        let encoded = api::encode_batch(batch);
        bytes += encoded.len();
        obs += batch.len();
        let decoded = api::decode_batch(&encoded);
        assert_eq!(decoded.len(), batch.len(), "batch codec round trip");
    }
    out.push(metric(
        "codec.batch_encode_us",
        median_us("codec.batch_encode"),
        "us",
    ));
    out.push(metric(
        "codec.batch_decode_us",
        median_us("codec.batch_decode"),
        "us",
    ));
    out.push(metric(
        "codec.batch_bytes_per_obs",
        per(bytes as f64, obs as u64),
        "B",
    ));
}

/// `partition.route_us`: owner lookup over one batch.
pub fn partition_route_us(map: &PartitionMap, batches: &[Vec<Observation>]) -> f64 {
    for batch in batches {
        api::route(map, batch);
    }
    median_us("partition.route")
}

/// `continuous.match_us`: `InterestIndex::matching` per batch with the
/// workload's standing queries.
pub fn continuous_match_us(
    predicates: &[(stcam::ContinuousQueryId, Predicate)],
    batches: &[Vec<Observation>],
) -> f64 {
    let mut index = api::interest_new(crate::gen::extent());
    for &(id, p) in predicates {
        api::interest_insert(&mut index, id, p);
    }
    for batch in batches {
        api::interest_match(&index, batch);
    }
    median_us("continuous.match")
}

/// Query shapes replayed on a standalone worker-sized index.
#[derive(Debug, Default)]
pub struct IndexShapes {
    /// Range reads whose window lies in the mutable head.
    pub head_range: Vec<(BBox, TimeInterval)>,
    /// Range reads whose window lies in sealed segments.
    pub sealed_range: Vec<(BBox, TimeInterval)>,
    /// Heat-map windows in sealed segments.
    pub sealed_heatmap: Vec<TimeInterval>,
    pub knn: Vec<(Point, TimeInterval)>,
}

/// A point `worker` owns, whose query box of `radius` stays inside the
/// extent.
pub fn owned_point(
    map: &PartitionMap,
    worker: NodeId,
    radius: f64,
    rng: &mut rand::rngs::StdRng,
) -> Point {
    loop {
        let p = crate::gen::point_inside(rng, radius);
        if api::owner_of(map, p) == worker {
            return p;
        }
    }
}

/// `index.*`: replays `shapes` on `index`, which holds one worker's
/// share of the workload's data under the cluster's `IndexConfig`.
pub fn index_layers(index: &StIndex, shapes: &IndexShapes, grid: &GridSpec, out: &mut Vec<Metric>) {
    for &(region, window) in &shapes.head_range {
        api::index_range(index, "index.head_range", region, window);
    }
    for &(region, window) in &shapes.sealed_range {
        api::index_range(index, "index.sealed_range", region, window);
    }
    for &window in &shapes.sealed_heatmap {
        api::index_heatmap(index, grid, window);
    }
    for &(at, window) in &shapes.knn {
        api::index_knn(index, at, window);
    }
    for _ in 0..shapes.knn.len().max(1) {
        api::index_read_view(index);
    }
    for name in [
        "head_range",
        "sealed_range",
        "sealed_heatmap",
        "knn",
        "read_view",
    ] {
        out.push(metric(
            format!("index.{name}_us"),
            median_us(&format!("index.{name}")),
            "us",
        ));
    }
    out.push(metric(
        "index.sealed_segments",
        api::index_sealed_segments(index) as f64,
        "count",
    ));
}

/// `trace.overhead_*`: how much worse each headline metric read in the
/// traced phase than in the untraced one, percent.
pub fn overhead(plain: &Phase, traced: &Phase) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, higher_is_better) in [
        ("read_ops_per_s", true),
        ("ingest_obs_per_s", true),
        ("range_p50_ms", false),
        ("ingest_ack_p50_ms", false),
    ] {
        let (a, b) = (plain.get(name), traced.get(name));
        let worse = if a <= 0.0 {
            0.0
        } else if higher_is_better {
            (a - b) / a
        } else {
            (b - a) / a
        };
        out.push(metric(
            format!("trace.overhead.{name}_pct"),
            worse * 100.0,
            "%",
        ));
    }
    out
}

pub fn print_overhead(plain: &Phase, traced: &Phase) {
    println!("\ntracing overhead (untraced phase vs traced phase):");
    for m in &plain.metrics {
        let t = traced.get(&m.name);
        println!("  {:<22} {:>12.4} {:>12.4} {}", m.name, m.value, t, m.unit);
    }
}

pub fn print_table(workload: &str, metrics: &[Metric]) {
    println!("\nper-layer metrics ({workload}):");
    for m in metrics {
        let moves = LAYER_MAP
            .iter()
            .find(|(prefix, _)| m.name.starts_with(prefix))
            .map_or("", |(_, e2e)| *e2e);
        println!(
            "  {:<34} {:>14.3} {:<6} -> {}",
            m.name, m.value, m.unit, moves
        );
    }
}

pub fn print_spans(spans: &[Span]) {
    println!("\nspans (count, total ms, self ms):");
    for (name, count, total_us, self_us) in trace::summary(spans) {
        println!(
            "  {name:<26} {count:>8} {:>12.3} {:>12.3}",
            total_us / 1e3,
            self_us / 1e3
        );
    }
}
