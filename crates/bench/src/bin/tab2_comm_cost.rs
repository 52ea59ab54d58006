//! Table 2 — communication cost per operation type.
//!
//! Exact wire accounting for each operation class, on a fixed 8-worker
//! archive, from two independent meters that must agree in shape: the
//! instrumented fabric (every byte that crosses it) and the executor's
//! per-operation telemetry, which additionally splits query traffic into
//! request bytes up and result bytes down.
//!
//! Two regression gates ride on the accounting (skip with
//! `TAB2_NO_ASSERT=1`): the partial-aggregation heat-map must stay at
//! least 10× under the 15.5 MB/op that shipping every row cost before
//! count pushdown, and no single response frame — page pulls included —
//! may exceed the paging bound. Environment knobs for CI smoke runs:
//! `TAB2_ARCHIVE` (default 200000) and `TAB2_OPS` (default 50).
//!
//! ```text
//! cargo run -p stcam-bench --release --bin tab2_comm_cost
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam::exec::LatencyHistogram;
use stcam::{Cluster, Predicate};
use stcam_bench::report::{obj, Report, Value};
use stcam_bench::{
    fmt_count, lan_config, launch, op_stats, square_extent, synthetic_stream, window_secs, Table,
};
use stcam_geo::{BBox, GridSpec, Point};
use stcam_net::FabricStats;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

/// Pre-pushdown heat-map cost (KB/op, r=0: every matching row shipped)
/// recorded in EXPERIMENTS.md — the baseline the ≥ 10× reduction gate
/// measures against.
const SHIP_ALL_BASELINE_KB: f64 = 15.5 * 1024.0;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One measured operation class: fabric msgs/KB per op, (for
/// executor-mediated operations) request/result KB per op, and the
/// operation's latency percentiles.
struct Row {
    label: String,
    msgs: f64,
    kb: f64,
    exec_up_down: Option<(f64, f64)>,
    latency: Option<LatencyHistogram>,
}

fn main() {
    let archive = env_usize("TAB2_ARCHIVE", 200_000);
    let ops_n = env_usize("TAB2_OPS", 50).max(1);
    let gate = std::env::var("TAB2_NO_ASSERT").map_or(true, |v| v != "1");
    let extent = square_extent(EXTENT_M);
    println!(
        "Table 2: communication cost per operation ({WORKERS} workers, {} archive, mean of {ops_n} ops)\n",
        fmt_count(archive as f64)
    );

    let run = |replication: usize| -> (Vec<Row>, u64) {
        let cluster = launch(lan_config(extent, WORKERS, replication));
        let stream = synthetic_stream(archive, extent, 600, 47);
        let mut rows = Vec::new();
        let mut mark = cluster.fabric_stats();
        let mut measure =
            |label: &str, cluster: &Cluster, exec_ops: &[&str], ops: usize, f: &mut dyn FnMut()| {
                let exec_before: Vec<_> = exec_ops
                    .iter()
                    .map(|name| op_stats(cluster, name))
                    .collect();
                f();
                let now = cluster.fabric_stats();
                let delta: FabricStats = now.since(&mark);
                mark = now;
                let mut latency = LatencyHistogram::default();
                let exec_up_down = (!exec_ops.is_empty()).then(|| {
                    let (mut up, mut down) = (0u64, 0u64);
                    for (name, before) in exec_ops.iter().zip(&exec_before) {
                        let d = op_stats(cluster, name).since(before);
                        up += d.bytes_sent;
                        down += d.bytes_received;
                        for (acc, c) in latency.counts.iter_mut().zip(d.latency.counts.iter()) {
                            *acc += c;
                        }
                    }
                    (
                        up as f64 / 1024.0 / ops as f64,
                        down as f64 / 1024.0 / ops as f64,
                    )
                });
                rows.push(Row {
                    label: label.to_string(),
                    msgs: delta.total_msgs as f64 / ops as f64,
                    kb: delta.total_bytes as f64 / 1024.0 / ops as f64,
                    exec_up_down,
                    latency: exec_up_down.is_some().then_some(latency),
                });
            };

        // Ingest routes directly through the endpoint (not the executor),
        // so it has fabric accounting only.
        measure(
            "ingest (batch of 500)",
            &cluster,
            &[],
            (archive / 500).max(1),
            &mut || {
                for chunk in stream.chunks(500) {
                    cluster.ingest(chunk.to_vec()).expect("ingest");
                }
                cluster.flush().expect("flush");
            },
        );

        let window = window_secs(600);
        let mut rng = StdRng::seed_from_u64(3);
        let mut points: Vec<Point> = Vec::new();
        for _ in 0..ops_n {
            points.push(Point::new(
                rng.gen_range(0.0..EXTENT_M),
                rng.gen_range(0.0..EXTENT_M),
            ));
        }
        measure("range 500 m", &cluster, &["range"], ops_n, &mut || {
            for &p in &points {
                cluster
                    .range_query(BBox::around(p, 500.0), window)
                    .expect("range");
            }
        });
        measure(
            "kNN k=16 (pruned)",
            &cluster,
            &["knn_phase1", "knn_phase2"],
            ops_n,
            &mut || {
                for &p in &points {
                    cluster.knn_query(p, window, 16).expect("knn");
                }
            },
        );
        measure(
            "kNN k=16 (broadcast)",
            &cluster,
            &["knn_broadcast"],
            ops_n,
            &mut || {
                for &p in &points {
                    cluster.knn_broadcast(p, window, 16).expect("knn");
                }
            },
        );
        let buckets = GridSpec::covering(extent, EXTENT_M / 64.0);
        measure(
            "heatmap 64×64 (partial)",
            &cluster,
            &["heatmap"],
            ops_n,
            &mut || {
                for _ in 0..ops_n {
                    cluster.heatmap(&buckets, window).expect("heatmap");
                }
            },
        );
        measure(
            "top-cells 64×64 k=16",
            &cluster,
            &["top_cells"],
            ops_n,
            &mut || {
                for _ in 0..ops_n {
                    cluster.top_cells(&buckets, window, 16).expect("top_cells");
                }
            },
        );
        measure(
            "register continuous",
            &cluster,
            &["register_continuous"],
            ops_n,
            &mut || {
                for &p in &points {
                    cluster
                        .register_continuous(Predicate {
                            region: BBox::around(p, 250.0),
                            class: None,
                        })
                        .expect("register");
                }
            },
        );
        let max_response_bytes = cluster.fabric_stats().max_response_bytes;
        cluster.shutdown();
        (rows, max_response_bytes)
    };

    let (r0, max_resp_r0) = run(0);
    let (r2, max_resp_r2) = run(2);
    let mut table = Table::new(&[
        "operation",
        "msgs (r=0)",
        "KB (r=0)",
        "KB up/down (r=0)",
        "p50/p95/p99 ms (r=0)",
        "msgs (r=2)",
        "KB (r=2)",
    ]);
    let up_down = |row: &Row| match row.exec_up_down {
        Some((up, down)) => format!("{up:.1}/{down:.1}"),
        None => "—".to_string(),
    };
    let percentiles = |row: &Row| match &row.latency {
        Some(h) => format!(
            "{:.1}/{:.1}/{:.1}",
            h.p50_micros() as f64 / 1e3,
            h.p95_micros() as f64 / 1e3,
            h.p99_micros() as f64 / 1e3
        ),
        None => "—".to_string(),
    };
    for (a, b) in r0.iter().zip(&r2) {
        table.row(&[
            a.label.clone(),
            format!("{:.1}", a.msgs),
            format!("{:.1}", a.kb),
            up_down(a),
            percentiles(a),
            format!("{:.1}", b.msgs),
            format!("{:.1}", b.kb),
        ]);
    }
    table.print();
    println!(
        "\n(r = replication factor; replication multiplies ingest traffic only.\n\
         KB up/down is the executor's request/result split — fabric totals also\n\
         include ingest routing and replica forwarding)"
    );

    let json_rows = |rows: &[Row]| -> Vec<Value> {
        rows.iter()
            .map(|r| {
                let mut pairs = vec![
                    ("operation", Value::from(r.label.clone())),
                    ("msgs_per_op", Value::from(r.msgs)),
                    ("kb_per_op", Value::from(r.kb)),
                ];
                if let Some((up, down)) = r.exec_up_down {
                    pairs.push(("kb_up_per_op", Value::from(up)));
                    pairs.push(("kb_down_per_op", Value::from(down)));
                }
                if let Some(h) = &r.latency {
                    pairs.push(("p50_us", Value::from(h.p50_micros())));
                    pairs.push(("p95_us", Value::from(h.p95_micros())));
                    pairs.push(("p99_us", Value::from(h.p99_micros())));
                }
                obj(pairs)
            })
            .collect()
    };
    let heatmap_kb = r0
        .iter()
        .find(|r| r.label.starts_with("heatmap"))
        .map(|r| r.kb)
        .expect("heatmap row");
    let max_resp = max_resp_r0.max(max_resp_r2);
    let mut report = Report::new("tab2_comm_cost");
    report
        .set("workers", WORKERS)
        .set("archive", archive)
        .set("ops", ops_n)
        .set("heatmap_partial_kb_per_op", heatmap_kb)
        .set("max_response_bytes", max_resp)
        .set("replication_0", json_rows(&r0))
        .set("replication_2", json_rows(&r2));
    report.emit();

    if gate {
        // Count pushdown must keep the heat-map at least 10× under the
        // pre-pushdown baseline (row shipping: 15.5 MB/op at r=0).
        assert!(
            heatmap_kb <= SHIP_ALL_BASELINE_KB / 10.0,
            "heat-map bytes regression: {heatmap_kb:.1} KB/op (> {:.1} KB)",
            SHIP_ALL_BASELINE_KB / 10.0
        );
        // Paging must bound every response frame, page pulls included.
        assert!(
            max_resp <= stcam::paging::PAGE_MAX_BYTES as u64,
            "a {max_resp}-byte response frame escaped paging"
        );
        println!(
            "comm gates passed: heat-map {heatmap_kb:.1} KB/op (<= {:.1}), \
             max response frame {max_resp} B (<= {})",
            SHIP_ALL_BASELINE_KB / 10.0,
            stcam::paging::PAGE_MAX_BYTES
        );
    }
}
