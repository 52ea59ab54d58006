//! Figure 7 — aggregate (heat-map) queries: worker-side partial
//! aggregation vs shipping all matches to the client.
//!
//! Both strategies produce identical bucket counts. Partial aggregation
//! is the cluster's heat-map: each worker ships its occupied buckets'
//! counts, so traffic is (near-)independent of the data volume. Ship-all
//! is composed on the client: a strict full-extent range query pulls
//! every matching observation, which the client buckets itself, so its
//! traffic grows linearly with the data.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig7_aggregate
//! ```

use stcam::Cluster;
use stcam_bench::{
    fmt_count, ingest_chunked, lan_config, launch, square_extent, synthetic_stream, timed,
    window_secs, Table,
};
use stcam_geo::{BBox, GridSpec, TimeInterval};

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;
const REPEATS: usize = 10;

fn main() {
    let extent = square_extent(EXTENT_M);
    println!(
        "Figure 7: heat-map aggregation, partial vs ship-all ({WORKERS} workers, 64×64 buckets)\n"
    );
    let buckets = GridSpec::covering(extent, EXTENT_M / 64.0);
    let window = window_secs(600);
    let mut table = Table::new(&[
        "archive",
        "partial ms",
        "partial KB/q",
        "ship-all ms",
        "ship-all KB/q",
        "traffic ratio",
    ]);

    for archive in [100_000usize, 400_000, 1_600_000] {
        let cluster = launch(lan_config(extent, WORKERS, 0));
        let stream = synthetic_stream(archive, extent, 600, 17);
        ingest_chunked(&cluster, &stream, 2000);

        let before = cluster.fabric_stats();
        let (partial_result, partial_s) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..REPEATS {
                last = cluster.heatmap(&buckets, window).expect("heatmap");
            }
            last
        });
        let mid = cluster.fabric_stats();
        let (shipall_result, shipall_s) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..REPEATS {
                last = ship_all(&cluster, extent, &buckets, window);
            }
            last
        });
        let after = cluster.fabric_stats();
        assert_eq!(partial_result, shipall_result, "strategies disagree");

        let partial_kb = mid.since(&before).total_bytes as f64 / 1024.0 / REPEATS as f64;
        let shipall_kb = after.since(&mid).total_bytes as f64 / 1024.0 / REPEATS as f64;
        table.row(&[
            fmt_count(archive as f64),
            format!("{:.2}", partial_s * 1e3 / REPEATS as f64),
            format!("{partial_kb:.1}"),
            format!("{:.2}", shipall_s * 1e3 / REPEATS as f64),
            format!("{shipall_kb:.1}"),
            format!("{:.0}x", shipall_kb / partial_kb),
        ]);
        cluster.shutdown();
    }
    table.print();
}

/// The ship-all baseline: fetch every observation in `extent` × `window`
/// with a strict range query and bucket them on the client.
fn ship_all(cluster: &Cluster, extent: BBox, buckets: &GridSpec, window: TimeInterval) -> Vec<u64> {
    let rows = cluster.range_query(extent, window).expect("range");
    let mut counts = vec![0u64; buckets.cell_count() as usize];
    for o in &rows {
        let cell = buckets.cell_of_clamped(o.position);
        counts[(cell.row * buckets.cols() + cell.col) as usize] += 1;
    }
    counts
}
