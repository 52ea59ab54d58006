//! The two workloads: one load shape, two regimes.
//!
//! Both workloads run the same two threads against an 8-worker cluster
//! that set-up has loaded with history and 64 standing queries (150 m
//! boxes). Thread 1 sends acked ingest open-loop through one `Ingestor`,
//! a batch due every 10 ms with event time following the schedule, and
//! polls notifications while it waits for the next due send. Thread 2
//! runs a closed loop of range (250 m), kNN-16, 64 × 64 heat map and
//! top-16 cells. So every workload reports every end-to-end metric; the
//! regimes differ in where the reads land and in what dominates them.
//!
//! - `live`: about 200k observations over 300 s of history, 20k obs/s
//!   of ingest, reads over the trailing 5 s through the admission-gated
//!   `*_ctx` facade for one unlimited tenant. Every read follows a write,
//!   so each rebuilds its snapshot: head scans, admission, ingest
//!   fan-out and continuous dispatch sit on the path.
//! - `archive`: 2M observations over 1800 s of history (nearly all of it
//!   sealed), 5k obs/s of ingest at the head, reads over 600 s windows of
//!   the sealed past (kNN over 60 s) through the plain facade.
//!   Sealed-segment decode, footer answers and paging dominate the reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::Rng;
use stcam::{
    Cluster, ClusterConfig, ContinuousQueryId, Ingestor, Predicate, QueryCtx, TenantBudget,
    TenantId,
};
use stcam_camnet::Observation;
use stcam_geo::{BBox, TimeInterval};

use crate::api::{self, Answer};
use crate::gen::{self, Read};
use crate::json::Json;
use crate::layers::{self, IndexShapes};
use crate::reads::{self, ReadLog};
use crate::stats::{Samples, Series, BLOCK_S};
use crate::{check, metric, Args, Metric, Outcome, Phase};

const WORKERS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const REPLICATION: usize = 1;
const CHUNK_SECS: u64 = 10;
const LOAD_BATCH: usize = 5_000;
const STANDING_QUERIES: usize = 64;
/// Half-width of a standing query's box (150 m squares).
const STANDING_RADIUS_M: f64 = 75.0;
const PERIOD_MS: u64 = 10;
/// Stream index of the first ingested observation (history sits below).
const LIVE_BASE: u64 = 1_000_000_000;
const TENANT: TenantId = TenantId(7);

/// Rng streams of the workload's inputs.
const PART_HISTORY: u64 = 1;
const PART_LIVE: u64 = 2;
const PART_STANDING: u64 = 3;
const PART_READS: u64 = 10;

/// Where the reads land.
#[derive(Debug, Clone, Copy)]
enum Windows {
    /// The trailing `ms` of event time, ending at the acked frontier.
    Trailing { ms: u64 },
    /// Random windows of the history: `secs` long, `knn_secs` for kNN.
    Deep { secs: u64, knn_secs: u64 },
}

/// What sets one workload apart from the other.
#[derive(Debug)]
pub struct Regime {
    history_secs: u64,
    /// Observations per 10 s chunk of the sparse history.
    history_per_chunk: u64,
    /// Newest history chunks loaded at the ingest rate, so a trailing
    /// read window is as full at the first read as at the last.
    dense_chunks: u64,
    /// Observations per ingest batch (one batch every 10 ms).
    batch: usize,
    windows: Windows,
    /// Reads go through the admission-gated `*_ctx` facade.
    gated: bool,
    /// Every `sample_every`-th answer of each read kind, up to
    /// `max_sampled` per kind, is checked against the oracle.
    sample_every: u64,
    max_sampled: usize,
}

pub const LIVE: Regime = Regime {
    history_secs: 300,
    history_per_chunk: 6_897,
    dense_chunks: 1,
    batch: 200,
    windows: Windows::Trailing { ms: 5_000 },
    gated: true,
    sample_every: 20,
    max_sampled: 8,
};

pub const ARCHIVE: Regime = Regime {
    history_secs: 1_800,
    history_per_chunk: 11_112,
    dense_chunks: 0,
    batch: 50,
    windows: Windows::Deep {
        secs: 600,
        knn_secs: 60,
    },
    gated: false,
    sample_every: 25,
    max_sampled: 5,
};

impl Regime {
    /// Reads are served on each worker's control lane, in order with its
    /// ingest (read pool off). With the default pool of four read threads
    /// per worker, 40 threads share the two cores this benchmark is sized
    /// for. Over ten 30 s runs of `live` the spread (interquartile range
    /// over median) of every p95 was then 0.29 to 0.96, against 0.11 to
    /// 0.17 for the read p95s with the pool off; over five runs of
    /// `archive`, the largest spread was 0.15 with the pool and 0.07
    /// without.
    fn config(&self) -> ClusterConfig {
        ClusterConfig::new(gen::extent(), WORKERS)
            .with_replication(REPLICATION)
            .with_read_concurrency(0)
    }

    fn chunks(&self) -> u64 {
        self.history_secs / CHUNK_SECS
    }

    /// Observations per 10 s at the ingest rate.
    fn dense_per_chunk(&self) -> u64 {
        CHUNK_SECS * 1000 / PERIOD_MS * self.batch as u64
    }

    /// (first stream index, size) of history chunk `c`.
    fn layout(&self, c: u64) -> (u64, u64) {
        let sparse = self.chunks() - self.dense_chunks;
        if c < sparse {
            (c * self.history_per_chunk, self.history_per_chunk)
        } else {
            let dense = self.dense_per_chunk();
            (
                sparse * self.history_per_chunk + (c - sparse) * dense,
                dense,
            )
        }
    }

    fn history_total(&self) -> u64 {
        let (first, n) = self.layout(self.chunks() - 1);
        first + n
    }

    /// History chunk `c`: `[10c s, 10(c+1) s)`. History is made and loaded
    /// one time-ordered chunk at a time, so the generator never holds
    /// more than one chunk and `peak_rss_mb` measures the cluster.
    fn history_chunk(&self, seed: u64, c: u64) -> Vec<Observation> {
        let (first, n) = self.layout(c);
        gen::observations(
            seed ^ PART_HISTORY,
            first,
            n as usize,
            c * CHUNK_SECS * 1000,
            CHUNK_SECS * 1000,
        )
    }

    /// Ingest batch `k`: event times `[history + 10k ms, history + 10(k+1) ms)`.
    fn live_batch(&self, seed: u64, k: u64) -> Vec<Observation> {
        gen::observations(
            seed ^ PART_LIVE,
            LIVE_BASE + k * self.batch as u64,
            self.batch,
            self.event_ms(k),
            PERIOD_MS,
        )
    }

    /// Event time at which ingest batch `k` starts.
    fn event_ms(&self, k: u64) -> u64 {
        self.history_secs * 1000 + k * PERIOD_MS
    }

    /// The window of a read of `kind` (index into `READ_KINDS`) issued
    /// when every observation before `now_ms` is acked.
    fn window(&self, kind: usize, rng: &mut rand::rngs::StdRng, now_ms: u64) -> TimeInterval {
        match self.windows {
            Windows::Trailing { ms } => gen::window_ms(now_ms - ms, ms),
            Windows::Deep { secs, knn_secs } => {
                let len = if kind == 1 { knn_secs } else { secs };
                let start = rng.gen_range(0..=self.history_secs - len);
                gen::window_ms(start * 1000, len * 1000)
            }
        }
    }

    /// Read `i` of the closed loop.
    fn next_read(&self, rng: &mut rand::rngs::StdRng, i: u64, now_ms: u64) -> Read {
        let kind = (i % 4) as usize;
        let window = self.window(kind, rng, now_ms);
        match kind {
            0 => Read::Range {
                region: BBox::around(
                    gen::point_inside(rng, gen::RANGE_RADIUS_M),
                    gen::RANGE_RADIUS_M,
                ),
                window,
            },
            1 => Read::Knn {
                at: gen::point_inside(rng, 0.0),
                window,
            },
            2 => Read::Heatmap { window },
            _ => Read::TopCells { window },
        }
    }
}

struct State {
    cluster: Cluster,
    writer: Ingestor,
    predicates: Vec<(ContinuousQueryId, Predicate)>,
    /// Due time of every ingest batch sent, by batch number.
    dues: Vec<Instant>,
    /// (standing query, observation) pairs notified so far.
    notified: Vec<(u64, u64)>,
    sampled: Vec<(Read, Answer)>,
    acked_inline: u64,
    setup_failures: u64,
}

fn setup(regime: &Regime, seed: u64) -> State {
    let cluster = api::launch(regime.config());
    let loader = api::create_ingestor(&cluster);
    let mut setup_failures = 0;
    for c in 0..regime.chunks() {
        for batch in regime.history_chunk(seed, c).chunks(LOAD_BATCH) {
            match api::ingest(&loader, batch.to_vec()) {
                Ok(n) if n == batch.len() => {}
                _ => setup_failures += 1,
            }
        }
    }
    if api::ingest_flush(&loader).is_err() {
        setup_failures += 1;
    }
    let mut rng = gen::rng(seed, PART_STANDING);
    let mut predicates = Vec::with_capacity(STANDING_QUERIES);
    for _ in 0..STANDING_QUERIES {
        let predicate = Predicate {
            region: BBox::around(
                gen::point_inside(&mut rng, STANDING_RADIUS_M),
                STANDING_RADIUS_M,
            ),
            class: None,
        };
        match api::register_continuous(&cluster, predicate) {
            Ok(id) => predicates.push((id, predicate)),
            Err(_) => setup_failures += 1,
        }
    }
    api::register_tenant(&cluster, TENANT, TenantBudget::unlimited());
    let writer = api::create_ingestor(&cluster);
    State {
        cluster,
        writer,
        predicates,
        dues: Vec::new(),
        notified: Vec::new(),
        sampled: Vec::new(),
        acked_inline: 0,
        setup_failures,
    }
}

/// Records notifications received at `now`, and the latency of each
/// match from the due time of the batch that carried it.
fn record(
    batch: usize,
    dues: &[Instant],
    notified: &mut Vec<(u64, u64)>,
    notes: Vec<stcam::Notification>,
    now: Instant,
    notify_ms: &mut Series,
) {
    for note in notes {
        for m in &note.matches {
            let index = gen::stream_index(m);
            if let Some(k) = index
                .checked_sub(LIVE_BASE)
                .map(|i| (i / batch as u64) as usize)
            {
                if let Some(&due) = dues.get(k) {
                    let ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                    notify_ms.push_at(now, ms);
                }
            }
            notified.push((note.query.0, m.id.0));
        }
    }
}

/// One measured phase of `seconds`; phase `p` draws its own read shapes.
fn measure(regime: &Regime, state: &mut State, seed: u64, p: u64, seconds: f64) -> Phase {
    let grid = gen::heat_grid();
    let ctx = QueryCtx::new(TENANT);
    let ctx = regime.gated.then_some(&ctx);
    let start = Instant::now();
    let end = start + crate::secs(seconds);
    let k0 = state.dues.len() as u64;
    let event_now = AtomicU64::new(regime.event_ms(k0));
    let mut ack_ms = Series::new(start, seconds);
    let mut late_ms = Samples::default();
    let mut notify_ms = ack_ms.clone();
    let (mut attempted, mut failed, mut acked) = (0u64, 0u64, 0u64);
    let State {
        cluster,
        writer,
        dues,
        notified,
        ..
    } = state;
    let cluster = &*cluster;
    let log: ReadLog = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rng = gen::rng(seed, PART_READS + p);
            reads::closed_loop(
                cluster,
                ctx,
                &grid,
                start,
                seconds,
                regime.sample_every,
                regime.max_sampled,
                |i| regime.next_read(&mut rng, i, event_now.load(Ordering::Acquire)),
            )
        });
        let mut k = k0;
        let mut batch = regime.live_batch(seed, k);
        loop {
            let due = start + Duration::from_millis((k - k0) * PERIOD_MS);
            if due >= end {
                break;
            }
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let notes = api::poll_notifications(cluster, due - now);
                record(
                    regime.batch,
                    dues,
                    notified,
                    notes,
                    Instant::now(),
                    &mut notify_ms,
                );
            }
            late_ms.push(crate::stats::ms_since(due));
            dues.push(due);
            let n = batch.len();
            attempted += 1;
            match api::ingest(writer, batch) {
                Ok(a) => {
                    acked += a as u64;
                    failed += u64::from(a < n);
                }
                Err(_) => failed += 1,
            }
            ack_ms.push(crate::stats::ms_since(due));
            // Every observation before the new event time is acked now, so
            // a strict read over a window ending there has one right answer.
            event_now.store(regime.event_ms(k + 1), Ordering::Release);
            k += 1;
            batch = regime.live_batch(seed, k);
        }
        reader.join().expect("reader thread")
    });
    let elapsed = start.elapsed().as_secs_f64();
    state.acked_inline += acked;
    let mut phase = Phase::default();
    log.report(&mut phase);
    state.sampled.extend(log.sampled);
    phase.attempted += attempted;
    phase.failed += failed;
    phase.metrics.extend([
        metric("ingest_ack_p50_ms", ack_ms.p50(), "ms"),
        metric("ingest_ack_p95_ms", ack_ms.p95(), "ms"),
        metric("ingest_obs_per_s", acked as f64 / elapsed, "1/s"),
        metric("notify_p50_ms", notify_ms.p50(), "ms"),
        metric("notify_p95_ms", notify_ms.p95(), "ms"),
    ]);
    phase.notes.extend([
        (
            "ingest_ack_samples".to_string(),
            Json::Int(ack_ms.len() as u64),
        ),
        (
            "notify_samples".to_string(),
            Json::Int(notify_ms.len() as u64),
        ),
        (
            "generator_late_max_ms".to_string(),
            Json::Num(late_ms.max()),
        ),
        (
            "generator_late_p95_ms".to_string(),
            Json::Num(late_ms.p95()),
        ),
        (
            "offered_obs_per_s".to_string(),
            Json::Num((1000 / PERIOD_MS * regime.batch as u64) as f64),
        ),
    ]);
    phase
}

pub fn run(regime: &Regime, args: &Args) -> Outcome {
    let seed = args.seed;
    let (mut state, first_setup) = crate::timed(|| setup(regime, seed));
    let mut out = Outcome {
        setup_samples: vec![first_setup],
        ..Outcome::default()
    };
    if args.trace {
        out.plain = measure(regime, &mut state, seed, 0, args.seconds / 2.0);
        crate::trace::set_recording(true);
        let before = layers::snapshot(&state.cluster);
        let usage_before = api::tenant_usage(&state.cluster, TENANT);
        let k_before = state.dues.len() as u64;
        let notified_before = state.notified.len();
        let traced = measure(regime, &mut state, seed, 1, args.seconds / 2.0);
        out.peak_rss_mb = crate::peak_rss_mb();
        let after = layers::snapshot(&state.cluster);
        let batches: Vec<Vec<Observation>> = (k_before..state.dues.len() as u64)
            .take(200)
            .map(|k| regime.live_batch(seed, k))
            .collect();
        let mut m = layer_metrics(regime, &state, &traced, &before, &after, &batches);
        let usage = api::tenant_usage(&state.cluster, TENANT);
        m.push(metric(
            "admission.shed",
            (usage.shed - usage_before.shed) as f64,
            "count",
        ));
        m.push(metric(
            "admission.rejected",
            (usage.rejected - usage_before.rejected) as f64,
            "count",
        ));
        m.push(metric(
            "continuous.notifications",
            (state.notified.len() - notified_before) as f64,
            "count",
        ));
        m.push(metric(
            "ingest.wire_bytes_per_obs",
            layers::ingest_wire_bytes(
                &before,
                &after,
                api::ingestor_id(&state.writer),
                (state.dues.len() as u64 - k_before) * regime.batch as u64,
            ),
            "B",
        ));
        m.push(metric(
            "ingest.parked",
            api::ingest_pending(&state.writer) as f64,
            "count",
        ));
        let flush_start = Instant::now();
        let flushed = api::ingest_flush(&state.writer);
        m.push(metric(
            "ingest.flush_ms",
            crate::stats::ms_since(flush_start),
            "ms",
        ));
        m.extend(index_metrics(regime, &state, seed));
        crate::trace::set_recording(false);
        out.checks.push(check(
            "final_flush",
            flushed.is_ok(),
            format!("{flushed:?}"),
        ));
        out.traced = Some((traced, m));
    } else {
        out.plain = measure(regime, &mut state, seed, 0, args.seconds);
        out.peak_rss_mb = crate::peak_rss_mb();
        let flushed = api::ingest_flush(&state.writer);
        out.checks.push(check(
            "final_flush",
            flushed.is_ok(),
            format!("{flushed:?}"),
        ));
    }
    checks(regime, state, seed, &mut out);
    out.setup_samples.extend(crate::more_setups(
        SETUPS - 1,
        || setup(regime, seed),
        |old| api::shutdown(old.cluster),
    ));
    out
}

fn layer_metrics(
    regime: &Regime,
    state: &State,
    traced: &Phase,
    before: &layers::Counters,
    after: &layers::Counters,
    batches: &[Vec<Observation>],
) -> Vec<Metric> {
    let config = regime.config();
    let mut m = Vec::new();
    layers::read_layers(before, after, &mut m);
    let reads: usize = ["range", "knn", "heatmap", "top_cells"]
        .iter()
        .map(|k| crate::trace::durations_us(&format!("plane.{k}")).len())
        .sum();
    m.push(metric(
        "ingest.call_us",
        crate::trace::durations_us("ingest.call").p50(),
        "us",
    ));
    m.push(metric(
        "admission.admit_us",
        layers::admission_admit_us(&config, TENANT, reads.clamp(1, 20_000)),
        "us",
    ));
    layers::worker_layers(before, after, &mut m);
    layers::net_layers(before, after, traced.attempted, &config, &mut m);
    layers::codec_layers(batches, &mut m);
    m.push(metric(
        "continuous.match_us",
        layers::continuous_match_us(&state.predicates, batches),
        "us",
    ));
    m.push(metric(
        "continuous.interest_buckets",
        layers::interest_buckets(after),
        "count",
    ));
    m.push(metric(
        "partition.route_us",
        layers::partition_route_us(&api::partition(&state.cluster), batches),
        "us",
    ));
    m
}

/// `index.*` on a standalone index holding worker 1's share of the
/// history and the ingest stream sent so far, replaying the workload's
/// read shapes moved to points that worker owns.
fn index_metrics(regime: &Regime, state: &State, seed: u64) -> Vec<Metric> {
    let map = api::partition(&state.cluster);
    let worker = map.workers()[0];
    let mut index = api::index_new(api::index_config(&regime.config()));
    let mine = |batch: Vec<Observation>| -> Vec<Observation> {
        batch
            .into_iter()
            .filter(|o| api::owner_of(&map, o.position) == worker)
            .collect()
    };
    for c in 0..regime.chunks() {
        api::index_insert(&mut index, mine(regime.history_chunk(seed, c)));
    }
    let sent = state.dues.len() as u64;
    for k in 0..sent {
        api::index_insert(&mut index, mine(regime.live_batch(seed, k)));
    }
    let mut rng = gen::rng(seed, PART_READS + 99);
    let now = regime.event_ms(sent);
    // The head keeps the two newest 10 s slices; older slices are sealed.
    let head = gen::window_ms(now - 2_500, 2_500);
    let sealed = |rng: &mut rand::rngs::StdRng| match regime.windows {
        Windows::Trailing { ms } => gen::window_ms(100_000, ms),
        Windows::Deep { .. } => regime.window(0, rng, now),
    };
    let mut shapes = IndexShapes::default();
    for i in 0..50 {
        let region = BBox::around(
            layers::owned_point(&map, worker, gen::RANGE_RADIUS_M, &mut rng),
            gen::RANGE_RADIUS_M,
        );
        shapes.head_range.push((region, head));
        shapes.sealed_range.push((region, sealed(&mut rng)));
        let at = layers::owned_point(&map, worker, 0.0, &mut rng);
        shapes.knn.push((at, regime.window(1, &mut rng, now)));
        if i < 20 {
            shapes.sealed_heatmap.push(sealed(&mut rng));
        }
    }
    let mut m = Vec::new();
    layers::index_layers(&index, &shapes, &gen::heat_grid(), &mut m);
    m
}

fn checks(regime: &Regime, mut state: State, seed: u64, out: &mut Outcome) {
    // Drain notifications still in flight after the final flush.
    loop {
        let notes = api::poll_notifications(&state.cluster, Duration::from_millis(300));
        if notes.is_empty() {
            break;
        }
        let mut ignored = Series::new(Instant::now(), BLOCK_S);
        record(
            regime.batch,
            &state.dues,
            &mut state.notified,
            notes,
            Instant::now(),
            &mut ignored,
        );
    }
    let sent = state.dues.len() as u64;
    let history = regime.history_total();
    let live_obs = sent * regime.batch as u64;
    out.checks.push(check(
        "setup_ingest",
        state.setup_failures == 0,
        format!("{} set-up operations failed", state.setup_failures),
    ));
    let everything = gen::window_ms(0, regime.event_ms(sent) + 1);
    let held = reads::held(&state.cluster, everything);
    out.checks.push(check(
        "zero_acked_loss",
        held == Some(history + live_obs) && state.acked_inline <= live_obs,
        format!(
            "held {held:?} of {history} history + {live_obs} ingested ({} acked inline)",
            state.acked_inline
        ),
    ));
    // Free the cluster before building the oracle.
    api::shutdown(state.cluster);

    let mut oracle = api::oracle_new(api::index_config(&regime.config()));
    let mut expected: Vec<(u64, u64)> = Vec::new();
    for c in 0..regime.chunks() {
        api::oracle_ingest(&mut oracle, regime.history_chunk(seed, c));
    }
    for k in 0..sent {
        let batch = regime.live_batch(seed, k);
        for o in &batch {
            for (id, p) in &state.predicates {
                if api::predicate_matches(p, o) {
                    expected.push((id.0, o.id.0));
                }
            }
        }
        api::oracle_ingest(&mut oracle, batch);
    }
    let (matched, compared, first) =
        reads::against_oracle(&state.sampled, &oracle, &gen::heat_grid());
    out.checks.push(check(
        "reads_equal_oracle",
        compared > 0 && matched == compared,
        format!(
            "{matched}/{compared} sampled reads match{}",
            first
                .map(|f| format!("; first mismatch {f}"))
                .unwrap_or_default()
        ),
    ));

    expected.sort_unstable();
    state.notified.sort_unstable();
    let duplicates = state.notified.windows(2).filter(|w| w[0] == w[1]).count();
    out.checks.push(check(
        "notified_exactly_once",
        expected == state.notified,
        format!(
            "{} notified for {} expected matches ({duplicates} duplicates)",
            state.notified.len(),
            expected.len()
        ),
    ));
}
