//! The closed-loop read mix of both workloads.

use std::time::Instant;

use stcam::{Cluster, QueryCtx};
use stcam_geo::GridSpec;

use crate::api::{self, Answer};
use crate::gen::{Read, READ_KINDS};
use crate::json::Json;
use crate::stats::Series;
use crate::{metric, Phase};

/// What the reader thread saw.
#[derive(Debug)]
pub struct ReadLog {
    /// Latency per read kind (index as in [`READ_KINDS`]), ms.
    pub latency_ms: [Series; 4],
    /// One sample per successful read, for the read rate.
    pub ok: Series,
    pub attempted: u64,
    pub failed: u64,
    /// Answers kept for the oracle check.
    pub sampled: Vec<(Read, Answer)>,
}

impl ReadLog {
    fn new(start: Instant, seconds: f64) -> ReadLog {
        let series = Series::new(start, seconds);
        ReadLog {
            latency_ms: std::array::from_fn(|_| series.clone()),
            ok: series,
            attempted: 0,
            failed: 0,
            sampled: Vec::new(),
        }
    }

    /// The read metrics of the phase.
    pub fn report(&self, phase: &mut Phase) {
        phase
            .metrics
            .push(metric("read_ops_per_s", self.ok.rate(), "1/s"));
        for (kind, samples) in READ_KINDS.iter().zip(&self.latency_ms) {
            phase
                .metrics
                .push(metric(format!("{kind}_p50_ms"), samples.p50(), "ms"));
            phase
                .metrics
                .push(metric(format!("{kind}_p95_ms"), samples.p95(), "ms"));
            phase
                .notes
                .push((format!("{kind}_samples"), Json::Int(samples.len() as u64)));
        }
        phase.attempted += self.attempted;
        phase.failed += self.failed;
    }
}

/// Issues reads from `next` back to back for the `seconds` from `start`,
/// timing each. Every `sample_every`-th answer of each kind, up to
/// `max_sampled` per kind, is kept for the oracle check.
pub fn closed_loop(
    cluster: &Cluster,
    ctx: Option<&QueryCtx>,
    grid: &GridSpec,
    start: Instant,
    seconds: f64,
    sample_every: u64,
    max_sampled: usize,
    mut next: impl FnMut(u64) -> Read,
) -> ReadLog {
    let end = start + crate::secs(seconds);
    let mut log = ReadLog::new(start, seconds);
    let mut per_kind = [0u64; 4];
    let mut kept = [0usize; 4];
    let mut i = 0u64;
    while Instant::now() < end {
        let read = next(i);
        i += 1;
        let kind = read.kind();
        let start = Instant::now();
        let result = api::read(cluster, ctx, &read, grid);
        let ms = crate::stats::ms_since(start);
        log.attempted += 1;
        match result {
            Ok(answer) => {
                log.latency_ms[kind].push(ms);
                log.ok.push(1.0);
                per_kind[kind] += 1;
                if per_kind[kind] % sample_every == 1 && kept[kind] < max_sampled {
                    kept[kind] += 1;
                    log.sampled.push((read, answer));
                }
            }
            Err(e) => {
                log.failed += 1;
                if log.failed <= 3 {
                    eprintln!("perfbench: {} read failed: {e}", READ_KINDS[kind]);
                }
            }
        }
    }
    log
}

/// How many observations the cluster holds in `window`, summed from a
/// whole-extent heat map (a strict read like any other, with a small
/// answer where a materialising range would carry every row).
pub fn held(cluster: &Cluster, window: stcam_geo::TimeInterval) -> Option<u64> {
    match api::read(
        cluster,
        None,
        &Read::Heatmap { window },
        &crate::gen::heat_grid(),
    ) {
        Ok(Answer::Counts(counts)) => Some(counts.iter().sum()),
        _ => None,
    }
}

/// Compares kept answers with the oracle's. Returns (matched, compared,
/// first mismatch).
pub fn against_oracle(
    sampled: &[(Read, Answer)],
    oracle: &stcam::CentralizedStore,
    grid: &GridSpec,
) -> (usize, usize, Option<String>) {
    let mut matched = 0;
    let mut first = None;
    for (read, answer) in sampled {
        let expected = api::oracle_read(oracle, read, grid);
        if same(answer, &expected) {
            matched += 1;
        } else if first.is_none() {
            first = Some(format!(
                "{read:?}: {} vs oracle {}",
                summary(answer),
                summary(&expected)
            ));
        }
    }
    (matched, sampled.len(), first)
}

/// Range answers are compared as id sets (the facade sorts by id); kNN
/// answers by id in distance order; aggregates exactly.
fn same(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Rows(x), Answer::Rows(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.id == q.id)
        }
        _ => a == b,
    }
}

fn summary(a: &Answer) -> String {
    match a {
        Answer::Rows(rows) => format!("{} rows", rows.len()),
        Answer::Counts(c) => format!("{} total", c.iter().sum::<u64>()),
        Answer::Cells(c) => format!("{c:?}"),
    }
}
