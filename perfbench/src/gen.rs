//! Deterministic inputs: observation streams and query shapes.
//!
//! Everything is derived from the workload seed, so the same seed gives
//! the same inputs, and any batch can be regenerated from its index
//! alone. That lets the benchmark stream inputs in small time-ordered
//! chunks (the generator never holds the whole archive, so peak memory
//! measures the cluster) and rebuild them afterwards for the oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_world::{EntityClass, EntityId};

/// Side of the square deployment extent, metres.
pub const EXTENT_M: f64 = 8_000.0;
/// Heat-map and top-cells bucket edge: a 64 × 64 grid over the extent.
pub const HEAT_BUCKET_M: f64 = EXTENT_M / 64.0;
/// Half-width of a range query box (a 500 m square).
pub const RANGE_RADIUS_M: f64 = 250.0;
pub const KNN_K: usize = 16;
pub const TOP_K: usize = 16;

pub fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(EXTENT_M, EXTENT_M))
}

pub fn heat_grid() -> GridSpec {
    GridSpec::covering(extent(), HEAT_BUCKET_M)
}

pub fn window_ms(start_ms: u64, len_ms: u64) -> TimeInterval {
    TimeInterval::new(
        Timestamp::from_millis(start_ms),
        Timestamp::from_millis(start_ms + len_ms),
    )
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An RNG for one named part of one workload's inputs.
pub fn rng(seed: u64, part: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(part)))
}

/// Snaps a coordinate to the wire codec's 1/1024 m grid, as positions
/// from a pixel-to-world homography would be.
fn mm_grid(v: f64) -> f64 {
    (v * 1024.0).floor() / 1024.0
}

/// Observations `first .. first + n` of a stream: uniform positions over
/// the extent, times spread evenly over `[t0_ms, t0_ms + span_ms)` in
/// index order. Ids are unique per stream index, so no two observations
/// of one run collide in the cluster's idempotent-ingest dedup.
pub fn observations(seed: u64, first: u64, n: usize, t0_ms: u64, span_ms: u64) -> Vec<Observation> {
    let mut rng = rng(seed, first);
    (0..n as u64)
        .map(|j| {
            let g = first + j;
            let camera = CameraId((g % 1024) as u32);
            Observation {
                id: ObservationId::compose(camera, g),
                camera,
                time: Timestamp::from_millis(t0_ms + j * span_ms / n as u64),
                position: Point::new(
                    mm_grid(rng.gen_range(0.0..EXTENT_M)),
                    mm_grid(rng.gen_range(0.0..EXTENT_M)),
                ),
                class: EntityClass::from_u8(rng.gen_range(0..4)).expect("class"),
                signature: Signature::latent_for_entity(rng.gen_range(0..100_000)),
                truth: Some(EntityId(g)),
            }
        })
        .collect()
}

/// The stream index of an observation made by [`observations`].
pub fn stream_index(obs: &Observation) -> u64 {
    obs.id.seq()
}

/// A point whose query box (`radius` around it) stays inside the extent.
pub fn point_inside(rng: &mut StdRng, radius: f64) -> Point {
    Point::new(
        rng.gen_range(radius..EXTENT_M - radius),
        rng.gen_range(radius..EXTENT_M - radius),
    )
}

/// One read of the query mix.
#[derive(Debug, Clone, Copy)]
pub enum Read {
    Range { region: BBox, window: TimeInterval },
    Knn { at: Point, window: TimeInterval },
    Heatmap { window: TimeInterval },
    TopCells { window: TimeInterval },
}

pub const READ_KINDS: [&str; 4] = ["range", "knn", "heatmap", "top_cells"];

impl Read {
    /// Index into [`READ_KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Read::Range { .. } => 0,
            Read::Knn { .. } => 1,
            Read::Heatmap { .. } => 2,
            Read::TopCells { .. } => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_addressable() {
        let a = observations(7, 1000, 50, 5_000, 10);
        let b = observations(7, 1000, 50, 5_000, 10);
        assert_eq!(a, b);
        assert_ne!(a, observations(8, 1000, 50, 5_000, 10));
        assert_eq!(stream_index(&a[3]), 1003);
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(a.iter().all(|o| extent().contains(o.position)));
    }
}
