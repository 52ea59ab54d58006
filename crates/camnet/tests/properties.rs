//! Property-based tests for the camera-network layer.

use proptest::prelude::*;
use stcam_camnet::batch::{encode_batch, split_batch};
use stcam_camnet::{Camera, CameraId, CameraNetwork, Observation, Signature, TransitionModel};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, Duration, Point, Timestamp};
use stcam_world::{EntityClass, EntityId, RoadNetwork};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn camera_sees_implies_within_range_and_bbox(
        cx in -1000.0..1000.0f64, cy in -1000.0..1000.0f64,
        heading in -4.0..4.0f64,
        fov in 0.2..3.0f64,
        range in 10.0..500.0f64,
        px in -2000.0..2000.0f64, py in -2000.0..2000.0f64,
    ) {
        let cam = Camera::new(CameraId(0), Point::new(cx, cy), heading, fov, range);
        let p = Point::new(px, py);
        if cam.sees(p) {
            prop_assert!(cam.position().distance(p) <= range + 1e-9);
            prop_assert!(cam.coverage_bbox().inflated(1e-6).contains(p));
        }
    }

    #[test]
    fn coverage_polygon_is_subset_of_sees(
        heading in -4.0..4.0f64,
        fov in 0.2..3.0f64,
        range in 10.0..500.0f64,
        px in -600.0..600.0f64, py in -600.0..600.0f64,
    ) {
        // The tessellated polygon inscribes the true sector, so polygon
        // containment must imply analytic visibility.
        let cam = Camera::new(CameraId(0), Point::ORIGIN, heading, fov, range);
        let p = Point::new(px, py);
        if cam.coverage().contains(p) {
            prop_assert!(cam.sees(p));
        }
    }

    #[test]
    fn network_coverage_lookup_matches_scan(
        n_cams in 1usize..40,
        seed in any::<u64>(),
        px in -100.0..2100.0f64, py in -100.0..2100.0f64,
    ) {
        let roads = RoadNetwork::grid(
            BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0)),
            200.0,
        );
        let net = CameraNetwork::deploy_on_roads(&roads, n_cams, seed);
        let p = Point::new(px, py);
        let mut via_lookup = net.cameras_covering(p);
        via_lookup.sort();
        let mut via_scan: Vec<CameraId> = net
            .cameras()
            .filter(|c| c.sees(p))
            .map(Camera::id)
            .collect();
        via_scan.sort();
        prop_assert_eq!(via_lookup, via_scan);
    }

    #[test]
    fn transition_windows_monotone_in_distance(
        n_cams in 10usize..60,
        seed in any::<u64>(),
    ) {
        let roads = RoadNetwork::grid(
            BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0)),
            200.0,
        );
        let net = CameraNetwork::deploy_on_roads(&roads, n_cams, seed);
        let model = TransitionModel::from_network(&net, &roads);
        // For any adjacent pair: windows are valid and the upper bound
        // grows with measured distance for a fixed class.
        let mut pairs: Vec<(f64, Duration)> = Vec::new();
        for cam in net.cameras() {
            for &other in net.adjacent(cam.id()) {
                if let (Some(d), Some((min, max))) = (
                    model.distance(cam.id(), other),
                    model.window(cam.id(), other, EntityClass::Car),
                ) {
                    prop_assert!(min <= max);
                    prop_assert!(d > 0.0);
                    pairs.push((d, max));
                }
            }
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "window shrank with distance");
        }
    }

    #[test]
    fn observation_wire_round_trip(
        cam in 0u32..1000,
        seq in 0u64..1_000_000,
        t in 0u64..10_000_000,
        x in -1e5..1e5f64, y in -1e5..1e5f64,
        class in 0u8..4,
        entity in proptest::option::of(0u64..1_000_000),
    ) {
        let obs = Observation {
            id: stcam_camnet::ObservationId::compose(CameraId(cam), seq),
            camera: CameraId(cam),
            time: Timestamp::from_millis(t),
            position: Point::new(x, y),
            class: EntityClass::from_u8(class).expect("class"),
            signature: Signature::latent_for_entity(seq),
            truth: entity.map(EntityId),
        };
        let bytes = encode_to_vec(&obs);
        prop_assert_eq!(decode_from_slice::<Observation>(&bytes).expect("decode"), obs);
    }

    #[test]
    fn batch_split_sizes_match_encoding(
        rows in prop::collection::vec(
            (0u32..3, any::<u64>(), any::<u64>(), any::<bool>(), -1e7..1e7f64,
             any::<bool>(), proptest::option::of(any::<u64>())),
            0..120,
        ),
        max in 1usize..6_000,
    ) {
        // Grid-aligned or arbitrary positions, blank or full signatures,
        // arbitrary id/time/truth deltas: every layout choice the frame
        // makes per batch.
        let rows: Vec<Observation> = rows
            .into_iter()
            .map(|(cam, id, t, aligned, x, blank, truth)| Observation {
                id: stcam_camnet::ObservationId(id),
                camera: CameraId(cam),
                time: Timestamp::from_millis(t),
                position: if aligned {
                    Point::new((x * 4.0).round() / 4.0, 8.5)
                } else {
                    Point::new(x, x / 3.0)
                },
                class: EntityClass::from_u8((id % 4) as u8).expect("class"),
                signature: if blank {
                    Signature::new([0.0; stcam_camnet::SIGNATURE_DIM])
                } else {
                    Signature::latent_for_entity(id)
                },
                truth: truth.map(EntityId),
            })
            .collect();
        let mut covered = 0;
        for (range, len) in split_batch(&rows, max) {
            prop_assert_eq!(range.start, covered);
            covered = range.end;
            let mut frame = Vec::new();
            encode_batch(&rows[range.clone()], &mut frame);
            prop_assert_eq!(frame.len(), len);
            prop_assert!(len <= max || range.len() <= 1);
        }
        prop_assert_eq!(covered, rows.len());
    }

    #[test]
    fn signature_distance_is_a_metric(
        a in 0u64..10_000, b in 0u64..10_000, c in 0u64..10_000,
    ) {
        let sa = Signature::latent_for_entity(a);
        let sb = Signature::latent_for_entity(b);
        let sc = Signature::latent_for_entity(c);
        prop_assert_eq!(sa.distance(&sb), sb.distance(&sa));
        prop_assert!(sa.distance(&sa) == 0.0);
        prop_assert!(sa.distance(&sc) <= sa.distance(&sb) + sb.distance(&sc) + 1e-5);
        if a != b {
            prop_assert!(sa.distance(&sb) > 0.0);
        }
    }
}
