//! Property-based tests for the framework's pure components: the wire
//! protocol never panics on hostile bytes and round-trips every message;
//! the partition map upholds its invariants for arbitrary geometry, ring
//! sizes and load profiles.

use proptest::prelude::*;
use stcam::{
    CensusRegistration, CensusReport, DigestEntry, DigestReport, GridSpecMsg, PartitionMap,
    Predicate, ReplicaDigestEntry, Request, Response, SegmentDigestEntry, WorkerStatsMsg,
};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, Point, TimeInterval, Timestamp};
use stcam_net::NodeId;
use stcam_world::{EntityClass, EntityId};

fn arb_region() -> impl Strategy<Value = BBox> {
    (
        0.0..4000.0f64,
        0.0..4000.0f64,
        1.0..2000.0f64,
        1.0..2000.0f64,
    )
        .prop_map(|(x, y, w, h)| BBox::new(Point::new(x, y), Point::new(x + w, y + h)))
}

fn arb_window() -> impl Strategy<Value = TimeInterval> {
    (0u64..100_000, 0u64..100_000).prop_map(|(a, d)| {
        TimeInterval::new(Timestamp::from_millis(a), Timestamp::from_millis(a + d))
    })
}

fn arb_observation() -> impl Strategy<Value = Observation> {
    (
        0u32..1_000,
        0u64..1_000_000,
        0u64..100_000,
        0.0..4000.0f64,
        0.0..4000.0f64,
        0u8..4,
        proptest::option::of(0u64..1_000_000),
    )
        .prop_map(|(cam, seq, t, x, y, class, truth)| Observation {
            id: ObservationId::compose(CameraId(cam), seq),
            camera: CameraId(cam),
            time: Timestamp::from_millis(t),
            position: Point::new(x, y),
            class: EntityClass::from_u8(class).expect("class"),
            signature: Signature::latent_for_entity(seq),
            truth: truth.map(EntityId),
        })
}

fn arb_buckets() -> impl Strategy<Value = GridSpecMsg> {
    (
        0.0..1000.0f64,
        0.0..1000.0f64,
        1.0..500.0f64,
        1u32..64,
        1u32..64,
    )
        .prop_map(|(x, y, cell_size, cols, rows)| GridSpecMsg {
            origin: Point::new(x, y),
            cell_size,
            cols,
            rows,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn protocol_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_from_slice::<Request>(&bytes);
        let _ = decode_from_slice::<Response>(&bytes);
        let _ = decode_from_slice::<stcam::Notification>(&bytes);
    }

    #[test]
    fn protocol_truncation_never_panics(region in arb_region(), window in arb_window(), cut in any::<prop::sample::Index>()) {
        // Every prefix of a valid message either fails cleanly or (never)
        // succeeds as a different value; it must not panic.
        let bytes = encode_to_vec(&Request::Range { region, window, limit: 0, projection: 0 });
        let cut = cut.index(bytes.len() + 1).min(bytes.len());
        let _ = decode_from_slice::<Request>(&bytes[..cut]);
    }

    #[test]
    fn requests_round_trip(
        region in arb_region(),
        window in arb_window(),
        buckets in arb_buckets(),
        batch in prop::collection::vec(arb_observation(), 0..8),
        k in 0u32..1000,
        class in 0u8..4,
        node in 0u32..100,
        cutoff in 0u64..1_000_000,
        max_distance in proptest::option::of(0.0..10_000.0f64),
        seq in any::<u64>(),
        epoch in any::<u64>(),
        cells in prop::collection::vec(0u32..4096, 0..32),
        limit in any::<u32>(),
        projection in 0u8..2,
    ) {
        let class_enum = EntityClass::from_u8(class).expect("class");
        // Every Request variant the protocol defines.
        let requests = [
            Request::Ping,
            Request::IngestSeq { sender: NodeId(node), seq, epoch, batch: batch.clone() },
            Request::ReplicateSeq { sender: NodeId(node), seq, primary: NodeId(node), batch: batch.clone() },
            Request::RouteUpdate { epoch, grid: buckets, cells: cells.clone() },
            Request::Range { region, window, limit, projection },
            Request::Knn { at: region.center(), window, k, max_distance },
            Request::Heatmap { buckets, window },
            Request::RegisterContinuous {
                id: stcam::ContinuousQueryId(k as u64),
                predicate: Predicate { region, class: Some(class_enum) },
                notify: NodeId(node),
            },
            Request::UnregisterContinuous(stcam::ContinuousQueryId(k as u64)),
            Request::Stats,
            Request::EvictBefore { cutoff: Timestamp::from_millis(cutoff), epoch },
            Request::Promote { failed: NodeId(node), epoch },
            Request::ExtractRegion { region },
            Request::RangeFiltered { region, window, class, limit, projection },
            Request::TopCells { buckets, window },
            Request::ReplicaRead {
                of: NodeId(node),
                inner: Box::new(Request::Range { region, window, limit, projection }),
            },
            Request::CellDigest { grid: buckets },
            Request::Repair {
                primary: NodeId(node),
                grid: buckets,
                cell: k,
                truncate: k % 2 == 0,
                batch: batch.clone(),
            },
            Request::Rejoin { epoch, grid: buckets, cells },
            Request::SegmentDigest,
            Request::ExportSegments {
                region,
                skip: vec![SegmentDigestEntry { number: seq, count: k as u64, checksum: epoch }],
            },
            Request::InstallSegments { frames: vec![], head: batch.clone() },
            Request::FetchPage { cursor: seq, page: k },
            Request::Census,
        ];
        // Each round-trips exactly, and dispatch names stay unique.
        let mut names = std::collections::HashSet::new();
        for request in requests {
            let bytes = encode_to_vec(&request);
            prop_assert!(names.insert(request.op_name()), "duplicate op name {}", request.op_name());
            prop_assert_eq!(decode_from_slice::<Request>(&bytes).unwrap(), request);
        }
        prop_assert_eq!(names.len(), 24);
    }

    #[test]
    fn responses_round_trip(
        batch in prop::collection::vec(arb_observation(), 0..8),
        counts in prop::collection::vec(0u64..1_000_000, 0..64),
        cells in prop::collection::vec((0u32..4096, 0u64..1_000_000), 0..32),
        served in prop::collection::vec(("[a-z_]{1,20}", 0u64..1_000), 0..6),
        scalars in prop::collection::vec(0u64..1_000_000, 9),
        newest in proptest::option::of(0u64..1_000_000),
        error in "[ -~]{0,64}",
        seq in any::<u64>(),
        epoch in any::<u64>(),
        accepted in any::<u32>(),
        pages in 1u32..64,
        page_kind in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        buckets in arb_buckets(),
        region in arb_region(),
    ) {
        let stats = WorkerStatsMsg {
            primary_observations: scalars[0],
            replica_observations: scalars[1],
            ingested_total: scalars[2],
            notifications_sent: scalars[3],
            continuous_queries: scalars[4],
            interest_buckets: scalars[8],
            busy_micros: scalars[5],
            resident_bytes: scalars[6],
            sealed_segments: scalars[7],
            newest_ms: newest,
            served,
        };
        // Every Response variant the protocol defines.
        let misrouted: Vec<ObservationId> = batch.iter().map(|o| o.id).collect();
        let digests = DigestReport {
            primary: cells
                .iter()
                .map(|&(cell, checksum)| DigestEntry {
                    cell,
                    count: cell,
                    checksum,
                })
                .collect(),
            replicas: cells
                .iter()
                .map(|&(cell, checksum)| ReplicaDigestEntry {
                    primary: NodeId(cell),
                    cell,
                    count: cell,
                    checksum,
                })
                .collect(),
        };
        let responses = [
            Response::Ack,
            Response::Observations(batch),
            Response::Counts(counts),
            Response::Stats(stats),
            Response::Error(error),
            Response::CellCounts(cells.clone()),
            Response::IngestAck { seq, accepted },
            Response::IngestNack { seq, accepted, epoch, misrouted },
            Response::Digests(digests),
            Response::SegmentDigests(
                cells
                    .iter()
                    .map(|&(cell, checksum)| SegmentDigestEntry {
                        number: cell as u64,
                        count: cell as u64,
                        checksum,
                    })
                    .collect(),
            ),
            Response::Segments { frames: vec![], head: vec![] },
            Response::ResultPage {
                cursor: seq,
                page: accepted % pages,
                pages,
                kind: page_kind,
                payload,
            },
            Response::Census(CensusReport::default()),
            Response::Census(CensusReport {
                epoch,
                grid: Some(buckets),
                cells: cells.iter().map(|&(cell, _)| cell).collect(),
                replica_of: cells.iter().map(|&(cell, _)| NodeId(cell)).collect(),
                registrations: vec![CensusRegistration {
                    id: stcam::ContinuousQueryId(seq),
                    predicate: Predicate { region, class: None },
                    notify: NodeId(accepted),
                }],
            }),
        ];
        for response in responses {
            let bytes = encode_to_vec(&response);
            prop_assert_eq!(decode_from_slice::<Response>(&bytes).unwrap(), response);
        }
    }

    #[test]
    fn partition_ownership_is_total_and_consistent(
        side in 400.0..10_000.0f64,
        cell in 50.0..2_000.0f64,
        n_workers in 1usize..24,
        px in -2_000.0..12_000.0f64,
        py in -2_000.0..12_000.0f64,
    ) {
        prop_assume!(side / cell >= 1.0);
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(side, side));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, cell, workers.clone());
        // Every point (even far outside) routes to a member.
        let owner = map.owner_of(Point::new(px, py));
        prop_assert!(workers.contains(&owner));
        // Cells partition exactly: each cell owned once, union = all.
        let total: usize = workers.iter().map(|&w| map.cells_of(w).len()).sum();
        prop_assert_eq!(total as u64, map.grid().cell_count());
    }

    #[test]
    fn partition_load_aware_never_starves_and_beats_worst_case(
        n_workers in 2usize..12,
        loads in prop::collection::vec(0u64..10_000, 64),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(800.0, 800.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::load_aware(extent, 100.0, workers.clone(), &loads);
        for &w in &workers {
            prop_assert!(!map.cells_of(w).is_empty(), "worker {} starved", w);
        }
        // The imbalance can never be worse than "all load on one worker".
        let imbalance = map.imbalance(&loads);
        prop_assert!(imbalance <= n_workers as f64 + 1e-9);
        prop_assert!(imbalance >= 1.0 - 1e-9);
    }

    #[test]
    fn partition_region_fanout_is_minimal_and_sufficient(
        region in arb_region(),
        n_workers in 1usize..16,
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(8_000.0, 8_000.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, 500.0, workers);
        let fanout = map.workers_for_region(region);
        // Sufficient: the owner of every overlapping cell is contacted.
        for c in map.grid().cells_overlapping(region) {
            prop_assert!(fanout.contains(&map.owner_of_cell(c)));
        }
        // Minimal: every contacted worker owns at least one overlapping cell.
        for &w in &fanout {
            let touches = map
                .cells_of(w)
                .iter()
                .any(|&c| map.grid().cell_bbox(c).intersects(&region));
            prop_assert!(touches, "{} contacted needlessly", w);
        }
    }

    #[test]
    fn partition_successors_are_distinct_members(
        n_workers in 1usize..16,
        r in 0usize..20,
        idx in any::<prop::sample::Index>(),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, 250.0, workers.clone());
        let me = workers[idx.index(workers.len())];
        let succ = map.successors(me, r);
        prop_assert!(succ.len() <= r.min(n_workers - 1));
        let mut seen = std::collections::HashSet::new();
        for s in &succ {
            prop_assert!(*s != me, "successor equals self");
            prop_assert!(workers.contains(s));
            prop_assert!(seen.insert(*s), "duplicate successor");
        }
    }

    #[test]
    fn routing_regions_tile_the_plane(
        n_workers in 1usize..8,
        px in -500.0..1500.0f64,
        py in -500.0..1500.0f64,
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, 250.0, workers);
        let p = Point::new(px, py);
        let containing: Vec<_> = map
            .grid()
            .all_cells()
            .filter(|&c| map.cell_routing_region(c).contains(p))
            .collect();
        prop_assert_eq!(containing.len(), 1, "point {} in {} regions", p, containing.len());
        prop_assert_eq!(containing[0], map.grid().cell_of_clamped(p));
    }
}

/// A standing-query registration for the interest-index equivalence
/// property: id, predicate, notify target.
fn arb_registration() -> impl Strategy<Value = (u64, Predicate, NodeId)> {
    (
        0u64..32,
        arb_region(),
        proptest::option::of(0u8..4),
        0u32..100,
    )
        .prop_map(|(id, region, class, node)| {
            (
                id,
                Predicate {
                    region,
                    class: class.map(|c| EntityClass::from_u8(c).expect("class")),
                },
                NodeId(node),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The worker's bucketed interest index yields exactly what a linear
    /// scan of every registration would, for arbitrary predicates
    /// (including regions outside the worker extent) and arbitrary
    /// observation batches (including positions outside the extent,
    /// which clamp into edge cells). Later inserts under the same id
    /// replace earlier ones — the linear reference models that too.
    #[test]
    fn interest_index_is_equivalent_to_a_linear_scan(
        registrations in prop::collection::vec(arb_registration(), 0..24),
        batch in prop::collection::vec(arb_observation(), 0..32),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0));
        let mut index = stcam::InterestIndex::new(extent);
        // Linear reference with last-insert-wins semantics.
        let mut reference: std::collections::BTreeMap<u64, (Predicate, NodeId)> =
            std::collections::BTreeMap::new();
        for (id, predicate, notify) in &registrations {
            index.insert(stcam::ContinuousQueryId(*id), *predicate, *notify);
            reference.insert(*id, (*predicate, *notify));
        }
        let got = index.matching(&batch);
        let mut want = Vec::new();
        for (&id, (predicate, notify)) in &reference {
            let matches: Vec<Observation> = batch
                .iter()
                .filter(|o| predicate.matches(o))
                .cloned()
                .collect();
            if !matches.is_empty() {
                want.push((stcam::ContinuousQueryId(id), *notify, matches));
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Removing a random subset of registrations keeps the equivalence:
    /// no stale bucket entry survives a removal.
    #[test]
    fn interest_index_removal_leaves_no_stale_buckets(
        registrations in prop::collection::vec(arb_registration(), 1..24),
        drop_mask in prop::collection::vec(any::<bool>(), 24),
        batch in prop::collection::vec(arb_observation(), 0..16),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0));
        let mut index = stcam::InterestIndex::new(extent);
        let mut reference: std::collections::BTreeMap<u64, (Predicate, NodeId)> =
            std::collections::BTreeMap::new();
        for (id, predicate, notify) in &registrations {
            index.insert(stcam::ContinuousQueryId(*id), *predicate, *notify);
            reference.insert(*id, (*predicate, *notify));
        }
        for (i, (id, _, _)) in registrations.iter().enumerate() {
            if drop_mask[i % drop_mask.len()] {
                index.remove(stcam::ContinuousQueryId(*id));
                reference.remove(id);
            }
        }
        prop_assert_eq!(index.len(), reference.len());
        let got = index.matching(&batch);
        let mut want = Vec::new();
        for (&id, (predicate, notify)) in &reference {
            let matches: Vec<Observation> = batch
                .iter()
                .filter(|o| predicate.matches(o))
                .cloned()
                .collect();
            if !matches.is_empty() {
                want.push((stcam::ContinuousQueryId(id), *notify, matches));
            }
        }
        prop_assert_eq!(got, want);
    }
}
