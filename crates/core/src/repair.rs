//! Anti-entropy repair: digests, deficit planning, and budgets.
//!
//! Replication in `stcam` is an ingest-time best effort: acked writes
//! certify the owner plus its first `replication` *alive* ring successors,
//! but failover, lossy links, restarts, and rebalancing all erode that
//! coverage afterwards. This module makes the configured factor a
//! **converging invariant** instead:
//!
//! 1. Every worker answers [`Request::CellDigest`] with a sparse per-cell
//!    summary — observation count plus an order-independent checksum —
//!    over both its primary shard and every replica log it holds
//!    ([`DigestReport`]).
//! 2. `plan` compares each alive owner's primary digest against the
//!    replica digests held by its required successors (the same
//!    ring-walking [`PartitionMap::alive_successors`] rule the write and
//!    read paths use) and emits the *deficits*: `(owner, holder, cell)`
//!    triples whose copies are missing or diverged, plus the *garbage*:
//!    replica log cells whose holder is no longer a required successor.
//! 3. The coordinator's sweeper (`Coordinator::repair`) drains the plan
//!    under a [`RepairBudget`]: per deficit it copies the cell's contents
//!    from the owner and streams them to the holder in bounded
//!    columnar-codec batches ([`Request::Repair`]), truncating the
//!    holder's stale copy first so the stream is idempotent.
//!
//! The checksum is an XOR fold of a 64-bit mix over each observation's id
//! and timestamp, so it is order-independent (replica logs are append
//! logs, the primary index is slice-ordered) and equal counts + equal
//! checksums certify equal cell contents up to the collision probability
//! of the mix.
//!
//! Dropping diverged replica data during repair is safe by the ack
//! contract: an acknowledged observation is always present at the current
//! owner (or was promoted along the failover chain into it), so anything
//! a replica log holds that the alive owner lacks is unacknowledged — and
//! unacknowledged data is re-delivered by the sender's redo window, never
//! by replica logs.
//!
//! [`Request::CellDigest`]: crate::Request::CellDigest
//! [`Request::Repair`]: crate::Request::Repair
//! [`DigestReport`]: crate::DigestReport
//! [`PartitionMap::alive_successors`]: crate::PartitionMap::alive_successors

use std::collections::{BTreeMap, HashMap, HashSet};

use stcam_camnet::Observation;
use stcam_geo::{BBox, CellId, GridSpec};
use stcam_net::NodeId;

use crate::partition::PartitionMap;
use crate::protocol::DigestReport;

/// The order-independent per-observation mix folded (by XOR) into a
/// cell's digest checksum. Covers the identity and the timestamp, so a
/// replica holding the right ids but corrupted times still diverges.
/// Defined in `stcam-index` (sealed-segment checksums fold the same mix,
/// so a whole-cell segment block and a live cell digest agree) and
/// re-exported here for the repair plane.
pub use stcam_index::observation_checksum;

/// The region of positions that bucket into packed cell `cell` under the
/// clamped assignment of `grid` (outside positions clamp to border
/// cells). Mirrors `PartitionMap::cell_routing_region`, but standalone so
/// workers — which hold only the grid, not the partition — can truncate a
/// cell's exact contents during [`Request::Repair`]. Delegates to
/// `stcam-index`'s [`cell_scope`](stcam_index::cell_scope), the same rule
/// sealed-segment scans use to copy whole blocks without decoding.
///
/// [`Request::Repair`]: crate::Request::Repair
pub fn cell_region(grid: &GridSpec, cell: u32) -> BBox {
    stcam_index::cell_scope(grid, cell)
}

/// Streaming builder of sparse per-cell digests: observations are folded
/// one at a time (bucketed by `grid` with clamping — the same assignment
/// ingest routing uses), so a digest sweep never materialises the shard.
#[derive(Debug)]
pub(crate) struct DigestAccumulator {
    grid: GridSpec,
    cells: BTreeMap<u32, (u32, u64)>,
}

impl DigestAccumulator {
    pub(crate) fn new(grid: &GridSpec) -> Self {
        DigestAccumulator {
            grid: *grid,
            cells: BTreeMap::new(),
        }
    }

    /// Folds one observation into its cell's digest.
    pub(crate) fn add(&mut self, o: &Observation) {
        let cell = self.grid.cell_of_clamped(o.position);
        let packed = cell.row * self.grid.cols() + cell.col;
        let entry = self.cells.entry(packed).or_insert((0, 0));
        entry.0 += 1;
        entry.1 ^= observation_checksum(o);
    }

    /// The accumulated `(packed cell, count, checksum)` triples, sorted
    /// by cell.
    pub(crate) fn finish(self) -> Vec<(u32, u32, u64)> {
        self.cells
            .into_iter()
            .map(|(cell, (count, checksum))| (cell, count, checksum))
            .collect()
    }
}

/// Sparse per-cell digests (`(packed cell, count, checksum)`, sorted by
/// cell) over a set of observations. See [`DigestAccumulator`].
pub(crate) fn digest_observations<'a, I>(grid: &GridSpec, observations: I) -> Vec<(u32, u32, u64)>
where
    I: IntoIterator<Item = &'a Observation>,
{
    let mut acc = DigestAccumulator::new(grid);
    for o in observations {
        acc.add(o);
    }
    acc.finish()
}

/// Resource bounds for one `Coordinator::repair_with` invocation, so
/// repair traffic never starves foreground queries.
#[derive(Debug, Clone, Copy)]
pub struct RepairBudget {
    /// Ceiling on observations streamed per digest round; when reached
    /// the round ends and the next round re-plans from fresh digests.
    pub max_observations_per_round: usize,
    /// Ceiling on digest/stream rounds per invocation.
    pub max_rounds: usize,
    /// Observations per [`Request::Repair`] batch — the streaming unit,
    /// sized to the columnar codec's sweet spot.
    ///
    /// [`Request::Repair`]: crate::Request::Repair
    pub chunk: usize,
}

impl Default for RepairBudget {
    fn default() -> Self {
        RepairBudget {
            max_observations_per_round: 8_192,
            max_rounds: 32,
            chunk: 512,
        }
    }
}

impl RepairBudget {
    /// An effectively unbounded per-round budget for one-shot covering
    /// passes (rejoin and rebalance re-replicate a whole target map
    /// before cutover, with no foreground traffic to starve): every
    /// deficit streams in a single round instead of paying a fresh
    /// digest sweep and copy fetch per 8 k rows.
    pub fn bulk() -> Self {
        RepairBudget {
            max_observations_per_round: usize::MAX,
            ..RepairBudget::default()
        }
    }
}

/// The outcome of one repair invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Digest/stream rounds executed.
    pub rounds: usize,
    /// `(owner, holder, cell)` deficits repaired (including truncate-only
    /// cleanups of stale replica cells).
    pub cells_repaired: usize,
    /// Observations streamed into replica logs.
    pub observations_streamed: usize,
    /// Under-replicated cells seen by the first digest sweep.
    pub under_replicated_before: usize,
    /// Under-replicated cells remaining after the last sweep (0 iff the
    /// invocation converged within its budget).
    pub under_replicated_after: usize,
    /// Whether the final digest sweep found nothing left to do — no
    /// deficits, no garbage, no stray primary copies. `false` means the
    /// round budget ran out first; re-invoke to continue.
    pub converged: bool,
}

/// One missing, diverged, or stale replica copy: `holder`'s replica log
/// for `owner` disagrees with `owner`'s primary shard at `cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deficit {
    /// The cell's current owner (the source of truth to stream from).
    pub owner: NodeId,
    /// The required successor whose copy diverges.
    pub holder: NodeId,
    /// Packed macro-cell index (`row * cols + col`).
    pub cell: u32,
}

/// What one digest sweep says must change to restore the invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RepairPlan {
    /// Copies to (re)stream, in deterministic `(owner, cell, holder)`
    /// order. Includes truncate-only entries where the holder has data
    /// the owner lacks.
    pub deficits: Vec<Deficit>,
    /// Replica log cells held by nodes that are no longer required
    /// successors of their primary — truncated without restreaming.
    pub garbage: Vec<Deficit>,
    /// Primary-shard copies of cells the map assigns elsewhere — left
    /// behind when a post-cutover evict failed. `holder` is the stale
    /// node, `owner` the cell's assigned owner. Drained into the owner
    /// (id dedup absorbs what already landed) and then truncated; until
    /// then the stale rows double-count in region scans over the holder.
    pub strays: Vec<Deficit>,
    /// Distinct owned cells with at least one missing/diverged copy at a
    /// required successor.
    pub under_replicated_cells: usize,
}

impl RepairPlan {
    /// Whether the sweep found nothing to do.
    pub fn is_converged(&self) -> bool {
        self.deficits.is_empty() && self.garbage.is_empty() && self.strays.is_empty()
    }
}

/// Compares one digest sweep against the invariant "every cell an alive
/// owner holds is mirrored at its `replication` alive ring successors"
/// and plans the streams/truncations that restore it.
///
/// `digests` maps each responding worker to its report; workers that did
/// not answer the sweep simply contribute nothing — their missing replica
/// digests surface as deficits, and their primary truth is skipped (it
/// could not be fetched from this round anyway).
pub(crate) fn plan(
    digests: &[(NodeId, DigestReport)],
    partition: &PartitionMap,
    alive: &HashSet<NodeId>,
    replication: usize,
) -> RepairPlan {
    let by_node: HashMap<NodeId, &DigestReport> = digests.iter().map(|(n, r)| (*n, r)).collect();
    let mut out = RepairPlan::default();
    if replication == 0 {
        return out;
    }
    let mut under: HashSet<(NodeId, u32)> = HashSet::new();
    let cols = partition.grid().cols();
    for &owner in partition.workers() {
        if !alive.contains(&owner) {
            continue;
        }
        let Some(report) = by_node.get(&owner) else {
            continue;
        };
        // Truth: the owner's primary digest, restricted to cells the plan
        // actually assigns to it (mid-rebalance a worker transiently
        // holds cells it is ceding; those need no replica coverage here).
        let truth: BTreeMap<u32, (u32, u64)> = report
            .primary
            .iter()
            .filter(|e| partition.owner_of_cell(CellId::new(e.cell % cols, e.cell / cols)) == owner)
            .map(|e| (e.cell, (e.count, e.checksum)))
            .collect();
        for holder in partition.alive_successors(owner, replication, alive) {
            let held: BTreeMap<u32, (u32, u64)> = by_node
                .get(&holder)
                .map(|r| {
                    r.replicas
                        .iter()
                        .filter(|e| e.primary == owner)
                        .map(|e| (e.cell, (e.count, e.checksum)))
                        .collect()
                })
                .unwrap_or_default();
            for (&cell, &digest) in &truth {
                if held.get(&cell) != Some(&digest) {
                    out.deficits.push(Deficit {
                        owner,
                        holder,
                        cell,
                    });
                    under.insert((owner, cell));
                }
            }
            // Cells the holder replicates but the owner no longer holds:
            // stale (evicted or migrated away) — stream of the (empty)
            // truth truncates them.
            for &cell in held.keys() {
                if !truth.contains_key(&cell) {
                    out.deficits.push(Deficit {
                        owner,
                        holder,
                        cell,
                    });
                }
            }
        }
    }
    // Replica logs held outside the required successor set. Only logs of
    // *alive* primaries are collected: an alive primary provably holds
    // every acked observation, so its stray copies are redundant. Logs of
    // dead primaries are left alone — they may still feed a promotion.
    for (&holder, report) in &by_node {
        for e in &report.replicas {
            if !alive.contains(&e.primary) {
                continue;
            }
            let required = partition
                .alive_successors(e.primary, replication, alive)
                .contains(&holder);
            if !required {
                out.garbage.push(Deficit {
                    owner: e.primary,
                    holder,
                    cell: e.cell,
                });
            }
        }
    }
    // Primary copies of cells the map assigns to somebody else: a ceded
    // cell whose evict was lost. Only flagged when the assigned owner is
    // alive — the drain has somewhere safe to put rows the owner may
    // still be missing before the stale copy is truncated.
    for (&holder, report) in &by_node {
        for e in &report.primary {
            let owner = partition.owner_of_cell(CellId::new(e.cell % cols, e.cell / cols));
            if owner != holder && alive.contains(&owner) {
                out.strays.push(Deficit {
                    owner,
                    holder,
                    cell: e.cell,
                });
            }
        }
    }
    out.deficits.sort_by_key(|d| (d.owner, d.cell, d.holder));
    out.garbage.sort_by_key(|d| (d.owner, d.cell, d.holder));
    out.strays.sort_by_key(|d| (d.owner, d.cell, d.holder));
    out.under_replicated_cells = under.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DigestEntry, ReplicaDigestEntry};
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_geo::{Point, Timestamp};
    use stcam_world::{EntityClass, EntityId};

    fn obs(seq: u64, t_ms: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(800.0, 800.0))
    }

    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let a = obs(1, 100, 10.0, 10.0);
        let b = obs(2, 200, 20.0, 20.0);
        let fold_ab = observation_checksum(&a) ^ observation_checksum(&b);
        let fold_ba = observation_checksum(&b) ^ observation_checksum(&a);
        assert_eq!(fold_ab, fold_ba);
        // A changed timestamp diverges the checksum even with equal ids.
        let mut late = a.clone();
        late.time = Timestamp::from_millis(999);
        assert_ne!(observation_checksum(&a), observation_checksum(&late));
    }

    #[test]
    fn digest_buckets_with_clamping() {
        let grid = GridSpec::covering(extent(), 400.0); // 2x2
        let inside = obs(1, 0, 100.0, 100.0); // cell 0
        let outside = obs(2, 0, -500.0, -500.0); // clamps to cell 0
        let far = obs(3, 0, 700.0, 700.0); // cell 3
        let digests = digest_observations(&grid, [&inside, &outside, &far]);
        assert_eq!(digests.len(), 2);
        assert_eq!((digests[0].0, digests[0].1), (0, 2));
        assert_eq!((digests[1].0, digests[1].1), (3, 1));
        assert_eq!(
            digests[0].2,
            observation_checksum(&inside) ^ observation_checksum(&outside)
        );
    }

    #[test]
    fn cell_region_extends_border_cells() {
        let grid = GridSpec::covering(extent(), 400.0); // 2x2
                                                        // Border cell 0 swallows everything below/left of the extent.
        assert!(cell_region(&grid, 0).contains(Point::new(-9_000.0, -9_000.0)));
        assert!(!cell_region(&grid, 0).contains(Point::new(500.0, 100.0)));
        // Interior edges stay half-open: a point on the shared edge is in
        // exactly one region.
        let edge = Point::new(400.0, 100.0);
        let containing: Vec<u32> = (0..4)
            .filter(|&c| cell_region(&grid, c).contains(edge))
            .collect();
        assert_eq!(containing, vec![1]);
    }

    fn workers(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    fn entry(cell: u32, count: u32, checksum: u64) -> DigestEntry {
        DigestEntry {
            cell,
            count,
            checksum,
        }
    }

    fn replica(primary: NodeId, cell: u32, count: u32, checksum: u64) -> ReplicaDigestEntry {
        ReplicaDigestEntry {
            primary,
            cell,
            count,
            checksum,
        }
    }

    #[test]
    fn plan_flags_stray_primary_copies_of_ceded_cells() {
        let partition = PartitionMap::uniform(extent(), 400.0, workers(3));
        let alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        let owner = partition.owner_of_cell(CellId::new(0, 0));
        // The required successor doubles as the stale holder: its replica
        // copy matches, so the only finding is the stray primary copy of
        // cell 0 (its evict was lost). Nothing is missing anywhere.
        let stale = partition.alive_successors(owner, 1, &alive)[0];
        let digests = vec![
            (
                owner,
                DigestReport {
                    primary: vec![entry(0, 2, 7)],
                    replicas: vec![],
                },
            ),
            (
                stale,
                DigestReport {
                    primary: vec![entry(0, 2, 7)],
                    replicas: vec![replica(owner, 0, 2, 7)],
                },
            ),
        ];
        let plan = plan(&digests, &partition, &alive, 1);
        assert_eq!(
            plan.strays,
            vec![Deficit {
                owner,
                holder: stale,
                cell: 0
            }]
        );
        assert_eq!(plan.under_replicated_cells, 0, "no data is missing");
        assert!(!plan.is_converged(), "strays block convergence");
    }

    #[test]
    fn plan_flags_missing_and_diverged_copies() {
        let partition = PartitionMap::uniform(extent(), 400.0, workers(3));
        let alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        // Owner of each cell per the uniform map.
        let cell0_owner = partition.owner_of_cell(CellId::new(0, 0));
        let succ = partition.alive_successors(cell0_owner, 1, &alive);
        let holder = succ[0];
        // Owner holds cell 0 with checksum 7; holder's copy diverges.
        let digests = vec![
            (
                cell0_owner,
                DigestReport {
                    primary: vec![entry(0, 2, 7)],
                    replicas: vec![],
                },
            ),
            (
                holder,
                DigestReport {
                    primary: vec![],
                    replicas: vec![replica(cell0_owner, 0, 2, 99)],
                },
            ),
        ];
        let plan = plan(&digests, &partition, &alive, 1);
        assert_eq!(
            plan.deficits,
            vec![Deficit {
                owner: cell0_owner,
                holder,
                cell: 0
            }]
        );
        assert_eq!(plan.under_replicated_cells, 1);
        assert!(!plan.is_converged());
        // A matching copy converges.
        let digests = vec![
            (
                cell0_owner,
                DigestReport {
                    primary: vec![entry(0, 2, 7)],
                    replicas: vec![],
                },
            ),
            (
                holder,
                DigestReport {
                    primary: vec![],
                    replicas: vec![replica(cell0_owner, 0, 2, 7)],
                },
            ),
        ];
        let plan = super::plan(&digests, &partition, &alive, 1);
        assert!(plan.is_converged());
        assert_eq!(plan.under_replicated_cells, 0);
    }

    #[test]
    fn plan_truncates_stale_replica_cells_without_counting_them_under() {
        let partition = PartitionMap::uniform(extent(), 400.0, workers(2));
        let alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        let owner = partition.owner_of_cell(CellId::new(0, 0));
        let holder = partition.alive_successors(owner, 1, &alive)[0];
        // Holder replicates a cell the owner no longer holds at all.
        let digests = vec![
            (owner, DigestReport::default()),
            (
                holder,
                DigestReport {
                    primary: vec![],
                    replicas: vec![replica(owner, 0, 5, 123)],
                },
            ),
        ];
        let plan = plan(&digests, &partition, &alive, 1);
        assert_eq!(plan.deficits.len(), 1);
        assert_eq!(plan.under_replicated_cells, 0, "no data is missing");
    }

    #[test]
    fn plan_collects_garbage_only_for_alive_primaries() {
        let partition = PartitionMap::uniform(extent(), 400.0, workers(4));
        let mut alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        // NodeId(3) holds logs for primaries 1 and 4. With r=1 and
        // everyone alive, 3 is a required successor of neither (1's
        // successor is 2, 4's wraps to 1), so both logs are garbage.
        let digests = vec![
            (NodeId(1), DigestReport::default()),
            (NodeId(2), DigestReport::default()),
            (
                NodeId(3),
                DigestReport {
                    primary: vec![],
                    replicas: vec![replica(NodeId(1), 0, 1, 1), replica(NodeId(4), 1, 1, 1)],
                },
            ),
            (NodeId(4), DigestReport::default()),
        ];
        let plan1 = plan(&digests, &partition, &alive, 1);
        assert_eq!(
            plan1.garbage,
            vec![
                Deficit {
                    owner: NodeId(1),
                    holder: NodeId(3),
                    cell: 0
                },
                Deficit {
                    owner: NodeId(4),
                    holder: NodeId(3),
                    cell: 1
                }
            ]
        );
        // With 4 dead, its log at 3 must be preserved (promotion fodder);
        // only the alive primary's stray log remains collectable.
        alive.remove(&NodeId(4));
        let plan2 = plan(&digests, &partition, &alive, 1);
        assert_eq!(
            plan2.garbage,
            vec![Deficit {
                owner: NodeId(1),
                holder: NodeId(3),
                cell: 0
            }]
        );
    }

    #[test]
    fn plan_walks_ring_past_dead_successors() {
        let partition = PartitionMap::uniform(extent(), 400.0, workers(3));
        let mut alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        alive.remove(&NodeId(2));
        // Owner 1's required successor with r=1 is now 3 (walks past 2).
        // 3 holds nothing, so the cell is under-replicated.
        let digests = vec![
            (
                NodeId(1),
                DigestReport {
                    primary: vec![entry(0, 1, 42)],
                    replicas: vec![],
                },
            ),
            (NodeId(3), DigestReport::default()),
        ];
        // Only meaningful if 1 owns cell 0 under this map.
        if partition.owner_of_cell(CellId::new(0, 0)) != NodeId(1) {
            return;
        }
        let plan = plan(&digests, &partition, &alive, 1);
        assert_eq!(
            plan.deficits,
            vec![Deficit {
                owner: NodeId(1),
                holder: NodeId(3),
                cell: 0
            }]
        );
    }

    #[test]
    fn replication_zero_plans_nothing() {
        let partition = PartitionMap::uniform(extent(), 400.0, workers(3));
        let alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        let digests = vec![(
            NodeId(1),
            DigestReport {
                primary: vec![entry(0, 9, 9)],
                replicas: vec![replica(NodeId(2), 0, 1, 1)],
            },
        )];
        assert!(plan(&digests, &partition, &alive, 0).is_converged());
    }
}
