//! Sealed immutable segments: closed time slices frozen into columnar
//! blocks.
//!
//! A [`SealedSegment`] is the archive form of one time slice. Each
//! non-empty grid cell becomes one columnar block (the `stcam-camnet`
//! batch encoding: delta-varint ids/times, run-length cameras, packed
//! classes), and a footer directory maps packed cell → byte range so
//! queries decode only the cells their region touches. The directory also
//! carries per-block observation counts and order-independent checksums,
//! XOR-folded into a segment-level digest — the unit the repair plane
//! compares and ships (`(number, count, checksum)` identifies a segment's
//! exact contents up to the collision probability of the mix).
//!
//! Segments are immutable: rebalancing that must remove rows builds a
//! replacement segment (`partition_region`), byte-copying blocks the
//! region does not touch and re-encoding only partial blocks. The payload
//! can be spilled to disk ([`SealedSegment::spill`]), leaving only the
//! footer resident; reads then fetch just the touched byte ranges,
//! coalescing adjacent blocks into single reads.

use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use stcam_camnet::batch::{
    decode_batch, decode_batch_filtered, decode_batch_into, encode_batch, scan_batch_keys,
};
use stcam_camnet::Observation;
use stcam_codec::{DecodeError, SegmentBlock, SegmentFrame};
use stcam_geo::{BBox, CellId, GridSpec, Point, TimeInterval, Timestamp};

/// The order-independent per-observation mix folded (by XOR) into cell
/// and segment checksums. Covers the identity and the timestamp, so a
/// copy holding the right ids but corrupted times still diverges. Shared
/// by the index's segment digests and the repair plane's cell digests —
/// a sealed whole-cell block and a live cell fold to the same value.
pub fn observation_checksum(o: &Observation) -> u64 {
    splitmix64(o.id.0 ^ splitmix64(o.time.as_millis()))
}

/// SplitMix64 finalizer: a cheap, well-dispersed 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The region of positions that bucket into packed cell `cell` under the
/// clamped assignment of `grid`: border cells extend to ±∞ on their
/// outside edges (outside positions clamp inward), interior edges are
/// half-open so every position belongs to exactly one cell's scope.
///
/// `region.contains_bbox(cell_scope(...))` therefore proves that *every*
/// observation bucketed in the cell — clamped ones included — matches
/// `region`, which is what lets segment scans copy whole blocks without
/// decoding them.
pub fn cell_scope(grid: &GridSpec, cell: u32) -> BBox {
    const FAR: f64 = 1e12;
    let cell = CellId::new(cell % grid.cols(), cell / grid.cols());
    let bb = grid.cell_bbox(cell);
    let min = Point::new(
        if cell.col == 0 { -FAR } else { bb.min.x },
        if cell.row == 0 { -FAR } else { bb.min.y },
    );
    let max = Point::new(
        if cell.col == grid.cols() - 1 {
            FAR
        } else {
            bb.max.x.next_down()
        },
        if cell.row == grid.rows() - 1 {
            FAR
        } else {
            bb.max.y.next_down()
        },
    );
    BBox::new(min, max)
}

/// Identity and content digest of one sealed segment: the unit the
/// repair/rejoin plane compares. Equal digests certify equal contents up
/// to the collision probability of [`observation_checksum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentDigest {
    /// Time-slice number the segment covers.
    pub number: u64,
    /// Observations stored.
    pub count: u64,
    /// XOR fold of [`observation_checksum`] over every stored row.
    pub checksum: u64,
}

/// Where a segment's payload bytes live.
#[derive(Debug)]
enum SegmentData {
    /// Payload held in memory.
    Resident(Vec<u8>),
    /// Payload written to one file; only the footer stays resident. The
    /// read-only handle is kept open so block reads are positioned reads
    /// (`pread`) with no per-query open/seek.
    Spilled {
        path: PathBuf,
        len: usize,
        file: File,
    },
}

/// One sealed, immutable time slice: per-cell columnar blocks plus a
/// footer directory (see the `segment` module documentation).
#[derive(Debug)]
pub struct SealedSegment {
    number: u64,
    window: TimeInterval,
    count: u64,
    checksum: u64,
    directory: Vec<SegmentBlock>,
    data: SegmentData,
    /// Cached whole-segment heat-map summaries (see [`HeatmapMemo`]).
    memo: HeatmapMemo,
}

/// Cached whole-segment heat-map summaries, keyed by bucket grid.
///
/// A sealed segment is immutable, so once the per-bucket counts for a
/// given bucket grid are computed they stay valid for *every* window
/// that covers the slice — no invalidation, ever. Repeated archive-wide
/// heat-maps (the common dashboard shape: same bucket grid, sliding
/// covering window) then cost one sparse merge per segment instead of a
/// footer walk plus key decode of every straddling block. Capped at
/// [`HeatmapMemo::CAP`] bucket grids, oldest evicted first.
#[derive(Debug, Default)]
struct HeatmapMemo(Mutex<Vec<(GridSpec, SparseCounts)>>);

/// Sparse per-bucket counts: `(packed bucket index, count)` pairs.
type SparseCounts = Vec<(u32, u64)>;

impl HeatmapMemo {
    const CAP: usize = 4;

    /// Merges the cached summary for `buckets` into `counts`, or returns
    /// `false` on a miss.
    fn add_into(&self, buckets: &GridSpec, counts: &mut [u64]) -> bool {
        let memo = self.0.lock().expect("heatmap memo poisoned");
        match memo.iter().find(|(spec, _)| spec == buckets) {
            Some((_, sparse)) => {
                for &(slot, c) in sparse {
                    counts[slot as usize] += c;
                }
                true
            }
            None => false,
        }
    }

    /// Installs a computed summary (first writer wins on a race).
    fn store(&self, buckets: &GridSpec, sparse: Vec<(u32, u64)>) {
        let mut memo = self.0.lock().expect("heatmap memo poisoned");
        if memo.iter().any(|(spec, _)| spec == buckets) {
            return;
        }
        if memo.len() >= Self::CAP {
            memo.remove(0);
        }
        memo.push((*buckets, sparse));
    }
}

impl Drop for SealedSegment {
    fn drop(&mut self) {
        if let SegmentData::Spilled { path, .. } = &self.data {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl SealedSegment {
    /// Seals cell buckets (dense, indexed by packed cell) into a segment.
    /// Rows inside each bucket keep their stored order; empty buckets
    /// produce no block.
    pub(crate) fn seal(
        number: u64,
        window: TimeInterval,
        buckets: &[Vec<Observation>],
    ) -> SealedSegment {
        let mut payload = Vec::new();
        let mut directory = Vec::new();
        let mut count = 0u64;
        let mut checksum = 0u64;
        for (cell, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let offset = payload.len() as u32;
            encode_batch(bucket, &mut payload);
            let block_checksum = bucket
                .iter()
                .fold(0u64, |acc, o| acc ^ observation_checksum(o));
            directory.push(SegmentBlock {
                cell: cell as u32,
                offset,
                len: payload.len() as u32 - offset,
                count: bucket.len() as u32,
                checksum: block_checksum,
            });
            count += bucket.len() as u64;
            checksum ^= block_checksum;
        }
        SealedSegment {
            number,
            window,
            count,
            checksum,
            directory,
            data: SegmentData::Resident(payload),
            memo: HeatmapMemo::default(),
        }
    }

    /// Time-slice number this segment covers.
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The slice window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// Stored observations.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` when the segment stores nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The segment's identity/content digest.
    pub fn digest(&self) -> SegmentDigest {
        SegmentDigest {
            number: self.number,
            count: self.count,
            checksum: self.checksum,
        }
    }

    /// Approximate heap bytes held in RAM: payload (when resident) plus
    /// the footer directory.
    pub fn resident_bytes(&self) -> usize {
        let payload = match &self.data {
            SegmentData::Resident(p) => p.len(),
            SegmentData::Spilled { .. } => 0,
        };
        payload + self.directory.len() * std::mem::size_of::<SegmentBlock>()
    }

    /// Payload bytes spilled to disk (0 when resident).
    pub fn spilled_bytes(&self) -> usize {
        match &self.data {
            SegmentData::Resident(_) => 0,
            SegmentData::Spilled { len, .. } => *len,
        }
    }

    /// Moves the payload to one file under `dir`, keeping only the footer
    /// resident. `tag` disambiguates multiple segments of one slice.
    /// No-op if already spilled; IO failure leaves the segment resident.
    pub(crate) fn spill(&mut self, dir: &Path, tag: u64) {
        let SegmentData::Resident(payload) = &self.data else {
            return;
        };
        let path = dir.join(format!("seg-{:08}-{:04}.stseg", self.number, tag));
        let write = || -> std::io::Result<File> {
            let mut f = File::create(&path)?;
            f.write_all(payload)?;
            f.sync_data()?;
            File::open(&path)
        };
        if let Ok(file) = write() {
            self.data = SegmentData::Spilled {
                path,
                len: payload.len(),
                file,
            };
        }
    }

    /// The payload bytes of directory entries `first..=last` (which are
    /// contiguous in the payload by construction). Spilled segments read
    /// exactly that byte range — one read per run of adjacent blocks.
    fn run_bytes<'a>(&'a self, first: usize, last: usize, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        let start = self.directory[first].offset as usize;
        let end = self.directory[last].offset as usize + self.directory[last].len as usize;
        match &self.data {
            SegmentData::Resident(payload) => &payload[start..end],
            SegmentData::Spilled { file, .. } => {
                // Grow-only: `read_exact_at` overwrites the prefix, so the
                // buffer is never re-zeroed on reuse.
                if scratch.len() < end - start {
                    scratch.resize(end - start, 0);
                }
                file.read_exact_at(&mut scratch[..end - start], start as u64)
                    .expect("segment spill file read");
                &scratch[..end - start]
            }
        }
    }

    /// Directory indices of the blocks for `cells` (sorted packed cells),
    /// grouped into runs of adjacent directory entries so spilled reads
    /// coalesce.
    fn block_runs(&self, cells: &[u32]) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &cell in cells {
            if let Ok(i) = self.directory.binary_search_by_key(&cell, |b| b.cell) {
                match runs.last_mut() {
                    Some((_, last)) if *last + 1 == i => *last = i,
                    Some((_, last)) if *last == i => {}
                    _ => runs.push((i, i)),
                }
            }
        }
        runs
    }

    /// Whether every row of block `i` matches `region`/`window` without
    /// decoding: the window covers the whole slice and the region covers
    /// the cell's entire clamped scope.
    fn block_fully_matches(
        &self,
        grid: &GridSpec,
        i: usize,
        region: Option<&BBox>,
        window: &TimeInterval,
    ) -> bool {
        let covers_time = window.contains(self.window.start()) && window.end() >= self.window.end();
        covers_time
            && match region {
                None => true,
                Some(r) => r.contains_bbox(&cell_scope(grid, self.directory[i].cell)),
            }
    }

    /// Appends every stored observation matching `region` (when given)
    /// and `window` within `cells` (sorted packed cells) to `out`.
    /// Blocks that provably match whole are decoded straight into `out`;
    /// partial blocks decode into `scratch` and filter per row.
    pub(crate) fn scan_cells(
        &self,
        grid: &GridSpec,
        cells: &[u32],
        region: Option<&BBox>,
        window: &TimeInterval,
        out: &mut Vec<Observation>,
        scratch: &mut ScanScratch,
    ) {
        for (first, last) in self.block_runs(cells) {
            let base = self.directory[first].offset as usize;
            let bytes = self.run_bytes(first, last, &mut scratch.bytes);
            for i in first..=last {
                let block = self.directory[i];
                let mut slice = &bytes
                    [block.offset as usize - base..(block.offset + block.len) as usize - base];
                if self.block_fully_matches(grid, i, region, window) {
                    decode_batch_into(&mut slice, out).expect("sealed block decodes");
                } else {
                    decode_batch_filtered(
                        &mut slice,
                        |t, p| window.contains(t) && region.is_none_or(|r| r.contains(p)),
                        out,
                    )
                    .expect("sealed block decodes");
                }
            }
        }
    }

    /// Counts matches like [`scan_cells`](Self::scan_cells) without
    /// materialising them: fully-covered blocks contribute their footer
    /// count with no decode; only partial blocks decode (into `scratch`).
    pub(crate) fn count_cells(
        &self,
        grid: &GridSpec,
        cells: &[u32],
        region: Option<&BBox>,
        window: &TimeInterval,
        scratch: &mut ScanScratch,
    ) -> usize {
        let mut total = 0usize;
        for (first, last) in self.block_runs(cells) {
            // Footer pass: covered blocks contribute their count with no
            // read; the rest group into sub-runs so reads touch only them.
            let mut subruns: Vec<(usize, usize)> = Vec::new();
            for i in first..=last {
                if self.block_fully_matches(grid, i, region, window) {
                    total += self.directory[i].count as usize;
                } else {
                    match subruns.last_mut() {
                        Some((_, l)) if *l + 1 == i => *l = i,
                        _ => subruns.push((i, i)),
                    }
                }
            }
            for (f, l) in subruns {
                let base = self.directory[f].offset as usize;
                let bytes = self.run_bytes(f, l, &mut scratch.bytes);
                for i in f..=l {
                    let block = self.directory[i];
                    let mut slice = &bytes
                        [block.offset as usize - base..(block.offset + block.len) as usize - base];
                    let mut matched = 0;
                    scan_batch_keys(&mut slice, |t, p| {
                        if window.contains(t) && region.is_none_or(|r| r.contains(p)) {
                            matched += 1;
                        }
                    })
                    .expect("sealed block decodes");
                    total += matched;
                }
            }
        }
        total
    }

    /// Accumulates observation counts into `counts` (dense row-major over
    /// `buckets`) for rows within `window`.
    ///
    /// Two tiers of short-cut keep archive-wide heat-maps off the decode
    /// path: when the window covers the whole slice **and** a block's cell
    /// scope lies inside a single bucket (always true for interior cells
    /// when `buckets` is a coarser grid aligned with the index grid), the
    /// block contributes its footer count without touching the payload.
    /// Remaining blocks are visited key-only ([`scan_batch_keys`]) — a
    /// heat-map never needs ids or signatures, so the wide columns stay
    /// encoded either way. Covering windows additionally memoise the
    /// whole-segment summary per bucket grid (see [`HeatmapMemo`]), so
    /// only the first such query per grid pays for the scan at all.
    pub(crate) fn heatmap_into(
        &self,
        grid: &GridSpec,
        buckets: &GridSpec,
        window: &TimeInterval,
        counts: &mut [u64],
        scratch: &mut ScanScratch,
    ) {
        if self.directory.is_empty() {
            return;
        }
        let covers_time = window.contains(self.window.start()) && window.end() >= self.window.end();
        if !covers_time {
            self.heatmap_scan(grid, buckets, window, false, counts, scratch);
            return;
        }
        if self.memo.add_into(buckets, counts) {
            return;
        }
        let mut dense = vec![0u64; buckets.cell_count() as usize];
        self.heatmap_scan(grid, buckets, window, true, &mut dense, scratch);
        let sparse: Vec<(u32, u64)> = dense
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(slot, &c)| (slot as u32, c))
            .collect();
        for &(slot, c) in &sparse {
            counts[slot as usize] += c;
        }
        self.memo.store(buckets, sparse);
    }

    /// The uncached heat-map scan: footer pass plus key-only decode of
    /// unresolved blocks (the pre-memo body of
    /// [`heatmap_into`](Self::heatmap_into)).
    fn heatmap_scan(
        &self,
        grid: &GridSpec,
        buckets: &GridSpec,
        window: &TimeInterval,
        covers_time: bool,
        counts: &mut [u64],
        scratch: &mut ScanScratch,
    ) {
        // Footer pass: resolve what we can without any payload read, and
        // remember whether anything is left for the decode pass.
        let mut decode_any = false;
        let mut footer_only = vec![false; self.directory.len()];
        if covers_time {
            for (i, block) in self.directory.iter().enumerate() {
                let scope = cell_scope(grid, block.cell);
                let bucket = buckets
                    .cell_of(Point::new(
                        (scope.min.x + scope.max.x) / 2.0,
                        (scope.min.y + scope.max.y) / 2.0,
                    ))
                    .filter(|&b| buckets.cell_bbox(b).contains_bbox(&scope));
                if let Some(b) = bucket {
                    counts[b.row as usize * buckets.cols() as usize + b.col as usize] +=
                        block.count as u64;
                    footer_only[i] = true;
                } else {
                    decode_any = true;
                }
            }
        } else {
            decode_any = true;
        }
        if !decode_any {
            return;
        }
        // Read only the blocks the footer could not resolve, grouped into
        // runs of adjacent directory entries so spilled reads coalesce.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (i, &resolved) in footer_only.iter().enumerate() {
            if resolved {
                continue;
            }
            match runs.last_mut() {
                Some((_, last)) if *last + 1 == i => *last = i,
                _ => runs.push((i, i)),
            }
        }
        for (first, last) in runs {
            let base = self.directory[first].offset as usize;
            let bytes = self.run_bytes(first, last, &mut scratch.bytes);
            for block in &self.directory[first..=last] {
                let mut slice = &bytes
                    [block.offset as usize - base..(block.offset + block.len) as usize - base];
                scan_batch_keys(&mut slice, |t, p| {
                    if !covers_time && !window.contains(t) {
                        return;
                    }
                    if let Some(cell) = buckets.cell_of(p) {
                        counts[cell.row as usize * buckets.cols() as usize + cell.col as usize] +=
                            1;
                    }
                })
                .expect("sealed block decodes");
            }
        }
    }

    /// Visits every stored observation, decoding block by block.
    pub(crate) fn for_each_with(&self, scratch: &mut ScanScratch, f: &mut dyn FnMut(&Observation)) {
        if self.directory.is_empty() {
            return;
        }
        let last = self.directory.len() - 1;
        let base = self.directory[0].offset as usize;
        // Blocks tile the payload, so one run covers the whole segment.
        let bytes = self.run_bytes(0, last, &mut scratch.bytes);
        for block in &self.directory {
            let mut slice =
                &bytes[block.offset as usize - base..(block.offset + block.len) as usize - base];
            scratch.rows.clear();
            decode_batch_into(&mut slice, &mut scratch.rows).expect("sealed block decodes");
            for o in &scratch.rows {
                f(o);
            }
        }
    }

    /// Decodes every stored observation (cell order, stored row order).
    pub fn unseal(&self) -> Vec<Observation> {
        let mut out = Vec::with_capacity(self.count as usize);
        let mut scratch = ScanScratch::default();
        self.for_each_with(&mut scratch, &mut |o| out.push(o.clone()));
        out
    }

    /// Splits off the rows whose position lies inside `region` as a new
    /// resident segment, without modifying `self`. Blocks whose whole
    /// cell scope is inside `region` are byte-copied; partial blocks are
    /// decoded, filtered, and re-encoded. Returns `None` when nothing
    /// matches. Deterministic: the same source segment and region always
    /// produce an identical sub-segment (same digest), so retried
    /// exports/installs deduplicate cleanly.
    pub(crate) fn split_region(&self, grid: &GridSpec, region: &BBox) -> Option<SealedSegment> {
        let (sub, _) = self.partition_region(grid, region);
        sub
    }

    /// Builds (matching, remainder) segments for `region` in one pass.
    /// Either side is `None` when empty; untouched blocks are byte-copied
    /// into whichever side they belong to.
    pub(crate) fn partition_region(
        &self,
        grid: &GridSpec,
        region: &BBox,
    ) -> (Option<SealedSegment>, Option<SealedSegment>) {
        let mut inside = SegmentBuilder::new(self.number, self.window);
        let mut outside = SegmentBuilder::new(self.number, self.window);
        let mut scratch = ScanScratch::default();
        let mut whole = Vec::new();
        if let Some(last) = self.directory.len().checked_sub(1) {
            let base = self.directory[0].offset as usize;
            let bytes = self.run_bytes(0, last, &mut whole);
            for block in &self.directory {
                let raw = &bytes
                    [block.offset as usize - base..(block.offset + block.len) as usize - base];
                let scope = cell_scope(grid, block.cell);
                if region.contains_bbox(&scope) {
                    inside.push_raw(*block, raw);
                } else if region.intersection(&scope).is_none() {
                    outside.push_raw(*block, raw);
                } else {
                    scratch.rows.clear();
                    let mut slice = raw;
                    decode_batch_into(&mut slice, &mut scratch.rows).expect("sealed block decodes");
                    let (hit, miss): (Vec<Observation>, Vec<Observation>) = scratch
                        .rows
                        .drain(..)
                        .partition(|o| region.contains(o.position));
                    inside.push_rows(block.cell, &hit);
                    outside.push_rows(block.cell, &miss);
                }
            }
        }
        (inside.finish(), outside.finish())
    }

    /// Whether any stored cell's scope intersects `region` — a cheap
    /// footer-only pre-check before paying for a rewrite.
    pub(crate) fn touches(&self, grid: &GridSpec, region: &BBox) -> bool {
        self.directory
            .iter()
            .any(|b| region.intersection(&cell_scope(grid, b.cell)).is_some())
    }

    /// The stored rows of one packed cell passing `keep(time, position)`,
    /// appended to `out`. kNN ring expansion uses the predicate to fold
    /// its window check and current k-th-distance bound into the scan, so
    /// rows that cannot make the answer are never fully decoded.
    pub(crate) fn cell_filtered(
        &self,
        cell: u32,
        keep: impl FnMut(Timestamp, Point) -> bool,
        out: &mut Vec<Observation>,
        scratch: &mut ScanScratch,
    ) {
        let Ok(i) = self.directory.binary_search_by_key(&cell, |b| b.cell) else {
            return;
        };
        let mut slice = self.run_bytes(i, i, &mut scratch.bytes);
        decode_batch_filtered(&mut slice, keep, out).expect("sealed block decodes");
    }

    /// The wire/at-rest frame of this segment (clones the payload;
    /// spilled segments read it back from disk).
    pub fn to_frame(&self) -> SegmentFrame {
        let payload = match &self.data {
            SegmentData::Resident(p) => p.clone(),
            SegmentData::Spilled { len, file, .. } => {
                let mut buf = vec![0u8; *len];
                file.read_exact_at(&mut buf, 0)
                    .expect("segment spill file read");
                buf
            }
        };
        SegmentFrame {
            number: self.number,
            window: self.window,
            count: self.count,
            checksum: self.checksum,
            directory: self.directory.clone(),
            payload,
        }
    }

    /// Adopts a decoded frame (structure already validated by the codec
    /// layer). Verifies the content checksums — every block's rows must
    /// fold to the advertised block checksum — so a peer cannot install a
    /// frame whose digest misrepresents its contents.
    pub fn from_frame(frame: SegmentFrame) -> Result<SealedSegment, DecodeError> {
        for (i, block) in frame.directory.iter().enumerate() {
            let mut bytes = frame.block_payload(i);
            let rows = decode_batch(&mut bytes).map_err(|_| DecodeError::InvalidValue {
                reason: "segment block payload does not decode",
            })?;
            if rows.len() != block.count as usize {
                return Err(DecodeError::InvalidValue {
                    reason: "segment block count does not match payload",
                });
            }
            let fold = rows
                .iter()
                .fold(0u64, |acc, o| acc ^ observation_checksum(o));
            if fold != block.checksum {
                return Err(DecodeError::InvalidValue {
                    reason: "segment block checksum does not match payload",
                });
            }
            if !rows.iter().all(|o| frame.window.contains(o.time)) {
                return Err(DecodeError::InvalidValue {
                    reason: "segment row outside slice window",
                });
            }
        }
        Ok(SealedSegment {
            number: frame.number,
            window: frame.window,
            count: frame.count,
            checksum: frame.checksum,
            directory: frame.directory,
            data: SegmentData::Resident(frame.payload),
            memo: HeatmapMemo::default(),
        })
    }
}

/// Reusable decode buffers threaded through segment scans so repeated
/// block decodes reuse allocations.
#[derive(Debug, Default)]
pub(crate) struct ScanScratch {
    /// Spilled-read byte buffer.
    bytes: Vec<u8>,
    /// Per-block decoded rows.
    rows: Vec<Observation>,
}

/// Accumulates blocks (raw or re-encoded) into a new resident segment.
struct SegmentBuilder {
    number: u64,
    window: TimeInterval,
    payload: Vec<u8>,
    directory: Vec<SegmentBlock>,
    count: u64,
    checksum: u64,
}

impl SegmentBuilder {
    fn new(number: u64, window: TimeInterval) -> Self {
        SegmentBuilder {
            number,
            window,
            payload: Vec::new(),
            directory: Vec::new(),
            count: 0,
            checksum: 0,
        }
    }

    /// Byte-copies an existing block (directory entry recomputed for the
    /// new offset).
    fn push_raw(&mut self, block: SegmentBlock, raw: &[u8]) {
        let offset = self.payload.len() as u32;
        self.payload.extend_from_slice(raw);
        self.directory.push(SegmentBlock { offset, ..block });
        self.count += block.count as u64;
        self.checksum ^= block.checksum;
    }

    /// Encodes `rows` as a fresh block for `cell` (no-op when empty).
    fn push_rows(&mut self, cell: u32, rows: &[Observation]) {
        if rows.is_empty() {
            return;
        }
        let offset = self.payload.len() as u32;
        encode_batch(rows, &mut self.payload);
        let checksum = rows
            .iter()
            .fold(0u64, |acc, o| acc ^ observation_checksum(o));
        self.directory.push(SegmentBlock {
            cell,
            offset,
            len: self.payload.len() as u32 - offset,
            count: rows.len() as u32,
            checksum,
        });
        self.count += rows.len() as u64;
        self.checksum ^= checksum;
    }

    fn finish(self) -> Option<SealedSegment> {
        if self.count == 0 {
            return None;
        }
        Some(SealedSegment {
            number: self.number,
            window: self.window,
            count: self.count,
            checksum: self.checksum,
            directory: self.directory,
            data: SegmentData::Resident(self.payload),
            memo: HeatmapMemo::default(),
        })
    }
}
