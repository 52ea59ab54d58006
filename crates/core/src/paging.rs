//! Paged result streaming for oversize responses.
//!
//! A worker whose read produces a result larger than
//! [`PAGE_TARGET_BYTES`] does not ship it as one frame. Instead it splits
//! the rows into pages ([`pages_for`]), parks pages `1..` under a cursor,
//! and answers with [`Response::ResultPage`] page 0. The client pulls the
//! remaining pages with [`Request::FetchPage`](crate::Request::FetchPage)
//! and decodes them into one result as they arrive ([`Reassembly`]).
//! Invariants:
//!
//! * **Bounded frames.** Every page's encoded payload is at most
//!   [`PAGE_TARGET_BYTES`] (or holds a single row that alone exceeds it);
//!   with envelope and header overhead no response frame exceeds
//!   [`PAGE_MAX_BYTES`] for realistic row sizes. Neither side ever
//!   materialises a multi-megabyte message.
//! * **One encode per row.** Page boundaries come from one exact sizing
//!   pass over the rows, and each page is then encoded once. A result
//!   that fits one page is not encoded here at all: it ships as a plain
//!   response frame.
//! * **Standalone pages.** Each page payload is a complete encoding of
//!   its rows (a `stcam-camnet` batch frame for observations, a plain
//!   pair list for sparse counts), so pages decode independently, pulls
//!   are idempotent, and the usual timeout/retry machinery needs no
//!   special case.
//! * **Order-preserving.** Concatenating the pages' rows in page order
//!   reproduces the original response exactly.

use bytes::Buf;
use stcam_camnet::{batch, Observation};
use stcam_codec::{varint, DecodeError, Wire};

use crate::protocol::Response;

/// Soft page bound: a page's encoded payload only exceeds this when a
/// single row does on its own.
pub const PAGE_TARGET_BYTES: usize = 56 * 1024;

/// Hard frame bound the communication experiment gates on: page payload
/// plus response header and fabric envelope overhead stays under this.
pub const PAGE_MAX_BYTES: usize = 64 * 1024;

/// Page kind: the payload is a `stcam-camnet` batch frame of
/// observations.
pub const PAGE_OBSERVATIONS: u8 = 0;

/// Page kind: the payload is a sparse `(bucket index, count)` pair list.
pub const PAGE_CELL_COUNTS: u8 = 1;

/// Splits `resp` into pages when it is a pageable kind whose rows do not
/// fit a single page. Returns `None` when the response should ship as a
/// plain frame: non-row-carrying kinds, and row sets that encode within
/// [`PAGE_TARGET_BYTES`].
pub fn pages_for(resp: &Response) -> Option<(u8, Vec<Vec<u8>>)> {
    match resp {
        Response::Observations(rows) => {
            let ranges = batch::split_batch(rows, PAGE_TARGET_BYTES);
            (ranges.len() > 1).then(|| {
                let pages = ranges
                    .into_iter()
                    .map(|(range, len)| {
                        let mut page = Vec::with_capacity(len);
                        batch::encode_batch(&rows[range], &mut page);
                        debug_assert_eq!(page.len(), len, "batch sizing drifted from encoding");
                        page
                    })
                    .collect();
                (PAGE_OBSERVATIONS, pages)
            })
        }
        Response::CellCounts(cells) => {
            let ranges = split_cells(cells);
            (ranges.len() > 1).then(|| {
                let pages = ranges
                    .into_iter()
                    .map(|range| {
                        let mut page = Vec::new();
                        varint::write_u64(&mut page, range.len() as u64);
                        <(u32, u64)>::encode_slice(&cells[range], &mut page);
                        page
                    })
                    .collect();
                (PAGE_CELL_COUNTS, pages)
            })
        }
        _ => None,
    }
}

/// A paged result being put back together on the client, page by page
/// in page order as the pages arrive. Observation pages decode straight
/// into the one output vector.
#[derive(Debug)]
pub enum Reassembly {
    /// Pages of [`PAGE_OBSERVATIONS`] kind.
    Observations(Vec<Observation>),
    /// Pages of [`PAGE_CELL_COUNTS`] kind.
    CellCounts(Vec<(u32, u64)>),
}

impl Reassembly {
    /// Starts reassembling a result of page `kind`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::InvalidValue`] for an unknown page kind.
    pub fn new(kind: u8) -> Result<Self, DecodeError> {
        match kind {
            PAGE_OBSERVATIONS => Ok(Reassembly::Observations(Vec::new())),
            PAGE_CELL_COUNTS => Ok(Reassembly::CellCounts(Vec::new())),
            _ => Err(DecodeError::InvalidValue {
                reason: "unknown page kind",
            }),
        }
    }

    /// Appends the next page's rows.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] when the payload is malformed or has trailing
    /// bytes after its rows.
    pub fn push(&mut self, payload: &[u8]) -> Result<(), DecodeError> {
        let mut buf = payload;
        match self {
            Reassembly::Observations(rows) => batch::decode_batch_into(&mut buf, rows)?,
            Reassembly::CellCounts(cells) => cells.extend(Vec::<(u32, u64)>::decode(&mut buf)?),
        }
        if buf.has_remaining() {
            return Err(DecodeError::InvalidValue {
                reason: "trailing bytes after page",
            });
        }
        Ok(())
    }

    /// The reassembled response.
    pub fn finish(self) -> Response {
        match self {
            Reassembly::Observations(rows) => Response::Observations(rows),
            Reassembly::CellCounts(cells) => Response::CellCounts(cells),
        }
    }
}

/// Splits sparse counts into consecutive ranges whose pair-list
/// encodings each fit the page target, filling every page as far as it
/// goes. Pair widths are exact varint sizes, so nothing is encoded.
fn split_cells(cells: &[(u32, u64)]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let (mut start, mut body) = (0, 0);
    for (i, cell) in cells.iter().enumerate() {
        let width = cell.size_hint();
        let rows = (i - start + 1) as u64;
        if i > start && varint::len_u64(rows) + body + width > PAGE_TARGET_BYTES {
            ranges.push(start..i);
            (start, body) = (i, 0);
        }
        body += width;
    }
    ranges.push(start..cells.len());
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, ObservationId, Signature, SIGNATURE_DIM};
    use stcam_codec::encode_to_vec;
    use stcam_geo::{Point, Timestamp};
    use stcam_world::{EntityClass, EntityId};

    fn obs(n: u64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId((n % 97) as u32), n),
            camera: CameraId((n % 97) as u32),
            time: Timestamp::from_millis(n * 13),
            position: Point::new((n % 1000) as f64, (n / 1000) as f64),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(n),
            truth: Some(EntityId(n)),
        }
    }

    fn reassemble(kind: u8, pages: &[Vec<u8>]) -> Result<Response, DecodeError> {
        let mut result = Reassembly::new(kind)?;
        for page in pages {
            result.push(page)?;
        }
        Ok(result.finish())
    }

    /// The page count the earlier recursive-halving splitter produced:
    /// encode the rows, and split them in half while the encoding is
    /// over the target.
    fn halving_pages(rows: &[Observation]) -> usize {
        let mut page = Vec::new();
        batch::encode_batch(rows, &mut page);
        if page.len() <= PAGE_TARGET_BYTES || rows.len() <= 1 {
            1
        } else {
            let mid = rows.len() / 2;
            halving_pages(&rows[..mid]) + halving_pages(&rows[mid..])
        }
    }

    /// Pages `rows`, then checks the bound, the page count against
    /// halving, and the in-order round trip.
    fn assert_pages_well(rows: Vec<Observation>) -> usize {
        let original = Response::Observations(rows.clone());
        let (kind, pages) = pages_for(&original).expect("oversize result must page");
        assert_eq!(kind, PAGE_OBSERVATIONS);
        assert!(pages.len() > 1);
        for page in &pages {
            assert!(
                page.len() <= PAGE_TARGET_BYTES,
                "page of {} bytes exceeds target",
                page.len()
            );
        }
        assert!(
            pages.len() <= halving_pages(&rows),
            "{} pages, halving made {}",
            pages.len(),
            halving_pages(&rows)
        );
        assert_eq!(reassemble(kind, &pages).unwrap(), original);
        pages.len()
    }

    #[test]
    fn small_results_ship_unpaged() {
        let rows: Vec<_> = (0..10).map(obs).collect();
        assert!(pages_for(&Response::Observations(rows)).is_none());
        assert!(pages_for(&Response::CellCounts(vec![(3, 9), (8, 2)])).is_none());
        assert!(pages_for(&Response::Ack).is_none());
        assert!(pages_for(&Response::Counts(vec![0; 100_000])).is_none());
    }

    #[test]
    fn result_just_within_one_page_ships_unpaged() {
        // The largest prefix whose frame fits the target must not page,
        // and one more row must.
        let rows: Vec<_> = (0..4000).map(obs).collect();
        let fit = batch::split_batch(&rows, PAGE_TARGET_BYTES)[0].0.end;
        let mut frame = Vec::new();
        batch::encode_batch(&rows[..fit], &mut frame);
        assert!(frame.len() <= PAGE_TARGET_BYTES);
        assert!(pages_for(&Response::Observations(rows[..fit].to_vec())).is_none());
        let over = pages_for(&Response::Observations(rows[..=fit].to_vec()));
        assert_eq!(over.map(|(_, pages)| pages.len()), Some(2));
    }

    #[test]
    fn fixed_point_rows_page_within_bound() {
        // Integer-metre positions: the fixed-point position column.
        let pages = assert_pages_well((0..4000).map(obs).collect());
        assert!(pages >= 5);
    }

    #[test]
    fn raw_f64_rows_page_within_bound() {
        // One unrepresentable position per page-sized run switches each
        // page that holds one to raw f64 positions.
        let rows = (0..4000)
            .map(|n| {
                let mut o = obs(n);
                if n % 300 == 7 {
                    o.position = Point::new(0.1 + n as f64, 2.0);
                }
                o
            })
            .collect();
        assert_pages_well(rows);
        let all_raw = (0..4000)
            .map(|n| {
                let mut o = obs(n);
                o.position = Point::new(n as f64 * 1.1, 0.3);
                o
            })
            .collect();
        assert_pages_well(all_raw);
    }

    #[test]
    fn thin_projection_rows_page_within_bound() {
        // Blanked signatures elide the signature column, so many more
        // rows fit a page; a full-signature tail switches pages back.
        let mut rows: Vec<_> = (0..30_000)
            .map(|n| Observation {
                signature: Signature::new([0.0; SIGNATURE_DIM]),
                truth: None,
                ..obs(n)
            })
            .collect();
        let thin = assert_pages_well(rows.clone());
        rows.extend((30_000..31_000).map(obs));
        assert!(assert_pages_well(rows) > thin);
    }

    #[test]
    fn large_cell_count_result_pages_and_reassembles() {
        let cells: Vec<(u32, u64)> = (0..40_000).map(|i| (i, u64::from(i) * 31 + 1)).collect();
        let original = Response::CellCounts(cells.clone());
        let (kind, pages) = pages_for(&original).expect("oversize result must page");
        assert_eq!(kind, PAGE_CELL_COUNTS);
        assert!(pages.len() > 1);
        for page in &pages {
            assert!(page.len() <= PAGE_TARGET_BYTES);
        }
        // Pages are full: together they are no bigger than one frame of
        // the whole list plus one length prefix per extra page.
        let total: usize = pages.iter().map(Vec::len).sum();
        assert!(total <= encode_to_vec(&cells).len() + 3 * (pages.len() - 1));
        assert_eq!(reassemble(kind, &pages).unwrap(), original);
    }

    #[test]
    fn bad_pages_rejected() {
        assert!(Reassembly::new(9).is_err());
        // An observation page with trailing junk.
        let mut page = Vec::new();
        batch::encode_batch(&[obs(1)], &mut page);
        page.push(0xFF);
        assert!(matches!(
            reassemble(PAGE_OBSERVATIONS, &[page]),
            Err(DecodeError::InvalidValue {
                reason: "trailing bytes after page"
            })
        ));
        let mut page = encode_to_vec(&vec![(1u32, 2u64)]);
        page.push(0);
        assert!(reassemble(PAGE_CELL_COUNTS, &[page]).is_err());
    }
}
