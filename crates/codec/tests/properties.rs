//! Property-based tests: the codec round-trips arbitrary values and never
//! panics on arbitrary input bytes.

use bytes::BytesMut;
use proptest::prelude::*;
use stcam_codec::{decode_from_slice, encode_to_vec, frame, varint, Wire};
use stcam_geo::{BBox, CellId, Point, TimeInterval, Timestamp};

fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = encode_to_vec(v);
    let back: T = decode_from_slice(&bytes).expect("decode of fresh encode");
    prop_assert_eq!(&back, v);
    Ok(())
}

/// A byte that keeps the trait's per-element sequence loop, so
/// `Vec<Byte>` encodes and decodes the way `Vec<u8>` did before `u8`
/// gained its bulk slice hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Byte(u8);

impl Wire for Byte {
    fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
        self.0.encode(buf);
    }
    fn decode<B: bytes::Buf>(buf: &mut B) -> Result<Self, stcam_codec::DecodeError> {
        u8::decode(buf).map(Byte)
    }
}

proptest! {
    #[test]
    fn bulk_byte_vectors_match_the_per_element_form(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let per_element: Vec<Byte> = bytes.iter().copied().map(Byte).collect();
        let bulk = encode_to_vec(&bytes);
        prop_assert_eq!(&bulk, &encode_to_vec(&per_element));
        let back: Vec<Byte> = decode_from_slice(&bulk).unwrap();
        prop_assert_eq!(&back, &per_element);
        let back: Vec<u8> = decode_from_slice(&encode_to_vec(&per_element)).unwrap();
        prop_assert_eq!(&back, &bytes);
        // Truncation fails the same way on both paths.
        if !bulk.is_empty() {
            let cut = &bulk[..bulk.len() - 1];
            prop_assert_eq!(
                decode_from_slice::<Vec<u8>>(cut).is_err(),
                decode_from_slice::<Vec<Byte>>(cut).is_err()
            );
        }
    }

    #[test]
    fn varint_round_trip(v in any::<u64>()) {
        let mut buf = BytesMut::new();
        varint::write_u64(&mut buf, v);
        prop_assert_eq!(buf.len(), varint::len_u64(v));
        let mut slice = &buf[..];
        prop_assert_eq!(varint::read_u64(&mut slice).unwrap(), v);
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn zigzag_round_trip(v in any::<i64>()) {
        prop_assert_eq!(varint::unzigzag(varint::zigzag(v)), v);
    }

    #[test]
    fn varint_ordering_by_magnitude(a in any::<u64>(), b in any::<u64>()) {
        // Wider values never take fewer bytes.
        if a <= b {
            prop_assert!(varint::len_u64(a) <= varint::len_u64(b));
        }
    }

    #[test]
    fn scalar_round_trips(v in any::<u64>(), w in any::<i64>(), x in any::<f64>()) {
        round_trip(&v)?;
        round_trip(&w)?;
        if !x.is_nan() {
            round_trip(&x)?;
        }
    }

    #[test]
    fn compound_round_trips(
        s in ".*",
        v in prop::collection::vec(any::<u32>(), 0..100),
        o in proptest::option::of(any::<u64>()),
    ) {
        round_trip(&s.to_string())?;
        round_trip(&v)?;
        round_trip(&o)?;
        round_trip(&(s.to_string(), v, o))?;
    }

    #[test]
    fn geo_round_trips(
        x in -1e6..1e6f64, y in -1e6..1e6f64,
        col in any::<u32>(), row in any::<u32>(),
        t0 in 0u64..u64::MAX / 2, dt in 0u64..1_000_000,
    ) {
        round_trip(&Point::new(x, y))?;
        round_trip(&BBox::from_corners(Point::new(x, y), Point::new(y, x)))?;
        round_trip(&CellId::new(col, row))?;
        round_trip(&TimeInterval::new(
            Timestamp::from_millis(t0),
            Timestamp::from_millis(t0 + dt),
        ))?;
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any decode must return Ok or Err, never panic or hang.
        let _ = decode_from_slice::<u64>(&bytes);
        let _ = decode_from_slice::<String>(&bytes);
        let _ = decode_from_slice::<Vec<u64>>(&bytes);
        let _ = decode_from_slice::<Option<(u64, String)>>(&bytes);
        let _ = decode_from_slice::<TimeInterval>(&bytes);
        let _ = decode_from_slice::<Vec<(CellId, Vec<f32>)>>(&bytes);
    }

    #[test]
    fn frame_round_trip(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = BytesMut::new();
        frame::write_frame(&mut buf, &payload);
        let got = frame::read_frame(&mut buf).unwrap().unwrap();
        prop_assert_eq!(got, payload);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn frame_single_bit_flip_detected(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut buf = BytesMut::new();
        frame::write_frame(&mut buf, &payload);
        let idx = flip_byte.index(buf.len());
        buf[idx] ^= 1 << flip_bit;
        // A flip anywhere is either detected as an error or (if it hit the
        // length field making the frame appear longer) reported incomplete.
        // It must never yield a successfully-decoded *different* payload.
        if let Ok(Some(p)) = frame::read_frame(&mut buf) {
            prop_assert_eq!(p, payload);
        }
    }

    #[test]
    fn frame_reader_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = BytesMut::from(&bytes[..]);
        let _ = frame::read_frame(&mut buf);
    }
}
