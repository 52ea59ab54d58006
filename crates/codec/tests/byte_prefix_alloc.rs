//! A byte-sequence length prefix that claims more bytes than the input
//! holds must fail before the decoder allocates the declared length.
//! This test binary installs a counting allocator, so it holds exactly
//! one test: no other test's allocations can land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stcam_codec::{decode_from_slice, varint, DecodeError, MAX_SEQ_LEN};

/// The system allocator, recording the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

#[test]
fn oversized_byte_prefix_is_unexpected_end_without_allocating() {
    let mut bytes = Vec::new();
    varint::write_u64(&mut bytes, MAX_SEQ_LEN);
    bytes.extend_from_slice(&[1, 2, 3]);
    LARGEST.store(0, Ordering::Relaxed);
    let result = decode_from_slice::<Vec<u8>>(&bytes);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        matches!(result, Err(DecodeError::UnexpectedEnd { .. })),
        "{result:?}"
    );
    assert!(
        largest < 1024 * 1024,
        "decode allocated {largest} B for a {MAX_SEQ_LEN} B claim over 3 B of input"
    );
}
