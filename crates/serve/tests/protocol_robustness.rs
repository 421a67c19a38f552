//! The wire decoders against hostile input: arbitrary bytes, every
//! truncation of a valid frame and every length prefix up to `u32::MAX`
//! must give an error (or a faithful decode), never a panic, and a length
//! prefix over `MAX_FRAME` must be refused before anything is allocated
//! for its payload.
//!
//! Allocation is measured per thread by a counting global allocator, so
//! the test harness's parallel threads do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};

use ams_serve::protocol::{
    decode_request, decode_response, encode_classify, read_frame, write_frame, ClassifyRequest,
    Request, MAX_FRAME,
};
use proptest::collection::vec;
use proptest::prelude::*;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards every request to [`System`] and sums, per thread, the bytes
/// requested.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: allocations made while the thread-local is torn down
    // are not counted.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: each method passes the caller's pointer and layout to `System`
// unchanged and returns its result unchanged; the bookkeeping touches a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread allocates while running `f`, with `f`'s result.
fn allocated<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (BYTES.with(Cell::get) - before, r)
}

/// The error value plus its boxed message: what building an
/// `io::Error` for a rejected frame may allocate.
const ERROR_BYTES: u64 = 256;

/// A reader over `buf` that counts the bytes handed out.
struct Tally<'a> {
    buf: &'a [u8],
    read: usize,
}

impl Read for Tally<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let k = self.buf.read(out)?;
        self.read += k;
        Ok(k)
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, payload).expect("writing to a Vec cannot fail");
    frame
}

fn classify(seq: u64, seed: u64, t_infer: Option<f64>, pixels: Vec<f32>) -> Vec<u8> {
    encode_classify(&ClassifyRequest {
        seq,
        seed,
        t_infer,
        pixels,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bytes, with and without a valid request tag in front: the
    /// decoders return, and whatever they accept re-encodes to the same
    /// bytes.
    #[test]
    fn arbitrary_bytes_never_panic(
        tag in 0u8..5,
        tagged in 0u8..2,
        body in vec(0u8..=255, 0..96),
    ) {
        let mut payload = body;
        if tagged == 1 {
            payload.insert(0, tag);
        }
        match decode_request(&payload) {
            Ok(Request::Classify(req)) => prop_assert_eq!(encode_classify(&req), payload.clone()),
            Ok(Request::Shutdown) => prop_assert_eq!(&payload[..], &[2u8][..]),
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        }
        let _ = decode_response(&payload);
        let mut r = Tally { buf: &payload, read: 0 };
        if let Ok(Some(p)) = read_frame(&mut r) {
            prop_assert_eq!(r.read, 4 + p.len());
            prop_assert_eq!(&payload[4..4 + p.len()], &p[..]);
        }
    }

    /// Every proper prefix of a valid 0x01 or 0x03 frame is an error at
    /// the frame layer, and every proper prefix of its payload is an
    /// error at the decode layer. Only the empty stream is a clean EOF.
    #[test]
    fn every_truncation_of_a_valid_frame_is_an_error(
        seq in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        timed in 0u8..2,
        t in 1e-3f64..1e9,
        pixels in vec(-2.0f32..2.0, 0..12),
    ) {
        let payload = classify(seq, seed, (timed == 1).then_some(t), pixels);
        let frame = framed(&payload);
        prop_assert!(read_frame(&mut &frame[..]).unwrap().unwrap() == payload);
        prop_assert!(decode_request(&payload).is_ok());
        prop_assert!(read_frame(&mut &frame[..0]).unwrap().is_none());
        for cut in 1..frame.len() {
            prop_assert!(read_frame(&mut &frame[..cut]).is_err(), "frame cut at {}", cut);
        }
        for cut in 0..payload.len() {
            prop_assert!(decode_request(&payload[..cut]).is_err(), "payload cut at {}", cut);
        }
    }

    /// Any length prefix, followed by fewer bytes than it announces:
    /// always an error. Over `MAX_FRAME` it fails after reading only the
    /// prefix and allocating no more than the error itself; at or under
    /// it, the frame layer allocates at most the announced length.
    #[test]
    fn length_prefixes_are_bounded_before_allocation(
        any_len in 0u32..=u32::MAX,
        near_len in 0u32..=(MAX_FRAME as u32 + 64),
        tail in vec(0u8..=255, 0..32),
    ) {
        for len in [any_len, near_len, MAX_FRAME as u32, MAX_FRAME as u32 + 1, u32::MAX] {
            let mut stream = len.to_le_bytes().to_vec();
            stream.extend_from_slice(&tail);
            let mut r = Tally { buf: &stream, read: 0 };
            let (bytes, got) = allocated(|| read_frame(&mut r));
            if len as usize <= tail.len() {
                prop_assert!(got.unwrap().unwrap() == tail[..len as usize]);
                continue;
            }
            let err = got.expect_err("a short frame must be an error");
            if len as usize > MAX_FRAME {
                prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                prop_assert_eq!(r.read, 4, "read past the prefix of a {}-byte frame", len);
                prop_assert!(bytes <= ERROR_BYTES, "{} B allocated for a refused frame", bytes);
            } else {
                prop_assert!(bytes <= u64::from(len) + ERROR_BYTES, "{} B for a {}-byte frame", bytes, len);
            }
        }
    }
}

/// A stream that ends inside the length prefix is torn, not a clean EOF.
#[test]
fn torn_length_prefix_is_an_error() {
    let frame = framed(&[2]);
    for cut in 1..4 {
        let err = read_frame(&mut &frame[..cut]).expect_err("torn prefix");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}
