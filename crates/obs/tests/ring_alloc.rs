//! Pins the flight recorder's zero-allocation hot path under the
//! `alloc-track` feature: with [`rrq_obs::alloc::TrackingAlloc`]
//! installed as the global allocator, `FlightRecorder::record` must not
//! change the allocation-call count. (`noop_alloc.rs` pins the same
//! property with its own counting allocator so it also runs without the
//! feature; this test is the acceptance gate's `alloc-track` variant.)
//!
//! `TrackingAlloc` keeps process-wide counters, so in principle it books
//! any thread's allocations against the window, the exposure that made
//! `noop_alloc.rs` switch to a per-thread tally. Here it is harmless:
//! this binary holds this one test, so no sibling test runs during the
//! window, and the harness's main thread only waits for the result. A
//! second test in this file would bring the exposure back.
#![cfg(feature = "alloc-track")]

use rrq_obs::alloc::{snapshot, TrackingAlloc};
use rrq_obs::{FlightRecord, FlightRecorder, QueryKind};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

#[test]
fn flight_recorder_capture_adds_zero_heap_allocations() {
    assert!(
        rrq_obs::alloc::is_active(),
        "tracking allocator must be installed for this test to mean anything"
    );
    let ring = FlightRecorder::new(512);
    // Warm-up: construction allocates the slots; the first record must
    // already be free, but let one through anyway before measuring so
    // lazily initialised runtime structures don't pollute the window.
    ring.record(FlightRecord::default());

    let before = snapshot();
    for i in 0..100_000u64 {
        ring.record(FlightRecord {
            kind: if i % 3 == 0 {
                QueryKind::Rkr
            } else {
                QueryKind::Rtk
            },
            cell: (i % 1024) as u32,
            k: 40,
            start_ns: i,
            total_ns: 10_000 + i % 500,
            multiplications: i * 7,
            results: i % 11,
            ..FlightRecord::default()
        });
    }
    let after = snapshot();
    assert_eq!(
        after.alloc_calls - before.alloc_calls,
        0,
        "ring capture made {} allocation calls ({} bytes)",
        after.alloc_calls - before.alloc_calls,
        after.total_bytes - before.total_bytes,
    );
    assert_eq!(ring.recorded(), 100_001);
    // The wrap-around also stayed free: capacity 512 << 100k records.
    assert_eq!(ring.snapshot().len(), 512);
}
