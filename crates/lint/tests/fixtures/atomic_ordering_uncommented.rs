// Fixture: linted under the virtual path crates/obs/src/shared.rs (a
// whitelisted file) — permitted sites still need justifying comments.
use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn read(c: &AtomicU64) -> u64 {
    // ORDERING: relaxed — a monotone counter with no cross-thread
    // happens-before requirement.
    c.load(Ordering::Relaxed)
}
