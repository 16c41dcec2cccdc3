//! Property-style tests for the k-best heap: it must agree with the
//! sort-and-truncate oracle on arbitrary offer sequences, and its
//! threshold must be a safe early-termination bound. Cases are drawn from
//! a seeded deterministic PRNG (the offline build has no `proptest`).

use rrq_data::rng::{Rng, StdRng};
use rrq_types::{KBestHeap, WeightId};

const CASES: usize = 64;

/// The heap retains exactly the k smallest (rank, id) pairs of a
/// duplicate-free offer sequence, in canonical order.
#[test]
fn heap_equals_sort_truncate() {
    let mut rng = StdRng::seed_from_u64(0xBE57_0001);
    for _ in 0..CASES {
        let len = rng.gen_range(0..200);
        let raw: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.gen_range(0..1000), rng.gen_range(0..500)))
            .collect();
        let k = rng.gen_range(0..50);
        let mut oracle: Vec<(usize, usize)> = raw.clone();
        oracle.sort_unstable();
        oracle.dedup();
        let mut heap = KBestHeap::new(k);
        for &(rank, id) in &oracle {
            heap.offer(rank, WeightId(id));
        }
        let got: Vec<(usize, usize)> = heap
            .into_result()
            .entries()
            .iter()
            .map(|e| (e.rank, e.weight.0))
            .collect();
        oracle.truncate(k);
        assert_eq!(got, oracle);
    }
}

/// The threshold is safe: an offer whose rank exceeds it is never
/// retained, and the result always holds min(k, offers) entries.
#[test]
fn threshold_is_safe() {
    let mut rng = StdRng::seed_from_u64(0xBE57_0002);
    for _ in 0..CASES {
        let len = rng.gen_range(1..100);
        let entries: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.gen_range(0..100), rng.gen_range(0..1000)))
            .collect();
        let k = rng.gen_range(1..20);
        let mut heap = KBestHeap::new(k);
        for &(rank, id) in &entries {
            let t = heap.threshold();
            let retained = heap.offer(rank, WeightId(id));
            if rank > t {
                assert!(!retained, "rank {rank} above threshold {t} must lose");
            }
        }
        assert_eq!(heap.into_result().len(), k.min(entries.len()));
    }
}

/// Thresholds are monotonically non-increasing as entries arrive (the
/// self-refining minRank property of paper Alg. 3).
#[test]
fn threshold_monotone_under_improvement() {
    let mut rng = StdRng::seed_from_u64(0xBE57_0003);
    for _ in 0..CASES {
        let len = rng.gen_range(1..100);
        let ranks: Vec<usize> = (0..len).map(|_| rng.gen_range(0..10_000)).collect();
        let k = rng.gen_range(1..10);
        let mut heap = KBestHeap::new(k);
        let mut last = heap.threshold();
        for (i, &rank) in ranks.iter().enumerate() {
            heap.offer(rank, WeightId(i));
            let t = heap.threshold();
            assert!(t <= last, "threshold rose from {last} to {t}");
            last = t;
        }
    }
}

/// The retained set does not depend on the order of the offers: every
/// permutation of a stream with heavy rank ties yields the same result.
/// Best-first RKR, which offers weights in rank-floor order instead of
/// id order, rests on this.
#[test]
fn result_is_independent_of_offer_order() {
    let mut rng = StdRng::seed_from_u64(0xBE57_0004);
    for _ in 0..CASES {
        let len = rng.gen_range(1..60);
        // Unique weight ids (one offer per weight, as in a scan) with
        // ranks drawn from a handful of values.
        let mut stream: Vec<(usize, usize)> =
            (0..len).map(|id| (rng.gen_range(0..4), id)).collect();
        for k in [1, 3, len, len + 1] {
            let run = |offers: &[(usize, usize)]| {
                let mut heap = KBestHeap::new(k);
                for &(rank, id) in offers {
                    heap.offer(rank, WeightId(id));
                }
                heap.into_result()
            };
            let want = run(&stream);
            for _ in 0..8 {
                // Fisher–Yates shuffle.
                for i in (1..stream.len()).rev() {
                    stream.swap(i, rng.gen_range(0..i + 1));
                }
                assert_eq!(run(&stream), want, "k {k} offers {stream:?}");
            }
        }
    }
}
