//! Every count is a pure function of the seed: two runs of one seed
//! agree on `index_bytes`, every per-layer count and the answer digest;
//! another seed changes them.

use rrq_perfbench::{run, Config, Metric, Outcome, Scale, Workload};
use std::time::Duration;

fn small(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let cfg = Config {
        workload,
        seed,
        window: Duration::ZERO,
        trace,
        scale: Scale::small(workload),
        trace_out: None,
    };
    let out = run(&cfg).expect("run");
    assert!(out.correct, "{workload:?} seed {seed}");
    out
}

fn exact(out: &Outcome) -> Vec<(&'static str, u64)> {
    out.metrics
        .iter()
        .filter(|m| m.exact)
        .map(|m: &Metric| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn same_seed_same_counts_other_seed_other_counts() {
    for workload in Workload::ALL {
        let a = small(workload, 11, true);
        let b = small(workload, 11, true);
        assert_eq!(a.digest, b.digest, "{workload:?}");
        assert_eq!(exact(&a), exact(&b), "{workload:?}");
        assert!(exact(&a).iter().any(|&(name, _)| name == "gir.rkr.mults"));
        assert!(!exact(&a)
            .iter()
            .any(|&(name, _)| name == "pool.worker_skew"));

        let (u, v) = (small(workload, 11, false), small(workload, 11, false));
        assert_eq!(
            u.digest, a.digest,
            "{workload:?}: traced and untraced runs answer alike"
        );
        assert_eq!(
            exact(&u),
            exact(&v),
            "{workload:?}: index_bytes and ok_frac"
        );

        let c = small(workload, 12, true);
        assert_ne!(c.digest, a.digest, "{workload:?}");
        assert_ne!(exact(&c), exact(&a), "{workload:?}");
    }
}
