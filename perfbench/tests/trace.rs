//! The traced run: spans nest inside their parents and share their
//! request's id, and the run reports its own overhead and residual.

use rrq_perfbench::measure::Span;
use rrq_perfbench::{run, Config, Scale, Workload};
use std::time::Duration;

fn check_nesting(spans: &[Span]) {
    assert!(!spans.is_empty());
    for s in spans {
        assert!(s.start_ns <= s.end_ns, "{s:?}");
        match s.parent {
            None => assert!(
                s.name.starts_with("request."),
                "layer span without a request: {s:?}"
            ),
            Some(p) => {
                let parent = &spans[p];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{s:?} outside {parent:?}"
                );
                assert_eq!(parent.request, s.request, "{s:?}");
            }
        }
    }
}

/// Every call the workload makes into a layer, each of which must leave
/// a span.
fn layers(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::IndexedPool => &[
            "grid.build",
            "threshold.build",
            "threshold.attach",
            "pool.start",
            "gir.rtk",
            "gir.rkr",
            "par.rtk",
            "par.rkr",
        ],
        Workload::Churn => &[
            "grid.build",
            "threshold.build",
            "snapshot.stage",
            "snapshot.publish",
            "snapshot.view",
            "gir.rtk",
            "gir.rkr",
        ],
    }
}

#[test]
fn spans_nest_and_overhead_is_reported() {
    for workload in Workload::ALL {
        let dir = std::env::temp_dir().join(format!("rrq-perfbench-trace-{}", std::process::id()));
        let path = dir.join(format!("{}.json", workload.name()));
        let cfg = Config {
            workload,
            seed: 5,
            window: Duration::ZERO,
            trace: true,
            scale: Scale::small(workload),
            trace_out: Some(path.clone()),
        };
        let out = run(&cfg).expect("traced run");
        assert!(out.correct, "{workload:?}");
        check_nesting(&out.spans);
        for layer in layers(workload) {
            assert!(
                out.spans.iter().any(|s| s.name == *layer),
                "{workload:?}: no {layer} span"
            );
        }
        for name in ["trace.overhead_frac", "trace.residual_frac"] {
            let m = out.metrics.iter().find(|m| m.name == name).expect(name);
            assert!(
                m.value.is_finite() && m.value != 0.0,
                "{workload:?} {name} = {}",
                m.value
            );
        }
        let doc = rrq_obs::json::parse(&std::fs::read_to_string(&path).expect("trace written"))
            .expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.items())
            .expect("events");
        assert!(
            events.len() > out.spans.len(),
            "one event per span plus metadata"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
