//! The workloads, metric names and units the command prints are exactly
//! those `BENCHMARK.json` declares, in both directions.

use rrq_obs::json::{self, Json};
use rrq_perfbench::{run, Config, Scale, Workload};
use std::collections::BTreeSet;
use std::time::Duration;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(doc: &Json, key: &str) -> BTreeSet<(String, String)> {
    doc.get(key)
        .and_then(Json::items)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn printed(workload: Workload, trace: bool) -> BTreeSet<(String, String)> {
    let cfg = Config {
        workload,
        seed: 3,
        window: Duration::ZERO,
        trace,
        scale: Scale::small(workload),
        trace_out: None,
    };
    let line = run(&cfg).expect("run").json_line();
    let doc = json::parse(&line).expect("result line parses");
    let keys: Vec<&str> = doc
        .entries()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload:?}");
    doc.get("metrics")
        .and_then(Json::entries)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn workloads_match_the_declaration() {
    let doc = declared();
    let declared: BTreeSet<String> = doc
        .get("workloads")
        .and_then(Json::items)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared, ours);
    for name in &declared {
        assert_eq!(
            Workload::parse(name).map(Workload::name),
            Some(name.as_str())
        );
    }
}

#[test]
fn printed_metrics_match_the_declaration() {
    let doc = declared();
    let end_to_end = names_units(&doc, "end_to_end");
    let per_layer = names_units(&doc, "per_layer");
    for workload in Workload::ALL {
        assert_eq!(
            printed(workload, false),
            end_to_end,
            "{workload:?} untraced"
        );
        assert_eq!(printed(workload, true), per_layer, "{workload:?} traced");
    }
}
