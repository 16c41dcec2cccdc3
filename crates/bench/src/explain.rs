//! Explain-document capture for `rrq-exp --explain`.
//!
//! Re-runs the first sampled query of the configured workload with full
//! pruning provenance ([`rrq_core::Gir::reverse_top_k_explained`] and
//! friends) and returns one versioned [`ExplainDoc`] per engine ×
//! query kind, already funnel-reconciled against the engine's
//! [`QueryStats`] — a capture whose explain layer missed an event the
//! engine counted is refused, not written.
//!
//! Captures are pure functions of the [`ExpConfig`]: same seed and
//! shape ⇒ byte-identical JSON (the `rrq-explain diff` smoke in
//! `check.sh` gates exactly that). With `par_query > 1` the parallel
//! engine is captured alongside the sequential one; deterministic
//! (local) and epoch bound modes reproduce byte-identically too, while
//! shared-atomic mode's bound timeline is scheduling-dependent (its
//! header and results still diff clean structurally).

use crate::ExpConfig;
use rrq_core::{BoundMode, Gir, GirConfig, ParConfig};
use rrq_data::DataSpec;
use rrq_obs::ExplainDoc;
use rrq_types::QueryStats;

/// One captured document: the file suffix (`rtk_gir`, `rkr_par`, …)
/// and the pretty-printed JSON body.
pub struct Captured {
    /// Suffix naming engine × query kind; the binary writes
    /// `<prefix>_<suffix>.json`.
    pub suffix: &'static str,
    /// The document, pretty-printed.
    pub json: String,
}

/// Reconciles `doc` against `stats` and pretty-prints it.
fn seal(suffix: &'static str, doc: &ExplainDoc, stats: &QueryStats) -> Result<Captured, String> {
    doc.funnel
        .reconcile(&stats.counters())
        .map_err(|e| format!("{suffix}: {e}"))?;
    Ok(Captured {
        suffix,
        json: doc.to_pretty(),
    })
}

/// Captures explain documents for the configured workload: sequential
/// GIR rtk + rkr always, the parallel engine's pair when
/// `cfg.par_query > 1`. Every document's funnel is verified against the
/// engine's counters before it is returned.
pub fn capture(cfg: &ExpConfig) -> Result<Vec<Captured>, String> {
    let spec = DataSpec {
        n_weights: cfg.w_card,
        ..DataSpec::uniform_default(6, cfg.p_card, cfg.seed)
    };
    let (p, w) = spec.generate().map_err(|e| format!("generation: {e:?}"))?;
    let mut gir = Gir::new(
        &p,
        &w,
        GirConfig {
            partitions: cfg.partitions,
            ..GirConfig::default()
        },
    );
    if cfg.threshold_index {
        // Same bucket ladder the experiments attach, so captured
        // documents explain exactly what the benchmarks run.
        let buckets = rrq_core::ThresholdIndex::default_buckets(&[cfg.k], p.len());
        let index = gir
            .build_threshold_index(&buckets)
            .map_err(|e| format!("threshold index build: {e}"))?;
        gir.attach_threshold_index(index)
            .map_err(|e| format!("threshold index attach: {e}"))?;
    }
    let q = cfg
        .sample_queries(&p)
        .into_iter()
        .next()
        .ok_or("no queries configured")?;

    let mut out = Vec::new();
    {
        let mut stats = QueryStats::default();
        let mut doc = ExplainDoc::new();
        gir.reverse_top_k_explained(&q, cfg.k, &mut stats, &mut doc);
        out.push(seal("rtk_gir", &doc, &stats)?);
    }
    {
        let mut stats = QueryStats::default();
        let mut doc = ExplainDoc::new();
        gir.reverse_k_ranks_explained(&q, cfg.k, &mut stats, &mut doc);
        out.push(seal("rkr_gir", &doc, &stats)?);
    }
    if cfg.par_query > 1 {
        let mode = if cfg.par_epoch > 0 {
            BoundMode::Epoch(cfg.par_epoch)
        } else {
            BoundMode::Local
        };
        let par = gir.parallel(ParConfig {
            threads: cfg.par_query,
            mode,
        });
        {
            let mut stats = QueryStats::default();
            let mut doc = ExplainDoc::new();
            par.reverse_top_k_explained(&q, cfg.k, &mut stats, &mut doc);
            out.push(seal("rtk_par", &doc, &stats)?);
        }
        {
            let mut stats = QueryStats::default();
            let mut doc = ExplainDoc::new();
            par.reverse_k_ranks_explained(&q, cfg.k, &mut stats, &mut doc);
            out.push(seal("rkr_par", &doc, &stats)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_capture_produces_two_reconciled_docs() {
        let cfg = ExpConfig::smoke();
        let docs = capture(&cfg).expect("capture succeeds");
        let suffixes: Vec<&str> = docs.iter().map(|c| c.suffix).collect();
        assert_eq!(suffixes, vec!["rtk_gir", "rkr_gir"]);
        for c in &docs {
            let doc = ExplainDoc::parse(&c.json).expect("valid explain JSON");
            assert_eq!(doc.engine, "GIR");
            assert!(doc.funnel.weights > 0, "{}: empty funnel", c.suffix);
        }
    }

    #[test]
    fn parallel_capture_adds_par_docs_that_match_structurally() {
        let mut cfg = ExpConfig::smoke();
        cfg.par_query = 2;
        let docs = capture(&cfg).expect("capture succeeds");
        let suffixes: Vec<&str> = docs.iter().map(|c| c.suffix).collect();
        assert_eq!(suffixes, vec!["rtk_gir", "rkr_gir", "rtk_par", "rkr_par"]);
        let rtk_gir = ExplainDoc::parse(&docs[0].json).unwrap();
        let rtk_par = ExplainDoc::parse(&docs[2].json).unwrap();
        assert_eq!(rtk_par.engine, "ParGir");
        assert!(
            rtk_gir.structural_eq(&rtk_par),
            "seq and par disagree: {:?}",
            rtk_gir.diff(&rtk_par, true)
        );
    }

    #[test]
    fn threshold_index_capture_reconciles_with_short_circuits() {
        let mut cfg = ExpConfig::smoke();
        cfg.threshold_index = true;
        let docs = capture(&cfg).expect("capture succeeds");
        let rtk = ExplainDoc::parse(&docs[0].json).expect("valid explain JSON");
        assert!(
            rtk.funnel.threshold_hits > 0,
            "smoke RTK at a materialized bucket should short-circuit"
        );
    }

    #[test]
    fn same_seed_captures_are_byte_identical() {
        let cfg = ExpConfig::smoke();
        let a = capture(&cfg).expect("first capture");
        let b = capture(&cfg).expect("second capture");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.suffix, y.suffix);
            assert_eq!(x.json, y.json, "{} not reproducible", x.suffix);
        }
    }
}
