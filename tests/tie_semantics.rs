//! Tie-semantics consistency suite: every algorithm must apply the same
//! strict-`<` rank semantics when `f_w(q) = f_w(p)` EXACTLY.
//!
//! The paper defines `rank(w, q) = |{p ∈ P : f_w(p) < f_w(q)}|`, so a
//! product that *ties* the query must NOT count against it. Ties are
//! easy to get wrong in two independent places: the exact refinement
//! comparison (`<` vs `<=`) and the grid classifier's integer threshold
//! (a cell whose upper corner score equals `f_w(q)` exactly must stay
//! `Incomparable`, not `Precedes` — the bug fixed in
//! `Grid::prepare_scan`).
//!
//! All scores here are constructed from dyadic rationals (0.25, 0.5,
//! 2.0, 4.0, ...) so inner products are bit-exact in f64 and the ties
//! are real ties, not almost-ties.

use reverse_rank::data::DataSpec;
use reverse_rank::{
    Bbr, BbrConfig, Gir, GirConfig, Mpa, MpaConfig, Naive, ParConfig, PointId, PointSet,
    QueryStats, RkrQuery, Rta, RtkQuery, Sim, SparseGir, WeightSet,
};

/// A 2-d workload saturated with exact ties against the query
/// `q = (4, 4)`:
///
/// * duplicates of `q` itself (tie under every weight),
/// * swap pairs `(2,6)/(6,2)`, `(3,5)/(5,3)` (tie under `w = (½,½)`),
/// * `(1,5)` and `(7,3)` (tie under `w = (¼,¾)`),
/// * strictly better / worse points so ranks are non-trivial,
/// * duplicated weight rows (equal preferences must answer equally).
fn tie_workload_2d() -> (PointSet, WeightSet, Vec<f64>) {
    let p = PointSet::from_flat(
        2,
        10.0,
        &[
            4.0, 4.0, // p0 = q
            4.0, 4.0, // p1 = q (duplicate)
            2.0, 6.0, // p2: ties q under (½,½)
            6.0, 2.0, // p3: ties q under (½,½)
            3.0, 5.0, // p4: ties q under (½,½)
            5.0, 3.0, // p5: ties q under (½,½)
            1.0, 5.0, // p6: ties q under (¼,¾)
            7.0, 3.0, // p7: ties q under (¼,¾)
            0.5, 0.5, // p8: strictly precedes q everywhere
            9.0, 9.0, // p9: strictly succeeds q everywhere
            4.0, 4.0, // p10 = q (another duplicate)
            2.0, 2.0, // p11: strictly precedes q everywhere
        ],
    )
    .unwrap();
    let w = WeightSet::from_flat(
        2,
        &[
            0.5, 0.5, //
            0.25, 0.75, //
            0.75, 0.25, //
            0.5, 0.5, // duplicate of w0
            0.25, 0.75, // duplicate of w1
            1.0, 0.0, // axis weight: many ties at 4.0 in dim 0
        ],
    )
    .unwrap();
    (p, w, vec![4.0, 4.0])
}

/// A 3-d variant: `q = (4, 4, 4)`, ties engineered under
/// `w = (½, ¼, ¼)` — `(4,2,6)`, `(2,6,6)`, `(6,2,2)`, `(8,0,0)` all
/// score exactly 4.0.
fn tie_workload_3d() -> (PointSet, WeightSet, Vec<f64>) {
    let p = PointSet::from_flat(
        3,
        10.0,
        &[
            4.0, 4.0, 4.0, // q itself
            4.0, 2.0, 6.0, // tie under (½,¼,¼)
            2.0, 6.0, 6.0, // tie under (½,¼,¼)
            6.0, 2.0, 2.0, // tie under (½,¼,¼)
            8.0, 0.0, 0.0, // tie under (½,¼,¼)
            1.0, 1.0, 1.0, // strictly precedes
            8.0, 8.0, 8.0, // strictly succeeds
            4.0, 4.0, 4.0, // duplicate of q
            0.0, 8.0, 8.0, // tie under (½,¼,¼)
        ],
    )
    .unwrap();
    let w = WeightSet::from_flat(
        3,
        &[
            0.5, 0.25, 0.25, //
            0.25, 0.5, 0.25, //
            0.25, 0.25, 0.5, //
            0.5, 0.25, 0.25, // duplicate of w0
        ],
    )
    .unwrap();
    (p, w, vec![4.0, 4.0, 4.0])
}

/// The degenerate single-dimension workload: with `d = 1` the only valid
/// weight row is `[1.0]`, so every weight duplicates every other and a
/// point's score is its lone coordinate. Grid cells, dominance and
/// refinement all collapse — and must still agree on strict-`<` ranks
/// against `q = 4.0` with duplicates of `q` in the point set.
fn tie_workload_1d() -> (PointSet, WeightSet, Vec<f64>) {
    let p = PointSet::from_flat(
        1,
        10.0,
        &[
            4.0, // p0 = q
            4.0, // p1 = q (duplicate)
            2.0, // p2: strictly precedes
            2.0, // p3: duplicate of p2
            6.0, // p4: strictly succeeds
            4.0, // p5 = q (another duplicate)
            0.0, // p6: domain minimum
            9.5, // p7: near the (exclusive) domain maximum
        ],
    )
    .unwrap();
    let w = WeightSet::from_flat(1, &[1.0, 1.0, 1.0]).unwrap();
    (p, w, vec![4.0])
}

fn gir_configs() -> Vec<GirConfig> {
    let mut cfgs = Vec::new();
    for partitions in [4usize, 32, 128] {
        for packed in [false, true] {
            for use_domin in [false, true] {
                cfgs.push(GirConfig {
                    partitions,
                    packed,
                    use_domin,
                });
            }
        }
    }
    cfgs
}

fn check_workload(p: &PointSet, w: &WeightSet, q: &[f64]) {
    let naive = Naive::new(p, w);
    let sim = Sim::new(p, w);
    let bbr = Bbr::new(p, w, BbrConfig::default());
    let mpa = Mpa::new(p, w, MpaConfig::default());
    let rta = Rta::new(p, w);
    let sparse = SparseGir::new(p, w, 16);
    let girs: Vec<Gir> = gir_configs()
        .into_iter()
        .map(|c| Gir::new(p, w, c))
        .collect();

    let ks = [1usize, 2, 3, w.len(), w.len() + 3];
    for &k in &ks {
        let mut s = QueryStats::default();
        let rtk_expected = naive.reverse_top_k(q, k, &mut s);
        let rkr_expected = naive.reverse_k_ranks(q, k, &mut s);

        let rtk_algs: Vec<&dyn RtkQuery> = vec![&sim, &bbr, &mpa, &rta, &sparse];
        for alg in rtk_algs {
            let mut s = QueryStats::default();
            assert_eq!(
                alg.reverse_top_k(q, k, &mut s),
                rtk_expected,
                "{} RTK differs from NAIVE on exact ties (k={k})",
                alg.name()
            );
        }
        let rkr_algs: Vec<&dyn RkrQuery> = vec![&sim, &mpa, &sparse];
        for alg in rkr_algs {
            let mut s = QueryStats::default();
            assert_eq!(
                alg.reverse_k_ranks(q, k, &mut s),
                rkr_expected,
                "{} RKR differs from NAIVE on exact ties (k={k})",
                alg.name()
            );
        }

        for gir in &girs {
            let mut s = QueryStats::default();
            assert_eq!(
                gir.reverse_top_k(q, k, &mut s),
                rtk_expected,
                "GIR {:?} RTK differs from NAIVE on exact ties (k={k})",
                gir.config()
            );
            let mut s = QueryStats::default();
            assert_eq!(
                gir.reverse_k_ranks(q, k, &mut s),
                rkr_expected,
                "GIR {:?} RKR differs from NAIVE on exact ties (k={k})",
                gir.config()
            );
            // The parallel engine inherits whatever tie semantics the
            // sequential scan has — both modes must match too.
            for par in [ParConfig::deterministic(3), ParConfig::epoch(2, 1)] {
                let eng = gir.parallel(par);
                let mut s = QueryStats::default();
                assert_eq!(eng.reverse_top_k(q, k, &mut s), rtk_expected);
                let mut s = QueryStats::default();
                assert_eq!(eng.reverse_k_ranks(q, k, &mut s), rkr_expected);
            }
        }
    }
}

#[test]
fn exact_ties_2d_all_algorithms_agree() {
    let (p, w, q) = tie_workload_2d();
    check_workload(&p, &w, &q);

    // Ground-truth spot checks so the suite fails loudly if NAIVE itself
    // ever regresses. Hand-computed strict-< ranks (tied scores at
    // exactly 4.0 MUST NOT count): w0=(½,½) sees p6, p8, p11 below q;
    // w1=(¼,¾) sees p3, p5, p8, p11; w2=(¾,¼) sees p2, p4, p6, p8, p11;
    // the axis weight w5=(1,0) sees p2, p4, p6, p8, p11.
    let naive = Naive::new(&p, &w);
    let mut s = QueryStats::default();
    let rkr = naive.reverse_k_ranks(&q, w.len(), &mut s);
    let rank_of = |wid: usize| {
        rkr.entries()
            .iter()
            .find(|e| e.weight.0 == wid)
            .map(|e| e.rank)
            .unwrap()
    };
    assert_eq!(
        [0, 1, 2, 3, 4, 5].map(rank_of),
        [3, 4, 5, 3, 4, 5],
        "strict-< ranks regressed (ties counted against q?)"
    );
}

#[test]
fn exact_ties_3d_all_algorithms_agree() {
    let (p, w, q) = tie_workload_3d();
    check_workload(&p, &w, &q);
}

#[test]
fn exact_ties_1d_all_algorithms_agree() {
    let (p, w, q) = tie_workload_1d();
    check_workload(&p, &w, &q);

    // Every weight sees exactly p2, p3, p6 strictly below q = 4.0; the
    // three duplicates of q tie and must not count.
    let naive = Naive::new(&p, &w);
    let mut s = QueryStats::default();
    let rkr = naive.reverse_k_ranks(&q, w.len(), &mut s);
    assert!(
        rkr.entries().iter().all(|e| e.rank == 3),
        "1-d strict-< ranks regressed: {:?}",
        rkr.entries()
    );
}

/// Exact duplicate points (`p_i == p_j` bit-for-bit) must be counted
/// individually: rank is a multiset cardinality, so a pair of equal
/// points below `q` contributes 2, not 1 — and duplicates *of* `q`
/// still contribute 0.
#[test]
fn exact_duplicate_points_count_individually() {
    let p = PointSet::from_flat(
        2,
        10.0,
        &[
            1.0, 1.0, // p0: below q under every weight
            1.0, 1.0, // p1 = p0
            4.0, 4.0, // p2 = q
            4.0, 4.0, // p3 = q
            7.0, 7.0, // p4: above q everywhere
            7.0, 7.0, // p5 = p4
        ],
    )
    .unwrap();
    let w = WeightSet::from_flat(2, &[0.5, 0.5, 0.25, 0.75, 0.5, 0.5]).unwrap();
    let q = vec![4.0, 4.0];
    check_workload(&p, &w, &q);

    let naive = Naive::new(&p, &w);
    let mut s = QueryStats::default();
    let rkr = naive.reverse_k_ranks(&q, w.len(), &mut s);
    assert!(
        rkr.entries().iter().all(|e| e.rank == 2),
        "each member of a duplicate pair below q must count once: {:?}",
        rkr.entries()
    );
}

/// Duplicating an entire generated workload (every point and weight
/// twice) keeps all algorithms in agreement — every score collides with
/// its twin, so tie handling is exercised on realistic data too.
#[test]
fn duplicated_generated_workload_agrees() {
    let spec = DataSpec::uniform_default(4, 120, 0xD0_17);
    let (p0, w0) = spec.generate().unwrap();
    let mut p = PointSet::new(p0.dim(), p0.value_range()).unwrap();
    for i in 0..p0.len() {
        let row = p0.point(PointId(i)).to_vec();
        p.push_slice(&row).unwrap();
        p.push_slice(&row).unwrap();
    }
    let mut flat = Vec::new();
    for i in 0..w0.len() {
        let row = w0.weight(reverse_rank::WeightId(i)).to_vec();
        flat.extend_from_slice(&row);
        flat.extend_from_slice(&row);
    }
    let w = WeightSet::from_flat(w0.dim(), &flat).unwrap();
    for qid in [0usize, 77, 239] {
        let q = p.point(PointId(qid)).to_vec();
        check_workload(&p, &w, &q);
    }
}
