//! The GIR algorithm: Grid-index filtered scan for reverse top-k and
//! reverse k-ranks (paper §4, Algorithms 1–3).
//!
//! GIR is an optimised simple scan. For each weight it walks the
//! *approximate* vectors `P⁽ᴬ⁾`, assembling score bounds from the
//! Grid-index by pure addition. Most points are classified without a
//! multiplication:
//!
//! * **Case 1** (`U[f_w(p)] < f_w(q)`): `p` surely precedes `q` — count
//!   it. If it also dominates `q` it enters the global `Domin` buffer and
//!   is never scanned again.
//! * **Case 2** (`L[f_w(p)] ≥ f_w(q)`): `p` surely does not precede `q` —
//!   skip it.
//! * **Case 3** (otherwise): incomparable — defer to a refinement pass
//!   that checks the original data.
//!
//! The scan terminates as soon as the rank bound is hit: `k` for RTK
//! (Alg. 2), the self-refining `minRank` heap bound for RKR (Alg. 3).
//!
//! Note on strictness: the paper states Case 1 as `U < f_w(q)` in §3.1
//! but writes `≤` in Alg. 1 line 5; because `rank` counts *strictly*
//! preceding points, `<` is the safe direction and is what we implement
//! (a point with `f_w(p) = f_w(q)` does not improve `q`'s rank).

use crate::approx::{ApproxVectors, PackedApproxVectors};
use crate::grid::{BoundCase, Grid, GridTable, PreparedScan};
use crate::snapshot::{DeltaIndex, EngineState};
use crate::threshold::{RtkThresholdOutcome, ThresholdIndex};
use rrq_obs::{
    span, timed_leaf, BoundSource, ExplainClass, ExplainDoc, ExplainKind, ExplainSink,
    NoopRecorder, NoopSink, Recorder, RANK_CERTIFIED,
};
use rrq_types::{
    dot_counted, KBestHeap, PointId, PointSet, QueryStats, RkrQuery, RkrResult, RtkQuery,
    RtkResult, WeightSet,
};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Configuration of the GIR algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GirConfig {
    /// Number of value-range partitions `n` (the paper's default is 32,
    /// justified by Theorem 1).
    pub partitions: usize,
    /// Keep the global `Domin` buffer of query-dominating points
    /// (Alg. 1 lines 7–8). On by default; the ablation bench disables it.
    pub use_domin: bool,
    /// Scan from bit-packed approximate vectors (paper §3.2) instead of
    /// byte-per-dimension rows. Saves ~8× approximate-vector memory at the
    /// cost of per-row decoding. Off by default.
    pub packed: bool,
}

impl Default for GirConfig {
    fn default() -> Self {
        Self {
            partitions: 32,
            use_domin: true,
            packed: false,
        }
    }
}

impl GirConfig {
    /// A configuration tuned for modern (SIMD) hardware: `n = 128`.
    ///
    /// The paper's `n = 32` follows Theorem 1, whose model understates
    /// bound widths (see EXPERIMENTS.md); with vectorised scans the extra
    /// table memory (133 KB, still cache-resident) buys a markedly lower
    /// refinement rate and wins wall-clock across dimensionalities.
    pub fn tuned() -> Self {
        Self {
            partitions: 128,
            ..Self::default()
        }
    }
}

/// Row-major approximate cells, byte-format or bit-packed. Byte cells are
/// borrowed when the epoch snapshot layer's base data owns the
/// quantisation and hands out views ([`Gir::snapshot_view`]).
enum CellStore<'a> {
    Bytes(Cow<'a, ApproxVectors>),
    Packed(PackedApproxVectors),
}

impl CellStore<'_> {
    fn new(bytes: ApproxVectors, packed: bool, partitions: usize) -> Self {
        if packed {
            let bits = PackedApproxVectors::bits_for_partitions(partitions);
            CellStore::Packed(PackedApproxVectors::pack(&bytes, bits))
        } else {
            CellStore::Bytes(Cow::Owned(bytes))
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            CellStore::Bytes(b) => b.memory_bytes(),
            CellStore::Packed(p) => p.memory_bytes(),
        }
    }
}

/// Row-major approximate cells of a run of scan lanes: borrowed from the
/// byte layout, decoded into `buf` from the packed one.
pub(crate) trait CellRows {
    fn cells<'s>(&'s self, i: usize, buf: &'s mut [u8]) -> &'s [u8];
}

impl CellRows for ApproxVectors {
    #[inline]
    fn cells<'s>(&'s self, i: usize, _buf: &'s mut [u8]) -> &'s [u8] {
        self.row(i)
    }
}

impl CellRows for PackedApproxVectors {
    #[inline]
    fn cells<'s>(&'s self, i: usize, buf: &'s mut [u8]) -> &'s [u8] {
        self.decode_row(i, buf);
        buf
    }
}

/// The Grid-index reverse rank algorithm bound to a data set pair.
///
/// Generic over the corner-product table: the paper's equal-width
/// [`Grid`] by default, or the quantile [`crate::AdaptiveGrid`] extension.
///
/// ```
/// use rrq_core::Gir;
/// use rrq_types::{PointSet, WeightSet, QueryStats, RtkQuery, RkrQuery, WeightId};
///
/// let products = PointSet::from_flat(2, 10.0, &[
///     1.0, 9.0,   // cheap, weak battery
///     8.0, 2.0,   // pricey, great battery
/// ])?;
/// let users = WeightSet::from_flat(2, &[
///     0.9, 0.1,   // price-sensitive
///     0.1, 0.9,   // battery-obsessed
/// ])?;
/// let gir = Gir::with_defaults(&products, &users);
/// let mut stats = QueryStats::default();
///
/// // Who shortlists the cheap phone?
/// let fans = gir.reverse_top_k(&[1.0, 9.0], 1, &mut stats);
/// assert!(fans.contains(WeightId(0)));
/// // And the k-ranks query never returns empty:
/// let best = gir.reverse_k_ranks(&[8.0, 2.0], 1, &mut stats);
/// assert_eq!(best.entries()[0].weight, WeightId(1));
/// # Ok::<(), rrq_types::RrqError>(())
/// ```
pub struct Gir<'a, G: GridTable = Grid> {
    points: &'a PointSet,
    weights: &'a WeightSet,
    grid: G,
    p_approx: CellStore<'a>,
    w_approx: CellStore<'a>,
    /// The blocked scan's layouts of the point cells: `Σ pa[k]` per point
    /// ([`ApproxVectors::row_sums`]) and the dimension-major copy
    /// ([`ApproxVectors::columns`]), which packed engines scan too. Owned
    /// by the engine, or borrowed from snapshot base data for views.
    p_cell_sums: Cow<'a, [u32]>,
    p_cols: Cow<'a, [u8]>,
    config: GirConfig,
    /// Optional materialized per-weight k-th-score table. When present,
    /// RTK membership and RKR skip certification become one threshold
    /// comparison per weight; only straddling candidates fall into the
    /// grid scan. Attached via [`Gir::attach_threshold_index`];
    /// `Arc`-shared so epoch snapshots can hand the same table to many
    /// concurrent views.
    threshold: Option<Arc<ThresholdIndex>>,
    /// Mutation overlay of a snapshot view: tombstone bitmaps plus the
    /// append logs of points and weights inserted after the base build.
    /// `None` for engines built directly over immutable sets.
    delta: Option<&'a DeltaIndex>,
}

impl<'a> Gir<'a, Grid> {
    /// Builds the (equal-width) Grid-index and pre-quantises both data
    /// sets (the preprocessing step of §3.1).
    ///
    /// # Panics
    ///
    /// Panics if the sets have different dimensionality or the
    /// configuration is invalid (`partitions` outside `2..=255`).
    pub fn new(points: &'a PointSet, weights: &'a WeightSet, config: GirConfig) -> Self {
        // Paper §3.1 quantises each data set over its own value range.
        // Normalised preferences concentrate near 1/d, so scaling the
        // weight axis to the observed maximum component keeps the cells
        // meaningful in high dimensions.
        let w_max = weights
            .as_flat()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let grid = Grid::with_ranges(config.partitions, points.value_range(), w_max);
        Self::with_grid(points, weights, grid, config)
    }

    /// With the paper's default configuration (`n = 32`, `Domin` on,
    /// byte-format approximate vectors).
    pub fn with_defaults(points: &'a PointSet, weights: &'a WeightSet) -> Self {
        Self::new(points, weights, GirConfig::default())
    }

    /// Chooses the number of partitions with Theorem 1 for the target
    /// worst-case filter failure rate `epsilon`, rounded up to the next
    /// power of two (cells pack into `log₂ n` bits) and clamped to the
    /// `u8` cell limit of 128.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1` (and on dimensionality mismatch).
    pub fn auto(points: &'a PointSet, weights: &'a WeightSet, epsilon: f64) -> Self {
        let n = crate::model::required_partitions(points.dim(), epsilon);
        let n = crate::model::next_power_of_two(n).clamp(2, 128);
        Self::new(
            points,
            weights,
            GirConfig {
                partitions: n,
                ..GirConfig::default()
            },
        )
    }
}

impl<'a> Gir<'a, &'a Grid> {
    /// Builds a borrowed scan view over an epoch snapshot: the base data
    /// and grid are shared (nothing is re-quantised per view), the delta
    /// overlay drives tombstone skips and append-tail scans, and the
    /// snapshot's threshold table — already repaired to this epoch — is
    /// attached without revalidation.
    pub(crate) fn snapshot_view(state: &'a EngineState) -> Self {
        let base = state.base();
        Self {
            points: base.points(),
            weights: base.weights(),
            grid: base.grid(),
            p_approx: CellStore::Bytes(Cow::Borrowed(base.p_approx())),
            w_approx: CellStore::Bytes(Cow::Borrowed(base.w_approx())),
            p_cell_sums: Cow::Borrowed(base.p_cell_sums()),
            p_cols: Cow::Borrowed(base.p_cols()),
            config: base.config(),
            threshold: state.threshold_arc(),
            delta: Some(state.delta()),
        }
    }
}

impl<'a, G: GridTable> Gir<'a, G> {
    /// Builds the algorithm around a caller-supplied corner table (used by
    /// the adaptive-grid extension). `config.partitions` is ignored in
    /// favour of `grid.partitions()`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different dimensionality.
    pub fn with_grid(
        points: &'a PointSet,
        weights: &'a WeightSet,
        grid: G,
        config: GirConfig,
    ) -> Self {
        assert_eq!(
            points.dim(),
            weights.dim(),
            "P and W must share dimensionality"
        );
        let bytes = ApproxVectors::from_points(&grid, points);
        let (p_cell_sums, p_cols) = (bytes.row_sums(), bytes.columns());
        let p_approx = CellStore::new(bytes, config.packed, grid.partitions());
        let w_bytes = ApproxVectors::from_weights(&grid, weights);
        let w_approx = CellStore::new(w_bytes, config.packed, grid.partitions());
        Self {
            points,
            weights,
            grid,
            p_approx,
            w_approx,
            p_cell_sums: Cow::Owned(p_cell_sums),
            p_cols: Cow::Owned(p_cols),
            config,
            threshold: None,
            delta: None,
        }
    }

    /// Materializes a [`ThresholdIndex`] for this engine's data sets at
    /// the given k-buckets (per weight, `|P|` dot products and one
    /// radix selection of every bucket).
    /// Build-only; attach the result with
    /// [`Self::attach_threshold_index`] to serve from it.
    ///
    /// # Errors
    ///
    /// Propagates [`ThresholdIndex::build`] validation failures.
    pub fn build_threshold_index(&self, buckets: &[usize]) -> rrq_types::RrqResult<ThresholdIndex> {
        ThresholdIndex::build(self.points, self.weights, buckets)
    }

    /// Attaches a materialized threshold index after validating it
    /// against the live data sets (dimensions, cardinalities and the
    /// build-time data fingerprint must all match).
    ///
    /// # Errors
    ///
    /// [`rrq_types::RrqError::ArtifactStale`] when the index was built
    /// from different data — a stale artifact is rejected here rather
    /// than silently serving wrong thresholds.
    pub fn attach_threshold_index(&mut self, index: ThresholdIndex) -> rrq_types::RrqResult<()> {
        index.validate_for(self.points, self.weights)?;
        self.threshold = Some(Arc::new(index));
        Ok(())
    }

    /// Detaches and returns the threshold index, if one is attached
    /// (cloning the table when snapshot views still share it).
    pub fn detach_threshold_index(&mut self) -> Option<ThresholdIndex> {
        self.threshold
            .take()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// The attached threshold index, if any.
    pub fn threshold_index(&self) -> Option<&ThresholdIndex> {
        self.threshold.as_deref()
    }

    /// The underlying corner table.
    pub fn grid(&self) -> &G {
        &self.grid
    }

    pub(crate) fn points_ref(&self) -> &'a PointSet {
        self.points
    }

    pub(crate) fn w_approx_row<'s>(&'s self, wid: usize, scratch: &'s mut [u8]) -> &'s [u8] {
        self.w_row(wid, scratch)
    }

    /// Total point-id width of this engine: base points plus the append
    /// tail (tombstoned slots included — ids are never reused within an
    /// epoch). `DominBuffer`s must span this width.
    pub(crate) fn total_points(&self) -> usize {
        self.points.len() + self.delta.map_or(0, |d| d.appended_points_len())
    }

    /// Total weight-id width: base weights plus the append tail.
    pub(crate) fn total_weights(&self) -> usize {
        self.weights.len() + self.delta.map_or(0, |d| d.appended_weights_len())
    }

    /// Per-weight admission check over a mutable snapshot: a tombstoned
    /// weight is booked as a skip and refused; a live appended weight
    /// books its append-tail visit. Static engines admit every id.
    /// Callers book `weights_visited` only for admitted weights — deleted
    /// weights are invisible to the funnel beyond the tombstone count.
    pub(crate) fn admit_weight<S: ExplainSink>(
        &self,
        wid: usize,
        stats: &mut QueryStats,
        sink: &mut S,
    ) -> bool {
        let Some(dx) = self.delta else {
            return true;
        };
        if dx.weight_tombstoned(wid) {
            stats.tombstones_skipped += 1;
            if sink.enabled() {
                sink.tombstone_skip();
            }
            return false;
        }
        if wid >= self.weights.len() {
            stats.appended_scanned += 1;
            if sink.enabled() {
                sink.appended_scan();
            }
        }
        true
    }

    /// The original data row of weight `wid`, serving appended ids from
    /// the delta's append log.
    pub(crate) fn weight_data(&self, wid: usize) -> &[f64] {
        let base = self.weights.len();
        if wid < base {
            self.weights.weight(rrq_types::WeightId(wid))
        } else {
            self.delta
                // rrq-lint: allow(no-unwrap-in-lib) -- an appended id can only come from total_weights(), which counts the delta
                .expect("appended weight id requires a delta overlay")
                .appended_weight(wid - base)
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> GirConfig {
        self.config
    }

    /// Memory used by the index structures (grid table + approximate
    /// vectors), in bytes — the "negligible memory cost" of the paper's
    /// abstract.
    pub fn index_memory_bytes(&self) -> usize {
        let t_mem = self.threshold.as_ref().map_or(0, |t| t.memory_bytes());
        self.grid.memory_bytes()
            + self.p_approx.memory_bytes()
            + self.w_approx.memory_bytes()
            + t_mem
    }

    /// Decodes (or borrows) the approximate row of weight `wid` into
    /// `scratch` when packed, serving appended ids from the delta's
    /// pre-quantised append log.
    fn w_row<'s>(&'s self, wid: usize, scratch: &'s mut [u8]) -> &'s [u8] {
        let base = self.weights.len();
        if wid >= base {
            return self
                .delta
                // rrq-lint: allow(no-unwrap-in-lib) -- an appended id can only come from total_weights(), which counts the delta
                .expect("appended weight id requires a delta overlay")
                .appended_weight_cells(wid - base);
        }
        match &self.w_approx {
            CellStore::Bytes(b) => b.row(wid),
            CellStore::Packed(p) => p.cells(wid, scratch),
        }
    }

    /// GInTop-k (Alg. 1): scans `P⁽ᴬ⁾` under weight `w`, counting points
    /// preceding `q`. Returns `None` as soon as the count *exceeds*
    /// `bound` (the paper's `-1`), else `Some(exact rank)`.
    ///
    /// The scan is blocked: 64 points at a time are classified
    /// branchlessly into bitmasks, then only the interesting bits are
    /// acted on — whole Case 2 stretches cost nothing beyond pass 1. One
    /// kernel serves every engine: byte or packed rows, equal-width or
    /// irregular grids, explained or not, and snapshots, whose tombstones
    /// mask lanes out and whose append tail is scanned after the base as
    /// more blocks. Lanes are acted on in id order, so early termination
    /// fires at the lane a per-point loop would stop at.
    ///
    /// `scratch` buffers avoid per-call allocation; `domin` is the shared
    /// dominating-point buffer. `rec` receives per-refinement leaf timings
    /// and `sink` per-lane classification provenance — a [`NoopRecorder`]
    /// / [`NoopSink`] monomorphises either away entirely.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gin_rank<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        wa: &[u8],
        w: &[f64],
        qa: &[u8],
        fq: f64,
        bound: usize,
        domin: &mut DominBuffer,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> Option<usize> {
        let rank = domin.len();
        if rank > bound {
            stats.early_terminations += 1;
            if sink.enabled() {
                sink.early_termination();
            }
            return None;
        }
        let Scratch { row, gather } = scratch;
        let mut cx = ScanCtx {
            wa,
            w,
            qa,
            fq,
            bound,
            tombs: self.delta.map_or(&[], |dx| dx.point_tomb_words()),
            rank,
            domin,
            row,
            stats,
            rec,
            sink,
        };
        // Equal-width grids classify in the integer domain; irregular
        // tables use the lookup classifier. Decided once per call.
        let live = match self.grid.prepare_scan(wa, fq) {
            Some(mut ps) => self.scan_runs(&mut ps, &mut cx),
            None => {
                let grid = &self.grid;
                self.scan_runs(
                    &mut Lookup {
                        grid,
                        fq,
                        row: gather,
                    },
                    &mut cx,
                )
            }
        };
        live.then_some(cx.rank)
    }

    /// Walks the base build, then the append tail in insertion order —
    /// the id order a rebuild over the live rows scans them in. Returns
    /// `false` once the scan terminated early.
    fn scan_runs<P: Pass1, R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        pass1: &mut P,
        cx: &mut ScanCtx<'_, R, S>,
    ) -> bool {
        let base = match &self.p_approx {
            CellStore::Bytes(b) => self.walk(&self.base_lanes(b.as_ref()), pass1, cx),
            CellStore::Packed(p) => self.walk(&self.base_lanes(p), pass1, cx),
        };
        base && self
            .delta
            .is_none_or(|dx| self.walk(&dx.tail_lanes(self.points.len()), pass1, cx))
    }

    fn base_lanes<'s, C>(&'s self, rows: &'s C) -> Lanes<'s, C> {
        Lanes {
            first: 0,
            cols: &self.p_cols,
            block_stride: 1,
            dim_stride: self.points.len(),
            sums: &self.p_cell_sums,
            rows,
            points: self.points,
            tail: false,
        }
    }

    /// The blocked scan of one run of lanes (see [`Self::gin_rank`]).
    /// Returns `false` once the rank exceeded the bound (booked).
    fn walk<C: CellRows, P: Pass1, R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        lanes: &Lanes<'_, C>,
        pass1: &mut P,
        cx: &mut ScanCtx<'_, R, S>,
    ) -> bool {
        let d = self.points.dim();
        let n = lanes.points.len();
        let mut b = 0;
        while b < n {
            let len = (n - b).min(64);
            let own = u64::MAX >> (64 - len);
            let id0 = lanes.first + b;
            let (case1, incomp) = pass1.masks(lanes, b, len, cx.wa);
            // Tombstoned lanes are skipped first, known dominators (already
            // counted in `rank`) next. Both words are cut to the block's
            // own lanes: past the base build, ids belong to the tail.
            let tomb = bits_at(cx.tombs, id0) & own;
            let domin = bits_at(&cx.domin.words, id0) & own & !tomb;
            let m = Masks {
                case1: case1 & !(domin | tomb),
                incomp: incomp & !(domin | tomb),
                domin,
                tomb,
            };
            // Pass 2: act on interesting bits in ascending id order (an
            // explained scan walks every lane to emit its events). The
            // block's counters are booked once its outcome is known, so
            // early termination at bit `j` books exactly lanes `0..=j`.
            let mut remaining = if cx.sink.enabled() {
                own
            } else {
                m.case1 | m.incomp
            };
            while remaining != 0 {
                let j = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let bit = 1u64 << j;
                if cx.sink.enabled() && !self.explain_lane(lanes, b + j, bit, &m, cx) {
                    continue;
                }
                let preceded = if m.case1 & bit != 0 {
                    // Cell-level dominance test (Alg. 1 line 7): if every
                    // approximate cell of p lies strictly below q's cell,
                    // then p[i] < α[pa[i]+1] <= α[qa[i]] <= q[i] for all
                    // i, i.e. p strictly dominates q. Conservative (same-
                    // cell dominators are missed) but touches no original
                    // data.
                    if self.config.use_domin {
                        let row = lanes.rows.cells(b + j, cx.row);
                        if cells_dominate(row, cx.qa) {
                            cx.domin.insert(id0 + j);
                            if cx.sink.enabled() {
                                cx.sink.domin_insert(row);
                            }
                        }
                    }
                    true
                } else {
                    // Case 3 refinement against the original data. (Alg. 1
                    // defers this to a post-scan pass; refining in place
                    // is equivalent and keeps the rank count complete, so
                    // early termination fires exactly as early as SIM's.)
                    cx.stats.refined += 1;
                    let p = lanes.points.point(PointId(b + j));
                    timed_leaf(cx.rec, "refine", || dot_counted(cx.w, p, cx.stats) < cx.fq)
                };
                if preceded {
                    cx.rank += 1;
                    if cx.rank > cx.bound {
                        apply_block_stats(cx.stats, u64::MAX >> (63 - j), &m, d, lanes.tail);
                        cx.stats.early_terminations += 1;
                        if cx.sink.enabled() {
                            cx.sink.early_termination();
                        }
                        return false;
                    }
                }
            }
            apply_block_stats(cx.stats, own, &m, d, lanes.tail);
            b += len;
        }
        true
    }

    /// Emits the explain events of lane `i` up to its classification, in
    /// the order Alg. 1 meets them: a tombstone skip, a Domin skip, or an
    /// append-tail visit and the classification with its Eq. 3/4 bounds.
    /// Returns whether pass 2 acts on the lane (Case 1 or 3).
    fn explain_lane<C: CellRows, R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        lanes: &Lanes<'_, C>,
        i: usize,
        bit: u64,
        m: &Masks,
        cx: &mut ScanCtx<'_, R, S>,
    ) -> bool {
        if m.tomb & bit != 0 {
            cx.sink.tombstone_skip();
            return false;
        }
        let row = lanes.rows.cells(i, cx.row);
        if m.domin & bit != 0 {
            cx.sink.domin_skip(row);
            return false;
        }
        if lanes.tail {
            cx.sink.appended_scan();
        }
        let class = if m.case1 & bit != 0 {
            ExplainClass::Precedes
        } else if m.incomp & bit != 0 {
            ExplainClass::Refined
        } else {
            ExplainClass::Succeeds
        };
        let lower = self.grid.score_lower(row, cx.wa);
        let upper = self.grid.score_upper(row, cx.wa);
        cx.sink.classify(row, class, lower, upper);
        class != ExplainClass::Succeeds
    }
}

/// The state of one bounded scan of `P` under one weight (see
/// [`Gir::gin_rank`]).
struct ScanCtx<'c, R: ?Sized, S> {
    wa: &'c [u8],
    w: &'c [f64],
    qa: &'c [u8],
    fq: f64,
    bound: usize,
    /// A snapshot's point tombstones (empty for static engines).
    tombs: &'c [u64],
    rank: usize,
    domin: &'c mut DominBuffer,
    /// Decode buffer for packed rows.
    row: &'c mut [u8],
    stats: &'c mut QueryStats,
    rec: &'c R,
    sink: &'c mut S,
}

/// One run of point ids the blocked scan walks in 64-lane blocks: the
/// base build, or a snapshot's append tail after it.
pub(crate) struct Lanes<'s, C> {
    /// Id of the run's first lane.
    pub(crate) first: usize,
    /// Column-major cells (see [`Lanes::column`]).
    pub(crate) cols: &'s [u8],
    pub(crate) block_stride: usize,
    pub(crate) dim_stride: usize,
    /// `Σ pa[k]` per lane.
    pub(crate) sums: &'s [u32],
    /// Row-major cells, for the Case-1 dominance test and explain.
    pub(crate) rows: &'s C,
    /// The original rows, for refinement.
    pub(crate) points: &'s PointSet,
    /// Whether the run is an append tail: its visits book
    /// `appended_scanned`.
    pub(crate) tail: bool,
}

impl<C> Lanes<'_, C> {
    /// Dimension `k` of the `len` lanes of the block starting at `b` (a
    /// multiple of 64 within the run).
    #[inline]
    fn column(&self, b: usize, k: usize, len: usize) -> &[u8] {
        let at = b * self.block_stride + k * self.dim_stride;
        &self.cols[at..at + len]
    }
}

/// Pass 1 of the blocked scan: classifies the `len` lanes of the block
/// starting at `b` into the Case 1 and Case 3 masks (Case 2 is every
/// other lane).
trait Pass1 {
    fn masks<C>(&mut self, lanes: &Lanes<'_, C>, b: usize, len: usize, wa: &[u8]) -> (u64, u64);
}

/// The equal-width grid's integer-domain classifier.
impl Pass1 for PreparedScan {
    #[inline]
    fn masks<C>(&mut self, lanes: &Lanes<'_, C>, b: usize, len: usize, wa: &[u8]) -> (u64, u64) {
        // Column-major multiply-accumulate: each dimension contributes
        // `len` contiguous cells multiplied by one broadcast weight cell
        // — a shape LLVM vectorises.
        let mut lsums = [0u32; 64];
        for (k, &wk) in wa.iter().enumerate() {
            let wk = wk as u32;
            for (acc, &c) in lsums[..len].iter_mut().zip(lanes.column(b, k, len)) {
                *acc += c as u32 * wk;
            }
        }
        // Branchless classification; usum = lsum + Σpa + Σwa + d.
        let (threshold, upper_offset) = (self.threshold(), self.upper_offset());
        let sums = &lanes.sums[b..b + len];
        let (mut case1, mut incomp) = (0u64, 0u64);
        for j in 0..len {
            let lsum = lsums[j];
            let c1 = lsum + sums[j] + upper_offset < threshold;
            let inc = !c1 & (lsum < threshold);
            case1 |= (c1 as u64) << j;
            incomp |= (inc as u64) << j;
        }
        (case1, incomp)
    }
}

/// The lookup classifier ([`GridTable::classify`], Eqs. 3–4) of grids
/// without an integer form, on each lane's row gathered from the columns.
struct Lookup<'g, G> {
    grid: &'g G,
    fq: f64,
    row: &'g mut [u8],
}

impl<G: GridTable> Pass1 for Lookup<'_, G> {
    fn masks<C>(&mut self, lanes: &Lanes<'_, C>, b: usize, len: usize, wa: &[u8]) -> (u64, u64) {
        let (mut case1, mut incomp) = (0u64, 0u64);
        for j in 0..len {
            for (k, c) in self.row.iter_mut().enumerate() {
                *c = lanes.column(b, k, len)[j];
            }
            match self.grid.classify(self.row, wa, self.fq) {
                BoundCase::Precedes => case1 |= 1 << j,
                BoundCase::Incomparable => incomp |= 1 << j,
                BoundCase::Succeeds => {}
            }
        }
        (case1, incomp)
    }
}

/// One block's lanes after pass 1: Case 1 and Case 3 (live lanes only),
/// known dominators and tombstones. Case 2 is every other lane.
struct Masks {
    case1: u64,
    incomp: u64,
    domin: u64,
    tomb: u64,
}

/// Reusable per-query buffers: a packed row's decode, and the lookup
/// classifier's row gathered from the columns.
pub(crate) struct Scratch {
    row: Vec<u8>,
    gather: Vec<u8>,
}

impl Scratch {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            row: vec![0u8; dim],
            gather: vec![0u8; dim],
        }
    }
}

/// Books a block's counters for the lanes selected by `upto`, as a
/// per-point loop counts them lane by lane: a tombstoned lane is one
/// `tombstones_skipped` and a dominated lane one `domin_skip`, nothing
/// else (both are skipped before touching bounds); every other lane is
/// one visited point (and one `appended_scanned` in a tail run) plus the
/// 2·d bound additions of Eqs. 3–4, classified as Case 1, Case 3
/// (whose refinement cost is booked per-bit in pass 2), or Case 2.
#[inline]
fn apply_block_stats(stats: &mut QueryStats, upto: u64, m: &Masks, d: usize, tail: bool) {
    let skipped = m.domin | m.tomb;
    let visited = (upto & !skipped).count_ones() as u64;
    stats.points_visited += visited;
    stats.bound_additions += visited * 2 * d as u64;
    stats.domin_skips += (upto & m.domin).count_ones() as u64;
    stats.tombstones_skipped += (upto & m.tomb).count_ones() as u64;
    stats.filtered_case1 += (upto & m.case1).count_ones() as u64;
    stats.filtered_case2 += (upto & !(m.case1 | m.incomp | skipped)).count_ones() as u64;
    if tail {
        stats.appended_scanned += visited;
    }
}

/// Bits `start..start + 64` of a bitset, zero past its end. Two words and
/// a shift, so a run that does not start on a word (the append tail)
/// reads its block masks the way the 64-aligned base does.
#[inline]
fn bits_at(words: &[u64], start: usize) -> u64 {
    let (i, s) = (start >> 6, start & 63);
    let lo = words.get(i).map_or(0, |&w| w >> s);
    if s == 0 {
        lo
    } else {
        lo | words.get(i + 1).map_or(0, |&w| w << (64 - s))
    }
}

/// Whether every approximate cell of `pa` lies strictly below the
/// corresponding cell of `qa` — a sufficient condition for strict
/// dominance of the underlying vectors (half-open cells make the upper
/// boundary strict).
#[inline]
fn cells_dominate(pa: &[u8], qa: &[u8]) -> bool {
    pa.iter().zip(qa).all(|(&a, &b)| a < b)
}

/// Dense bitset of dominating points plus a count, over the combined id
/// space (base then append tail). The blocked scan reads a block's
/// dominator mask with [`bits_at`].
pub(crate) struct DominBuffer {
    words: Vec<u64>,
    len: usize,
}

impl DominBuffer {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0u64; n.div_ceil(64)],
            len: 0,
        }
    }

    fn insert(&mut self, id: usize) {
        let (word, bit) = (id >> 6, 1u64 << (id & 63));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// One weight loop's working state: the query and its quantised cells,
/// the query's `Domin` buffer, the scan and weight-row scratch, and where
/// the loop books its counters and explain events. The sequential engine
/// lends its caller's `stats` and `sink` for the whole query; a
/// [`crate::ParGir`] shard worker lends its own and merges them
/// afterwards.
pub(crate) struct ScanState<'s, S> {
    q: &'s [f64],
    qa: &'s [u8],
    pub(crate) domin: DominBuffer,
    scratch: Scratch,
    w_scratch: Vec<u8>,
    stats: &'s mut QueryStats,
    pub(crate) sink: &'s mut S,
}

impl<'s, S> ScanState<'s, S> {
    pub(crate) fn new<G: GridTable>(
        gir: &Gir<'_, G>,
        q: &'s [f64],
        qa: &'s [u8],
        stats: &'s mut QueryStats,
        sink: &'s mut S,
    ) -> Self {
        let dim = gir.points.dim();
        Self {
            q,
            qa,
            domin: DominBuffer::new(gir.total_points()),
            scratch: Scratch::new(dim),
            w_scratch: vec![0u8; dim],
            stats,
            sink,
        }
    }
}

/// Alg. 3's visit order over one id range ([`Gir::rkr_order`]): each
/// admitted weight's `f_w(q)` and rank-floor slot, kept at `wid - first`
/// (`usize::MAX` marks a refused weight), and the admitted ids sorted by
/// `(slot, wid)`.
pub(crate) struct RkrOrder {
    first: usize,
    fqs: Vec<f64>,
    slots: Vec<usize>,
    order: Vec<usize>,
}

impl RkrOrder {
    /// Number of weights to visit.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }
}

impl<G: GridTable> Gir<'_, G> {
    /// GIRTop-k (Alg. 2), generic over the recorder: the untraced entry
    /// point instantiates this with [`NoopRecorder`] (all instrumentation
    /// folds away), the traced one with a live recorder. The phase tree
    /// is `rtk → {quantize, scan → refine}`.
    pub(crate) fn rtk_impl<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RtkResult {
        assert_eq!(q.len(), self.points.dim(), "query dimensionality");
        if k == 0 {
            return RtkResult::default();
        }
        if sink.enabled() {
            sink.begin_query(ExplainKind::Rtk, q, k as u64, self.grid.partitions() as u64);
        }
        let _query = span(rec, "rtk");
        let qa = timed_leaf(rec, "quantize", || {
            ApproxVectors::quantize_point(&self.grid, q)
        });
        let mut st = ScanState::new(self, q, &qa, stats, sink);
        let _scan = span(rec, "scan");
        let mut out = Vec::new();
        if self.rtk_scan(k, 0..self.total_weights(), &mut st, &mut out, rec) {
            if st.sink.enabled() {
                st.sink.invalidate_results();
            }
            return RtkResult::default();
        }
        RtkResult::from_weights(out)
    }

    /// Alg. 2's loop over the weights `wids`, in id order: admission, one
    /// `f_w(q)`, the threshold decision when an index is attached, and
    /// `gin_rank` bounded at `k - 1` for the rest. Members are appended to
    /// `out`. Returns `true` as soon as `Domin` holds `k` points (lines
    /// 7–8): no weight can then qualify, in this range or any other, since
    /// `Domin` membership depends on `(p, q)` alone. The caller then
    /// empties the result.
    pub(crate) fn rtk_scan<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        k: usize,
        wids: Range<usize>,
        st: &mut ScanState<'_, S>,
        out: &mut Vec<rrq_types::WeightId>,
        rec: &R,
    ) -> bool {
        let ScanState {
            q,
            qa,
            domin,
            scratch,
            w_scratch,
            stats,
            sink,
        } = st;
        let (stats, sink) = (&mut **stats, &mut **sink);
        for wid in wids {
            if !self.admit_weight(wid, stats, sink) {
                continue;
            }
            stats.weights_visited += 1;
            if sink.enabled() {
                sink.weight(wid as u64);
            }
            let w = self.weight_data(wid);
            let wa = self.w_row(wid, w_scratch);
            let fq = dot_counted(w, q, stats);
            if let Some(ti) = &self.threshold {
                // One comparison against the materialized k-th score
                // decides membership exactly (same `dot` kernel, same
                // tie semantics); only straddling candidates scan.
                match ti.decide_rtk(wid, k, fq) {
                    RtkThresholdOutcome::Member => {
                        stats.threshold_hits += 1;
                        if sink.enabled() {
                            sink.threshold_hit(wid as u64, true);
                            sink.result(wid as u64, RANK_CERTIFIED);
                        }
                        out.push(rrq_types::WeightId(wid));
                        continue;
                    }
                    RtkThresholdOutcome::NonMember => {
                        stats.threshold_hits += 1;
                        if sink.enabled() {
                            sink.threshold_hit(wid as u64, false);
                        }
                        continue;
                    }
                    RtkThresholdOutcome::Straddle => {}
                }
            }
            if let Some(rank) =
                self.gin_rank(wa, w, qa, fq, k - 1, domin, scratch, stats, rec, sink)
            {
                debug_assert!(rank < k);
                if sink.enabled() {
                    sink.result(wid as u64, rank as u64);
                }
                out.push(rrq_types::WeightId(wid));
            }
            // Alg. 2 lines 7–8: with k dominators no weight can qualify.
            if domin.len() >= k {
                if sink.enabled() {
                    sink.bound_event(BoundSource::LocalScan, wid as u64, domin.len() as u64, true);
                }
                return true;
            }
        }
        false
    }

    /// GIRk-Rank (Alg. 3), generic over the recorder (see
    /// [`Self::rtk_impl`]). The phase tree is
    /// `rkr → {quantize, scan → {refine, heap}}`.
    ///
    /// Weights are visited best-first: a pre-pass admits every weight,
    /// computes its `f_w(q)` once and takes its rank floor from the
    /// threshold ladder ([`ThresholdIndex::rank_floor`]); a counting sort
    /// then orders the weights by `(floor, wid)`. The heap fills with the
    /// best weights first, so Alg. 3's `minRank` bound tightens early and
    /// the `rank > bound` certificate skips most later scans. The order
    /// cannot change the result: the heap keeps the k smallest
    /// `(rank, wid)` pairs whatever the offer order, the certificate is
    /// sound at any bound, and Domin points precede `q` under every
    /// weight, so every exact rank is the same. Without an index every
    /// floor is 0 and the order is Alg. 3's id order.
    pub(crate) fn rkr_impl<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RkrResult {
        assert_eq!(q.len(), self.points.dim(), "query dimensionality");
        if sink.enabled() {
            sink.begin_query(ExplainKind::Rkr, q, k as u64, self.grid.partitions() as u64);
        }
        let _query = span(rec, "rkr");
        let qa = timed_leaf(rec, "quantize", || {
            ApproxVectors::quantize_point(&self.grid, q)
        });
        let mut st = ScanState::new(self, q, &qa, stats, sink);
        let _scan = span(rec, "scan");
        let order = self.rkr_order(0..self.total_weights(), &mut st);
        let mut heap = KBestHeap::new(k);
        self.rkr_scan(&order, 0..order.len(), usize::MAX, &mut heap, &mut st, rec);
        let result = heap.into_result();
        if st.sink.enabled() {
            for e in result.entries() {
                st.sink.result(e.weight.0 as u64, e.rank as u64);
            }
        }
        result
    }

    /// The pre-pass of Alg. 3's best-first visit over the weights `wids`
    /// (see [`Self::rkr_impl`]): one `f_w(q)` and one floor probe per
    /// admitted weight, then a counting sort by `(floor slot, wid)`,
    /// stable, so ids stay ascending within a slot.
    pub(crate) fn rkr_order<S: ExplainSink>(
        &self,
        wids: Range<usize>,
        st: &mut ScanState<'_, S>,
    ) -> RkrOrder {
        let ti = self.threshold.as_deref();
        // `next[s + 1]` counts slot `s`. Three flat arrays, 24 bytes a
        // weight, are the query's whole scratch: kept this small (144 KB
        // at |W| = 6 000), back-to-back queries mostly reuse the heap
        // pages the allocator keeps instead of faulting in fresh ones.
        let n_slots = ti.map_or(1, |t| t.buckets().len() + 1);
        let first = wids.start;
        let mut fqs = vec![0.0; wids.len()];
        let mut slots = vec![usize::MAX; wids.len()];
        let mut next = vec![0usize; n_slots + 1];
        for wid in wids {
            if !self.admit_weight(wid, st.stats, st.sink) {
                continue;
            }
            let fq = dot_counted(self.weight_data(wid), st.q, st.stats);
            let slot = ti.map_or(0, |t| t.rank_floor(wid, fq));
            fqs[wid - first] = fq;
            slots[wid - first] = slot;
            next[slot + 1] += 1;
        }
        for s in 1..=n_slots {
            next[s] += next[s - 1];
        }
        let mut order = vec![0usize; next[n_slots]];
        for (i, &slot) in slots.iter().enumerate() {
            if slot != usize::MAX {
                order[next[slot]] = first + i;
                next[slot] += 1;
            }
        }
        RkrOrder {
            first,
            fqs,
            slots,
            order,
        }
    }

    /// Alg. 3's loop over the positions `at` of a visit order. Each weight
    /// is scanned under `min(heap.threshold(), frozen)`; `frozen` is a
    /// bound proven outside this loop (another shard's heap), `usize::MAX`
    /// when there is none. A weight whose rank the ladder certifies above
    /// that bound is skipped; the rest go through `gin_rank` and the heap.
    pub(crate) fn rkr_scan<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        order: &RkrOrder,
        at: Range<usize>,
        frozen: usize,
        heap: &mut KBestHeap,
        st: &mut ScanState<'_, S>,
        rec: &R,
    ) {
        let ScanState {
            qa,
            domin,
            scratch,
            w_scratch,
            stats,
            sink,
            ..
        } = st;
        let (stats, sink) = (&mut **stats, &mut **sink);
        let ti = self.threshold.as_deref();
        for &wid in &order.order[at] {
            let i = wid - order.first;
            let (fq, slot) = (order.fqs[i], order.slots[i]);
            stats.weights_visited += 1;
            if sink.enabled() {
                sink.weight(wid as u64);
            }
            let bound = heap.threshold().min(frozen);
            if let Some(ti) = ti {
                // `rank > bound` certified from the materialized scores
                // means the bounded scan would return `None`: skip it.
                // The heap never sees the weight either way, so results
                // and bound evolution are untouched.
                if ti.slot_floor(wid, slot) > bound {
                    stats.threshold_hits += 1;
                    if sink.enabled() {
                        sink.threshold_hit(wid as u64, false);
                    }
                    continue;
                }
            }
            let w = self.weight_data(wid);
            let wa = self.w_row(wid, w_scratch);
            if let Some(rank) =
                self.gin_rank(wa, w, qa, fq, bound, domin, scratch, stats, rec, sink)
            {
                timed_leaf(rec, "heap", || heap.offer(rank, rrq_types::WeightId(wid)));
                if sink.enabled() {
                    // Each `minRank` tightening (Alg. 3's self-refining
                    // bound) enters the timeline with its deciding weight.
                    let after = heap.threshold();
                    if after < bound {
                        sink.bound_event(BoundSource::LocalScan, wid as u64, after as u64, false);
                    }
                }
            }
        }
    }

    /// GIRTop-k with full pruning provenance: records the per-cell
    /// classification map, filter→refine funnel, bound timeline and
    /// result set into `doc`. The scan is the production blocked kernel,
    /// emitting one event per lane in id order, so results and
    /// `QueryStats` are identical to [`RtkQuery::reverse_top_k`].
    pub fn reverse_top_k_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RtkResult {
        doc.set_engine("GIR");
        self.rtk_impl(q, k, stats, &NoopRecorder, doc)
    }

    /// GIRk-Rank with full pruning provenance, from the same blocked
    /// kernel: results and `QueryStats` are identical to
    /// [`RkrQuery::reverse_k_ranks`] (see
    /// [`Self::reverse_top_k_explained`]).
    pub fn reverse_k_ranks_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RkrResult {
        doc.set_engine("GIR");
        self.rkr_impl(q, k, stats, &NoopRecorder, doc)
    }
}

impl<G: GridTable> RtkQuery for Gir<'_, G> {
    fn name(&self) -> &'static str {
        "GIR"
    }

    /// GIRTop-k (Alg. 2).
    fn reverse_top_k(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RtkResult {
        self.rtk_impl(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_top_k_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RtkResult {
        self.rtk_impl(q, k, stats, rec, &mut NoopSink)
    }
}

impl<G: GridTable> RkrQuery for Gir<'_, G> {
    fn name(&self) -> &'static str {
        "GIR"
    }

    /// GIRk-Rank (Alg. 3).
    fn reverse_k_ranks(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RkrResult {
        self.rkr_impl(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_k_ranks_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RkrResult {
        self.rkr_impl(q, k, stats, rec, &mut NoopSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_baselines::Naive;
    use rrq_data::synthetic;

    fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
        (
            synthetic::uniform_points(dim, np, 10_000.0, seed).unwrap(),
            synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
        )
    }

    fn configs() -> Vec<GirConfig> {
        vec![
            GirConfig::default(),
            GirConfig {
                partitions: 4,
                ..Default::default()
            },
            GirConfig {
                partitions: 128,
                ..Default::default()
            },
            GirConfig {
                use_domin: false,
                ..Default::default()
            },
            GirConfig {
                packed: true,
                ..Default::default()
            },
            GirConfig {
                partitions: 64,
                packed: true,
                use_domin: false,
            },
        ]
    }

    #[test]
    fn rtk_matches_naive_across_configs() {
        let (p, w) = workload(4, 300, 80, 1);
        let naive = Naive::new(&p, &w);
        for config in configs() {
            let gir = Gir::new(&p, &w, config);
            for qid in [0usize, 50, 150] {
                let q = p.point(PointId(qid)).to_vec();
                for k in [1usize, 5, 25] {
                    let mut s1 = QueryStats::default();
                    let mut s2 = QueryStats::default();
                    assert_eq!(
                        gir.reverse_top_k(&q, k, &mut s1),
                        naive.reverse_top_k(&q, k, &mut s2),
                        "config {config:?} q {qid} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn rkr_matches_naive_across_configs() {
        let (p, w) = workload(4, 300, 80, 2);
        let naive = Naive::new(&p, &w);
        for config in configs() {
            let gir = Gir::new(&p, &w, config);
            for qid in [0usize, 50, 150] {
                let q = p.point(PointId(qid)).to_vec();
                for k in [1usize, 5, 25] {
                    let mut s1 = QueryStats::default();
                    let mut s2 = QueryStats::default();
                    assert_eq!(
                        gir.reverse_k_ranks(&q, k, &mut s1),
                        naive.reverse_k_ranks(&q, k, &mut s2),
                        "config {config:?} q {qid} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_naive_on_clustered_and_anticorrelated_data() {
        for (pp, seed) in [("CL", 3u64), ("AC", 4u64)] {
            let p = if pp == "CL" {
                synthetic::clustered_points(5, 250, 10_000.0, 7, 0.1, seed).unwrap()
            } else {
                synthetic::anticorrelated_points(5, 250, 10_000.0, seed).unwrap()
            };
            let w = synthetic::clustered_weights(5, 60, 4, 0.05, seed + 10).unwrap();
            let gir = Gir::with_defaults(&p, &w);
            let naive = Naive::new(&p, &w);
            let q = p.point(PointId(11)).to_vec();
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            assert_eq!(
                gir.reverse_top_k(&q, 10, &mut s1),
                naive.reverse_top_k(&q, 10, &mut s2),
                "{pp}"
            );
            let mut s3 = QueryStats::default();
            let mut s4 = QueryStats::default();
            assert_eq!(
                gir.reverse_k_ranks(&q, 10, &mut s3),
                naive.reverse_k_ranks(&q, 10, &mut s4),
                "{pp}"
            );
        }
    }

    #[test]
    fn high_dimensional_queries_match_naive() {
        let (p, w) = workload(20, 150, 40, 5);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = p.point(PointId(9)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            gir.reverse_top_k(&q, 10, &mut s1),
            naive.reverse_top_k(&q, 10, &mut s2)
        );
        let mut s3 = QueryStats::default();
        let mut s4 = QueryStats::default();
        assert_eq!(
            gir.reverse_k_ranks(&q, 10, &mut s3),
            naive.reverse_k_ranks(&q, 10, &mut s4)
        );
    }

    #[test]
    fn grid_filters_most_pairs() {
        // The paper's headline: GIR decides over 99 % of the data without
        // an exact score computation. The operative metric is refinements
        // per (p, w) pair over a whole realistic query (k ≪ |W|), where
        // Case 1/2 classification, the Domin buffer *and* early
        // termination all contribute.
        let (p, w) = workload(6, 2000, 500, 7);
        let gir = Gir::with_defaults(&p, &w);
        // Average over several query positions: the per-query rate swings
        // by ~0.1 at this deliberately small test scale (2K × 500)
        // depending on where the query ranks. The rate climbs with |W| as
        // the minRank bound sharpens — the benchmark harness
        // (table4/fig15) measures the paper-scale behaviour.
        let mut stats = QueryStats::default();
        for qid in [123usize, 500, 1000, 1500] {
            let q = p.point(PointId(qid)).to_vec();
            gir.reverse_k_ranks(&q, 10, &mut stats);
        }
        let total_pairs = (4 * p.len() * w.len()) as f64;
        let effective = 1.0 - stats.refined as f64 / total_pairs;
        assert!(effective > 0.8, "effective filter rate {effective}");
        // The intrinsic per-pair bound tightness (Case 1/2 over classified
        // pairs) is lower — simplex weights quantise coarsely — but still
        // removes the large majority of exact computations.
        let intrinsic = stats.filter_rate().expect("pairs classified");
        assert!(intrinsic > 0.6, "intrinsic filter rate {intrinsic}");
    }

    #[test]
    fn gir_saves_multiplications_versus_naive() {
        let (p, w) = workload(6, 1000, 300, 8);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = p.point(PointId(77)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        gir.reverse_k_ranks(&q, 10, &mut s1);
        naive.reverse_k_ranks(&q, 10, &mut s2);
        assert!(
            s1.multiplications * 4 < s2.multiplications,
            "GIR {} vs NAIVE {}",
            s1.multiplications,
            s2.multiplications
        );
    }

    #[test]
    fn packed_and_byte_modes_agree_exactly() {
        let (p, w) = workload(5, 400, 60, 9);
        let bytes = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: false,
                ..Default::default()
            },
        );
        let packed = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: true,
                ..Default::default()
            },
        );
        let q = p.point(PointId(5)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            bytes.reverse_top_k(&q, 20, &mut s1),
            packed.reverse_top_k(&q, 20, &mut s2)
        );
        // Both layouts run the same blocked kernel (packed rows are only
        // decoded for the Case-1 dominance test), so every counter
        // matches, not just the results.
        assert_eq!(s1, s2);
        // And the packed index is smaller.
        assert!(packed.index_memory_bytes() < bytes.index_memory_bytes());
    }

    /// Runs RTK and RKR on the byte and packed layouts of one workload,
    /// with and without the Domin buffer, and asserts identical results
    /// and identical `QueryStats`.
    fn assert_layouts_agree(dim: usize, np: usize, nw: usize, seed: u64) {
        let (p, w) = workload(dim, np, nw, seed);
        for use_domin in [true, false] {
            let config = |packed| GirConfig {
                packed,
                use_domin,
                ..Default::default()
            };
            let bytes = Gir::new(&p, &w, config(false));
            let packed = Gir::new(&p, &w, config(true));
            for qid in [0, np / 2, np - 1] {
                let q = p.point(PointId(qid)).to_vec();
                // Small k maximises early terminations; large k exercises
                // full scans.
                for k in [1usize, 5, 25, 60] {
                    let label = format!("d={dim} use_domin={use_domin} q={qid} k={k}");
                    let mut s1 = QueryStats::default();
                    let mut s2 = QueryStats::default();
                    assert_eq!(
                        bytes.reverse_top_k(&q, k, &mut s1),
                        packed.reverse_top_k(&q, k, &mut s2),
                        "rtk {label}"
                    );
                    assert_eq!(s1, s2, "rtk stats {label}");
                    let mut s3 = QueryStats::default();
                    let mut s4 = QueryStats::default();
                    assert_eq!(
                        bytes.reverse_k_ranks(&q, k, &mut s3),
                        packed.reverse_k_ranks(&q, k, &mut s4),
                        "rkr {label}"
                    );
                    assert_eq!(s3, s4, "rkr stats {label}");
                }
            }
        }
    }

    #[test]
    fn blocked_and_scalar_paths_report_identical_stats() {
        // Regression: the blocked scan once booked dominated lanes in
        // `points_visited`/`bound_additions`, credited `domin_skips` only
        // for Case-1 bits, and on early termination had already counted
        // the whole 64-point block — so benchdiff-gated counters diverged
        // between the bytes and packed configurations of the *same*
        // algorithm. Both layouts must report identical results and
        // `QueryStats`, early termination and Domin buffer included.
        assert_layouts_agree(4, 515, 120, 21); // partial final block
    }

    #[test]
    fn blocked_and_fallback_paths_agree() {
        // Packed engines run pass 1 on the byte columns and decode rows
        // only for the Case-1 dominance test; on a higher-dimensional
        // workload they must still agree with the byte layout in results
        // and counters.
        assert_layouts_agree(7, 500, 80, 77);
    }

    #[test]
    fn rtk_with_dominated_query_is_empty() {
        let (p, w) = workload(3, 500, 50, 10);
        let gir = Gir::with_defaults(&p, &w);
        let q = vec![9_999.0, 9_999.0, 9_999.0];
        let mut stats = QueryStats::default();
        assert!(gir.reverse_top_k(&q, 10, &mut stats).is_empty());
    }

    #[test]
    fn k_zero_rtk_is_empty() {
        let (p, w) = workload(3, 50, 10, 11);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(0)).to_vec();
        let mut stats = QueryStats::default();
        assert!(gir.reverse_top_k(&q, 0, &mut stats).is_empty());
    }

    #[test]
    fn rkr_k_exceeding_w_returns_all_with_exact_ranks() {
        let (p, w) = workload(3, 200, 30, 12);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = p.point(PointId(42)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        let got = gir.reverse_k_ranks(&q, 100, &mut s1);
        assert_eq!(got.len(), 30);
        assert_eq!(got, naive.reverse_k_ranks(&q, 100, &mut s2));
    }

    #[test]
    fn external_query_point_not_in_p() {
        let (p, w) = workload(4, 300, 60, 13);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = vec![1_234.5, 6_789.0, 42.0, 5_000.0];
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            gir.reverse_top_k(&q, 15, &mut s1),
            naive.reverse_top_k(&q, 15, &mut s2)
        );
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn rejects_mismatched_dimensions() {
        let p = synthetic::uniform_points(3, 10, 1.0, 1).unwrap();
        let w = synthetic::uniform_weights(4, 10, 2).unwrap();
        Gir::with_defaults(&p, &w);
    }

    #[test]
    fn blocked_scan_handles_all_block_shapes() {
        // The fast path processes 64-point blocks; exercise sizes around
        // the boundary (partial final block, exact multiple, tiny set).
        let naive_check = |n: usize| {
            let p = synthetic::uniform_points(3, n, 10_000.0, n as u64).unwrap();
            let w = synthetic::uniform_weights(3, 20, n as u64 + 1).unwrap();
            let gir = Gir::with_defaults(&p, &w);
            let naive = Naive::new(&p, &w);
            let q = p.point(PointId(n / 2)).to_vec();
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            assert_eq!(
                gir.reverse_k_ranks(&q, 5, &mut s1),
                naive.reverse_k_ranks(&q, 5, &mut s2),
                "n = {n}"
            );
        };
        for n in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            naive_check(n);
        }
    }

    #[test]
    fn domin_buffer_counts_are_consistent() {
        // Domin skips only ever grow the saving; results never change.
        let (p, w) = workload(4, 600, 150, 88);
        let with = Gir::with_defaults(&p, &w);
        let without = Gir::new(
            &p,
            &w,
            GirConfig {
                use_domin: false,
                ..Default::default()
            },
        );
        // A query point deep in the data (many dominators).
        let q = vec![8_000.0; 4];
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            with.reverse_k_ranks(&q, 10, &mut s1),
            without.reverse_k_ranks(&q, 10, &mut s2)
        );
        assert!(s1.domin_skips > 0, "dominators must be discovered");
        assert_eq!(s2.domin_skips, 0);
        assert!(s1.points_visited <= s2.points_visited);
    }

    #[test]
    fn indexed_rkr_visits_weights_in_rank_floor_order() {
        let (p, w) = workload(4, 600, 300, 31);
        let plain = Gir::with_defaults(&p, &w);
        let mut indexed = Gir::with_defaults(&p, &w);
        let buckets = ThresholdIndex::default_buckets(&[10], p.len());
        let idx = indexed.build_threshold_index(&buckets).unwrap();
        indexed.attach_threshold_index(idx).unwrap();
        let ti = indexed.threshold_index().unwrap();
        let mut longest = 0;
        for qid in [3usize, 150, 420] {
            let q = p.point(PointId(qid)).to_vec();
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            let mut doc = ExplainDoc::new();
            let mut plain_doc = ExplainDoc::new();
            let got = indexed.reverse_k_ranks_explained(&q, 10, &mut s1, &mut doc);
            let want = plain.reverse_k_ranks_explained(&q, 10, &mut s2, &mut plain_doc);
            assert_eq!(got, want, "q {qid}");
            assert_eq!(doc.results, plain_doc.results, "q {qid}");
            assert!(s1.threshold_hits > 0, "q {qid}: no certificate fired");
            // The bound timeline lists its deciding weights in visit
            // order: ascending rank floor with an index, id order without.
            assert!(!doc.timeline.is_empty(), "q {qid}: empty timeline");
            longest = longest.max(doc.timeline.len());
            let floors: Vec<usize> = doc
                .timeline
                .iter()
                .map(|e| {
                    let wid = e.weight as usize;
                    ti.rank_floor(wid, rrq_types::dot(w.weight(rrq_types::WeightId(wid)), &q))
                })
                .collect();
            assert!(
                floors.windows(2).all(|f| f[0] <= f[1]),
                "q {qid}: {floors:?}"
            );
            let ids: Vec<u64> = plain_doc.timeline.iter().map(|e| e.weight).collect();
            assert!(ids.windows(2).all(|i| i[0] < i[1]), "q {qid}: {ids:?}");
        }
        assert!(longest >= 2, "every timeline too short to order");
    }

    #[test]
    fn index_memory_is_negligible() {
        // The whole point of the paper: index memory ≪ data memory.
        let (p, w) = workload(6, 5000, 5000, 14);
        let gir = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: true,
                ..Default::default()
            },
        );
        let data_bytes = (p.as_flat().len() + w.as_flat().len()) * 8;
        assert!(gir.index_memory_bytes() < data_bytes / 4);
    }

    /// The approximate cells and original row of point `id`: base ids
    /// from the engine's row store, tail ids from the append log's
    /// row-major cells (never from the columns the kernel scans).
    fn reference_lane<G: GridTable>(gir: &Gir<'_, G>, id: usize) -> (Vec<u8>, Vec<f64>) {
        let base = gir.points.len();
        if id >= base {
            let tail = gir.delta.expect("tail id without a delta").tail_lanes(base);
            let p = tail.points.point(PointId(id - base));
            return (tail.rows.row(id - base).to_vec(), p.to_vec());
        }
        let mut buf = vec![0u8; gir.points.dim()];
        let cells = match &gir.p_approx {
            CellStore::Bytes(b) => b.row(id).to_vec(),
            CellStore::Packed(p) => p.cells(id, &mut buf).to_vec(),
        };
        (cells, gir.points.point(PointId(id)).to_vec())
    }

    /// The per-point scan the blocked kernel replaced, kept as its
    /// reference: ids in order (base, then the append tail), each skipped
    /// if tombstoned, else if in Domin, else classified with the grid's
    /// lookup classifier and refined when incomparable. It only counts.
    /// `Err(Some(id))` is an early termination at lane `id`, `Err(None)`
    /// one before any lane.
    #[allow(clippy::too_many_arguments)]
    fn reference_rank<G: GridTable>(
        gir: &Gir<'_, G>,
        wa: &[u8],
        w: &[f64],
        qa: &[u8],
        fq: f64,
        bound: usize,
        domin: &mut [bool],
        stats: &mut QueryStats,
    ) -> Result<usize, Option<usize>> {
        let mut rank = domin.iter().filter(|&&x| x).count();
        if rank > bound {
            stats.early_terminations += 1;
            return Err(None);
        }
        for (id, dominates) in domin.iter_mut().enumerate() {
            if gir.delta.is_some_and(|dx| dx.point_tombstoned(id)) {
                stats.tombstones_skipped += 1;
                continue;
            }
            if *dominates {
                stats.domin_skips += 1;
                continue;
            }
            let (pa, p) = reference_lane(gir, id);
            if id >= gir.points.len() {
                stats.appended_scanned += 1;
            }
            stats.points_visited += 1;
            stats.bound_additions += 2 * pa.len() as u64;
            let preceded = match gir.grid.classify(&pa, wa, fq) {
                BoundCase::Precedes => {
                    stats.filtered_case1 += 1;
                    if gir.config.use_domin && cells_dominate(&pa, qa) {
                        *dominates = true;
                    }
                    true
                }
                BoundCase::Succeeds => {
                    stats.filtered_case2 += 1;
                    false
                }
                BoundCase::Incomparable => {
                    stats.refined += 1;
                    dot_counted(w, &p, stats) < fq
                }
            };
            if preceded {
                rank += 1;
                if rank > bound {
                    stats.early_terminations += 1;
                    return Err(Some(id));
                }
            }
        }
        Ok(rank)
    }

    /// Drives the kernel, plain and explained, and the reference over
    /// every live weight of `gir`: per weight a fresh Domin buffer, then
    /// every bound of `bounds` in turn. Results, `QueryStats` and Domin
    /// contents must agree call by call, and the explain funnel must
    /// reconcile with the explained calls' counters. Returns the lanes at
    /// which the reference terminated early and the ids that ever
    /// entered Domin.
    fn assert_kernel_matches_reference<G: GridTable>(
        gir: &Gir<'_, G>,
        q: &[f64],
        bounds: &[usize],
    ) -> (Vec<usize>, Vec<usize>) {
        let (dim, total) = (gir.points.dim(), gir.total_points());
        let qa = ApproxVectors::quantize_point(&gir.grid, q);
        let mut scratch = Scratch::new(dim);
        let mut w_buf = vec![0u8; dim];
        let mut doc = ExplainDoc::new();
        let mut explained = QueryStats::default();
        let (mut stops, mut dominators) = (Vec::new(), Vec::new());
        for wid in 0..gir.total_weights() {
            if gir.delta.is_some_and(|dx| dx.weight_tombstoned(wid)) {
                continue;
            }
            let w = gir.weight_data(wid);
            let wa = gir.w_row(wid, &mut w_buf).to_vec();
            let fq = rrq_types::dot(w, q);
            let mut plain = DominBuffer::new(total);
            let mut traced = DominBuffer::new(total);
            let mut reference = vec![false; total];
            for &bound in bounds {
                let label = format!("w {wid} bound {bound}");
                let mut want_stats = QueryStats::default();
                let want =
                    reference_rank(gir, &wa, w, &qa, fq, bound, &mut reference, &mut want_stats);
                let mut s = QueryStats::default();
                let got = gir.gin_rank(
                    &wa,
                    w,
                    &qa,
                    fq,
                    bound,
                    &mut plain,
                    &mut scratch,
                    &mut s,
                    &NoopRecorder,
                    &mut NoopSink,
                );
                assert_eq!(got, want.ok(), "{label}");
                assert_eq!(s, want_stats, "{label}: stats");
                let mut s = QueryStats::default();
                let got = gir.gin_rank(
                    &wa,
                    w,
                    &qa,
                    fq,
                    bound,
                    &mut traced,
                    &mut scratch,
                    &mut s,
                    &NoopRecorder,
                    &mut doc,
                );
                assert_eq!(got, want.ok(), "{label}: explained");
                assert_eq!(s, want_stats, "{label}: explained stats");
                explained.merge(&s);
                let in_domin: Vec<bool> = (0..total)
                    .map(|id| bits_at(&plain.words, id) & 1 != 0)
                    .collect();
                assert_eq!(in_domin, reference, "{label}: Domin contents");
                assert_eq!(traced.words, plain.words, "{label}: explained Domin");
                assert_eq!(plain.len(), reference.iter().filter(|&&x| x).count());
                if let Err(Some(id)) = want {
                    stops.push(id);
                }
            }
            dominators.extend((0..total).filter(|&id| reference[id]));
        }
        doc.funnel.reconcile(&explained.counters()).unwrap();
        (stops, dominators)
    }

    #[test]
    fn kernel_matches_per_point_reference_on_snapshot_block_edges() {
        let p = synthetic::uniform_points(3, 150, 100.0, 41).unwrap();
        let w = synthetic::uniform_weights(3, 24, 42).unwrap();
        let tail = synthetic::uniform_points(3, 79, 100.0, 43).unwrap();
        let q = [60.0, 60.0, 60.0];
        let bounds: Vec<usize> = (0..=60).chain([100, 200, usize::MAX / 2]).collect();
        for use_domin in [true, false] {
            let config = GirConfig {
                use_domin,
                ..Default::default()
            };
            let mut engine = crate::DynamicEngine::new(p.clone(), w.clone(), config).unwrap();
            // Tail ids 150..230: two tail blocks, the second partial.
            // Tail id 150 lies below `q` in every cell, so a scan that
            // reaches it puts a tail id into Domin.
            engine.insert_point(&[0.5, 0.5, 0.5]).unwrap();
            for (_, row) in tail.iter() {
                engine.insert_point(row).unwrap();
            }
            // Lanes 0, 63, 64 and the last base lane; three of every four
            // lanes of the block 64..128; and, read through unaligned
            // words, the second tail lane and the first of the second
            // tail block.
            let heavy = (65..128).filter(|id| id % 4 != 0);
            for id in [0u64, 63, 64, 149, 151, 214].into_iter().chain(heavy) {
                engine.delete_point(id).unwrap();
            }
            engine.publish(&mut QueryStats::default()).unwrap();
            let state = engine.snapshot();
            let view = state.view();
            assert_eq!((view.points.len(), view.total_points()), (150, 230));
            let (stops, dominators) = assert_kernel_matches_reference(&view, &q, &bounds);
            let label = format!("use_domin={use_domin}");
            assert!(
                stops.iter().any(|id| (64..128).contains(id)),
                "{label}: {stops:?}"
            );
            assert!(
                stops.iter().any(|&id| id >= 150),
                "{label}: no stop in the tail"
            );
            assert_eq!(dominators.contains(&150), use_domin, "{label}");
        }
    }

    #[test]
    fn kernel_matches_per_point_reference_on_static_layouts_and_grids() {
        let (p, w) = workload(4, 515, 30, 44); // partial final block
        let q = p.point(PointId(300)).to_vec();
        let bounds: Vec<usize> = (0..=40).step_by(2).chain([150, usize::MAX / 2]).collect();
        for packed in [false, true] {
            let config = GirConfig {
                packed,
                ..Default::default()
            };
            let grid = Gir::new(&p, &w, config);
            let (stops, _) = assert_kernel_matches_reference(&grid, &q, &bounds);
            assert!(!stops.is_empty(), "packed={packed}: no early termination");
            let adaptive = crate::AdaptiveGrid::from_data(32, &p, &w);
            let adaptive = Gir::with_grid(&p, &w, adaptive, config);
            assert!(adaptive.grid.prepare_scan(&[1; 4], 1.0).is_none());
            let (stops, _) = assert_kernel_matches_reference(&adaptive, &q, &bounds);
            assert!(
                !stops.is_empty(),
                "packed={packed}: adaptive, no early termination"
            );
        }
    }
}
