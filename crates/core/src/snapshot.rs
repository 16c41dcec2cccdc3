//! Epoch-versioned copy-on-write snapshots: incremental insert/delete of
//! points and weights over the grid index.
//!
//! The paper freezes `P` and `W` at build time; production churn does
//! not. This module keeps the *base* build immutable ([`BaseData`],
//! `Arc`-shared across epochs) and layers every mutation on top of it as
//! a [`DeltaIndex`] — tombstone bitmaps over the combined id space plus
//! append logs of inserted rows, pre-quantised against the shared grid.
//! Queries skip tombstones and scan the append tails, booking the
//! `tombstones_skipped` / `appended_scanned` counters, and are otherwise
//! bit-identical to a rebuild-from-scratch over the live rows (pinned by
//! `crates/core/tests/update_equivalence.rs`).
//!
//! Writers never mutate a published state. [`DynamicEngine`] stages
//! operations and, at [`DynamicEngine::publish`], assembles the next
//! [`EngineState`] — next delta, repaired threshold table, epoch + 1 —
//! and swaps it into the [`SnapshotHandle`]. In-flight readers keep
//! their `Arc` to the previous epoch and finish on a consistent index;
//! new readers pick up the new epoch atomically. Threshold maintenance
//! is incremental via the *self-application*: a reverse-top-`k_max`
//! query of each mutated point row against the current table finds the
//! weights whose exact rungs (up to the served `k`) can change (see
//! `ThresholdIndex::row_affected`), and only those columns are
//! recomputed; under every other weight the row moves the count-tracked
//! floor rungs above the served `k` by one (see the `threshold` module
//! docs).
//!
//! Compaction ([`DynamicEngine::compact`], also triggered automatically
//! when tombstones outnumber live rows) folds tombstones and append
//! logs back into a clean base build. Internal ids are renumbered
//! densely *in order*, so the external-id mapping — the only identity
//! the caller ever sees — is preserved and compaction is invisible to
//! results.

use crate::approx::ApproxVectors;
use crate::gir::{Gir, GirConfig, Lanes};
use crate::grid::Grid;
use crate::threshold::{data_fingerprint, fold_epoch, ThresholdIndex};
use rrq_types::{PointId, PointSet, QueryStats, RrqError, RrqResult, WeightId, WeightSet};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The immutable product of one base build: data sets, grid, quantised
/// vectors and the blocked-scan layouts. Shared by `Arc` across every
/// epoch until a compaction replaces it.
pub struct BaseData {
    points: PointSet,
    weights: WeightSet,
    grid: Grid,
    p_approx: ApproxVectors,
    w_approx: ApproxVectors,
    p_cell_sums: Vec<u32>,
    p_cols: Vec<u8>,
    config: GirConfig,
    /// [`data_fingerprint`] of `points` and `weights`: every publish
    /// over this base folds only its epoch into it.
    fingerprint: u64,
}

impl BaseData {
    /// Quantises both sets against a grid with the *full* `[0, 1]`
    /// weight axis. The static [`Gir::new`] scales the weight axis to
    /// the observed maximum component for tighter bounds; a mutable
    /// engine cannot, because a later-inserted weight above that maximum
    /// would fall off the table and break bound soundness. Inserted
    /// weight components are validated `≤ 1` instead.
    fn build(points: PointSet, weights: WeightSet, config: GirConfig) -> RrqResult<Self> {
        if points.dim() != weights.dim() {
            return Err(RrqError::DimensionMismatch {
                expected: points.dim(),
                actual: weights.dim(),
            });
        }
        validate_weight_components(weights.as_flat())?;
        let grid = Grid::with_ranges(config.partitions, points.value_range(), 1.0);
        let p_approx = ApproxVectors::from_points(&grid, &points);
        let (p_cell_sums, p_cols) = (p_approx.row_sums(), p_approx.columns());
        let w_approx = ApproxVectors::from_weights(&grid, &weights);
        let fingerprint = data_fingerprint(&points, &weights);
        Ok(Self {
            points,
            weights,
            grid,
            p_approx,
            w_approx,
            p_cell_sums,
            p_cols,
            config,
            fingerprint,
        })
    }

    pub(crate) fn points(&self) -> &PointSet {
        &self.points
    }

    pub(crate) fn weights(&self) -> &WeightSet {
        &self.weights
    }

    pub(crate) fn grid(&self) -> &Grid {
        &self.grid
    }

    pub(crate) fn p_approx(&self) -> &ApproxVectors {
        &self.p_approx
    }

    pub(crate) fn w_approx(&self) -> &ApproxVectors {
        &self.w_approx
    }

    pub(crate) fn p_cell_sums(&self) -> &[u32] {
        &self.p_cell_sums
    }

    pub(crate) fn p_cols(&self) -> &[u8] {
        &self.p_cols
    }

    pub(crate) fn config(&self) -> GirConfig {
        self.config
    }
}

/// Inserted weight components must stay on the `[0, 1]` weight axis the
/// mutable grid is built over — a component above the axis would be
/// clamped into the last cell and its upper score bound would no longer
/// bracket the true product.
fn validate_weight_components(flat: &[f64]) -> RrqResult<()> {
    for &v in flat {
        if v > 1.0 {
            return Err(RrqError::InvalidParameter {
                name: "weight",
                message: format!("component {v} exceeds the [0, 1] weight axis"),
            });
        }
    }
    Ok(())
}

/// Dense tombstone bitmap over an internal id space (base + append
/// tail). Grows on demand; never shrinks within an epoch lineage — ids
/// are retired, not reused, until compaction renumbers.
#[derive(Debug, Clone, Default)]
struct TombSet {
    words: Vec<u64>,
    count: usize,
}

impl TombSet {
    fn contains(&self, id: usize) -> bool {
        self.words
            .get(id >> 6)
            .is_some_and(|w| w >> (id & 63) & 1 != 0)
    }

    fn insert(&mut self, id: usize) {
        let word = id >> 6;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (id & 63);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.count += 1;
        }
    }

    fn count(&self) -> usize {
        self.count
    }
}

/// The mutation overlay of one epoch: tombstones over the combined id
/// space and append logs of rows inserted after the base build, stored
/// pre-quantised so query-time scans touch no float conversion.
#[derive(Clone)]
pub struct DeltaIndex {
    point_tombs: TombSet,
    weight_tombs: TombSet,
    appended_points: PointSet,
    /// Row-major quantised cells of the appended points.
    ap_cells: ApproxVectors,
    /// The same cells in the blocked scan's column-major layout, one
    /// zero-padded chunk of `64 · d` cells per 64 appended points:
    /// dimension `k` of point `b + lane` (`b` a multiple of 64) sits at
    /// `b · d + k · 64 + lane`.
    ap_cols: Vec<u8>,
    ap_cell_sums: Vec<u32>,
    appended_weights: WeightSet,
    aw_cells: Vec<u8>,
}

impl DeltaIndex {
    fn empty(dim: usize, value_range: f64) -> RrqResult<Self> {
        Ok(Self {
            point_tombs: TombSet::default(),
            weight_tombs: TombSet::default(),
            appended_points: PointSet::new(dim, value_range)?,
            ap_cells: ApproxVectors::empty(dim),
            ap_cols: Vec::new(),
            ap_cell_sums: Vec::new(),
            appended_weights: WeightSet::new(dim)?,
            aw_cells: Vec::new(),
        })
    }

    /// The point tombstones as bitmap words (bit `id & 63` of word
    /// `id >> 6`); words past the end are zero.
    pub(crate) fn point_tomb_words(&self) -> &[u64] {
        &self.point_tombs.words
    }

    /// The append tail as a run of scan lanes whose ids start at `first`.
    pub(crate) fn tail_lanes(&self, first: usize) -> Lanes<'_, ApproxVectors> {
        Lanes {
            first,
            cols: &self.ap_cols,
            block_stride: self.appended_points.dim(),
            dim_stride: 64,
            sums: &self.ap_cell_sums,
            rows: &self.ap_cells,
            points: &self.appended_points,
            tail: true,
        }
    }

    pub(crate) fn point_tombstoned(&self, id: usize) -> bool {
        self.point_tombs.contains(id)
    }

    pub(crate) fn weight_tombstoned(&self, wid: usize) -> bool {
        self.weight_tombs.contains(wid)
    }

    pub(crate) fn appended_points_len(&self) -> usize {
        self.appended_points.len()
    }

    pub(crate) fn appended_weights_len(&self) -> usize {
        self.appended_weights.len()
    }

    pub(crate) fn appended_point(&self, j: usize) -> &[f64] {
        self.appended_points.point(PointId(j))
    }

    pub(crate) fn appended_weight(&self, j: usize) -> &[f64] {
        self.appended_weights.weight(WeightId(j))
    }

    pub(crate) fn appended_weight_cells(&self, j: usize) -> &[u8] {
        let d = self.appended_weights.dim();
        &self.aw_cells[j * d..(j + 1) * d]
    }

    fn push_point(&mut self, grid: &Grid, row: &[f64]) -> RrqResult<()> {
        self.appended_points.push_slice(row)?;
        let j = self.ap_cells.len();
        self.ap_cells.push_point(grid, row);
        let cells = self.ap_cells.row(j);
        let d = cells.len();
        // Point `j` is lane `j % 64` of the block starting at tail index
        // `b`; `tail_lanes` declares the strides `Lanes::column` reads.
        let (b, lane) = (j / 64 * 64, j % 64);
        if lane == 0 {
            self.ap_cols.resize(self.ap_cols.len() + 64 * d, 0);
        }
        for (k, &c) in cells.iter().enumerate() {
            self.ap_cols[b * d + k * 64 + lane] = c;
        }
        self.ap_cell_sums
            .push(cells.iter().map(|&c| c as u32).sum());
        Ok(())
    }

    fn push_weight(&mut self, grid: &Grid, row: &[f64]) -> RrqResult<()> {
        validate_weight_components(row)?;
        self.appended_weights.push_slice(row)?;
        for &v in row {
            self.aw_cells.push(grid.weight_cell(v));
        }
        Ok(())
    }
}

/// One published, immutable version of the engine: base build + delta
/// overlay + (optionally) the threshold table repaired to this epoch,
/// all under a monotone epoch id. Readers hold an `Arc<EngineState>`
/// and build borrowed [`Gir`] views from it; nothing in here ever
/// changes after publication.
pub struct EngineState {
    base: Arc<BaseData>,
    delta: DeltaIndex,
    threshold: Option<Arc<ThresholdIndex>>,
    epoch: u64,
    /// External id of every internal point id (base then append tail);
    /// tombstoned slots keep their stale entry — they are never served.
    point_ext: Vec<u64>,
    /// External id of every internal weight id.
    weight_ext: Vec<u64>,
}

impl EngineState {
    /// The monotone epoch id of this version.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A borrowed scan view over this snapshot. Views are cheap (no
    /// re-quantisation) and answer queries exactly as a from-scratch
    /// engine over the live rows would.
    pub fn view(&self) -> Gir<'_, &Grid> {
        Gir::snapshot_view(self)
    }

    /// Live point count (base + appended, minus tombstones).
    pub fn live_point_count(&self) -> usize {
        self.base.points.len() + self.delta.appended_points_len() - self.delta.point_tombs.count()
    }

    /// Live weight count.
    pub fn live_weight_count(&self) -> usize {
        self.base.weights.len() + self.delta.appended_weights_len()
            - self.delta.weight_tombs.count()
    }

    /// Total internal weight-id width (live + tombstoned).
    pub fn total_weight_width(&self) -> usize {
        self.base.weights.len() + self.delta.appended_weights_len()
    }

    /// The external id of internal weight id `wid` — the stable identity
    /// callers use to interpret query results across epochs and
    /// compactions.
    pub fn weight_external(&self, wid: usize) -> u64 {
        self.weight_ext[wid]
    }

    /// The external id of internal point id `id`.
    pub fn point_external(&self, id: usize) -> u64 {
        self.point_ext[id]
    }

    /// Live points as `(external id, row)` in internal-id order — the
    /// order a rebuild-from-scratch must use to be comparable.
    pub fn live_point_entries(&self) -> Vec<(u64, &[f64])> {
        live_points(&self.base, &self.delta)
            .map(|(id, row)| (self.point_ext[id], row))
            .collect()
    }

    /// Live weights as `(external id, row)` in internal-id order.
    pub fn live_weight_entries(&self) -> Vec<(u64, &[f64])> {
        live_weights(&self.base, &self.delta)
            .map(|(wid, row)| (self.weight_ext[wid], row))
            .collect()
    }

    /// The threshold table attached to this epoch, if any.
    pub fn threshold_index(&self) -> Option<&ThresholdIndex> {
        self.threshold.as_deref()
    }

    /// Tombstoned `(point, weight)` slot counts in this epoch's delta —
    /// `(0, 0)` right after a compaction fold.
    pub fn tombstoned_counts(&self) -> (usize, usize) {
        (
            self.delta.point_tombs.count(),
            self.delta.weight_tombs.count(),
        )
    }

    /// Appended `(point, weight)` row counts in this epoch's delta —
    /// `(0, 0)` right after a compaction fold.
    pub fn appended_counts(&self) -> (usize, usize) {
        (
            self.delta.appended_points_len(),
            self.delta.appended_weights_len(),
        )
    }

    /// Whether internal weight id `wid` is live (not tombstoned) in this
    /// epoch.
    pub fn weight_is_live(&self, wid: usize) -> bool {
        !self.delta.weight_tombstoned(wid)
    }

    pub(crate) fn base(&self) -> &BaseData {
        &self.base
    }

    pub(crate) fn delta(&self) -> &DeltaIndex {
        &self.delta
    }

    pub(crate) fn threshold_arc(&self) -> Option<Arc<ThresholdIndex>> {
        self.threshold.clone()
    }
}

/// The `Arc`-swapped publication point: readers [`Self::snapshot`] the
/// current epoch, the writer swaps in the next. The mutex guards only
/// the pointer swap/clone (a few instructions); queries never hold it.
pub struct SnapshotHandle {
    current: Mutex<Arc<EngineState>>,
}

impl SnapshotHandle {
    /// The current epoch's state. The returned `Arc` stays consistent —
    /// and its epoch stays serveable — for as long as the caller holds
    /// it, regardless of concurrent publishes.
    pub fn snapshot(&self) -> Arc<EngineState> {
        self.current
            .lock()
            // rrq-lint: allow(no-unwrap-in-lib) -- the lock only wraps an Arc clone/swap, which cannot panic; poisoning would mean memory corruption and must re-raise
            .expect("snapshot handle poisoned: a writer panicked during the pointer swap")
            .clone()
    }

    fn publish(&self, next: Arc<EngineState>) {
        *self
            .current
            .lock()
            // rrq-lint: allow(no-unwrap-in-lib) -- the lock only wraps an Arc clone/swap, which cannot panic; poisoning would mean memory corruption and must re-raise
            .expect("snapshot handle poisoned: a writer panicked during the pointer swap") = next;
    }
}

/// A staged (not yet published) mutation.
enum StagedOp {
    InsertPoint(Vec<f64>, u64),
    DeletePoint(u64),
    InsertWeight(Vec<f64>, u64),
    DeleteWeight(u64),
}

/// The single-writer mutable engine over [`SnapshotHandle`].
///
/// Mutations are staged ([`Self::insert_point`] & friends assign stable
/// external ids immediately) and become visible atomically at
/// [`Self::publish`], which builds the next [`EngineState`] — clone of
/// the delta with the batch applied, threshold columns repaired via the
/// reverse-query self-application, epoch incremented — and swaps it in.
/// Readers on the [`WorkerPool`](crate::WorkerPool) or anywhere else
/// keep answering from whatever epoch they snapshotted.
pub struct DynamicEngine {
    handle: SnapshotHandle,
    staged: Vec<StagedOp>,
    point_by_ext: BTreeMap<u64, usize>,
    weight_by_ext: BTreeMap<u64, usize>,
    staged_point_inserts: BTreeMap<u64, usize>,
    staged_weight_inserts: BTreeMap<u64, usize>,
    staged_point_dels: Vec<u64>,
    staged_weight_dels: Vec<u64>,
    next_point_ext: u64,
    next_weight_ext: u64,
    compact_requested: bool,
}

impl DynamicEngine {
    /// Builds the base epoch (id 0) over the initial sets.
    ///
    /// # Errors
    ///
    /// Dimension mismatches, weight components off the `[0, 1]` axis,
    /// and `config.packed` (snapshot views scan byte-format cells; the
    /// packed store is a static-engine memory optimisation) are
    /// rejected.
    pub fn new(points: PointSet, weights: WeightSet, config: GirConfig) -> RrqResult<Self> {
        if config.packed {
            return Err(RrqError::InvalidParameter {
                name: "config.packed",
                message: "the mutable engine serves byte-format snapshots only".to_string(),
            });
        }
        let n_points = points.len();
        let n_weights = weights.len();
        let delta = DeltaIndex::empty(points.dim(), points.value_range())?;
        let base = BaseData::build(points, weights, config)?;
        let state = EngineState {
            base: Arc::new(base),
            delta,
            threshold: None,
            epoch: 0,
            point_ext: (0..n_points as u64).collect(),
            weight_ext: (0..n_weights as u64).collect(),
        };
        Ok(Self {
            handle: SnapshotHandle {
                current: Mutex::new(Arc::new(state)),
            },
            staged: Vec::new(),
            point_by_ext: (0..n_points as u64).map(|e| (e, e as usize)).collect(),
            weight_by_ext: (0..n_weights as u64).map(|e| (e, e as usize)).collect(),
            staged_point_inserts: BTreeMap::new(),
            staged_weight_inserts: BTreeMap::new(),
            staged_point_dels: Vec::new(),
            staged_weight_dels: Vec::new(),
            next_point_ext: n_points as u64,
            next_weight_ext: n_weights as u64,
            compact_requested: false,
        })
    }

    /// The publication handle, for sharing with concurrent readers.
    pub fn handle(&self) -> &SnapshotHandle {
        &self.handle
    }

    /// The current epoch's state (shorthand for `handle().snapshot()`).
    pub fn snapshot(&self) -> Arc<EngineState> {
        self.handle.snapshot()
    }

    /// The current published epoch id.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Number of staged, not-yet-published operations.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Builds and attaches a threshold table over the current live rows
    /// at the current epoch (replacing any previous table). Requires an
    /// empty stage so the table can never describe unpublished data.
    ///
    /// The ladder splits at its served `k` (`k_max`,
    /// [`ThresholdIndex::served_k`] over the live point count): the
    /// largest bucket below `|P|` that is not on the rung sequence
    /// `isqrt(2^j)`, i.e. the explicit `k` of
    /// [`ThresholdIndex::default_buckets`]. Rungs up to
    /// it stay exact, so RTK at that `k` decides exactly and a publish
    /// recomputes a column only when a staged point scores at or below
    /// its `k_max` rung; the rungs above become count-tracked floor
    /// rungs (see the `threshold` module docs). With no such bucket
    /// every rung stays exact and every publish flags against the top
    /// rung.
    ///
    /// # Errors
    ///
    /// [`RrqError::InvalidParameter`] with staged operations pending, or
    /// bucket validation failures.
    pub fn enable_threshold_index(&mut self, buckets: &[usize]) -> RrqResult<()> {
        if !self.staged.is_empty() {
            return Err(RrqError::InvalidParameter {
                name: "staged",
                message: "publish staged mutations before attaching a threshold index".to_string(),
            });
        }
        let cur = self.handle.snapshot();
        let mut idx = ThresholdIndex::unfilled(
            buckets,
            true,
            cur.live_point_count(),
            cur.total_weight_width(),
            cur.base.points.dim(),
        )?;
        let live_rows: Vec<&[f64]> = live_points(&cur.base, &cur.delta)
            .map(|(_, row)| row)
            .collect();
        let mut keys = Vec::with_capacity(live_rows.len());
        for (wid, w) in live_weights(&cur.base, &cur.delta) {
            idx.recompute_column(wid, w, live_rows.iter().copied(), &mut keys);
        }
        idx.stamp(cur.base.fingerprint, cur.epoch);
        let next = EngineState {
            base: Arc::clone(&cur.base),
            delta: cur.delta.clone(),
            threshold: Some(Arc::new(idx)),
            epoch: cur.epoch,
            point_ext: cur.point_ext.clone(),
            weight_ext: cur.weight_ext.clone(),
        };
        self.handle.publish(Arc::new(next));
        Ok(())
    }

    /// Stages a point insertion and returns its stable external id. The
    /// point becomes queryable at the next [`Self::publish`].
    ///
    /// # Errors
    ///
    /// Row validation failures (dimensionality, range, finiteness).
    pub fn insert_point(&mut self, row: &[f64]) -> RrqResult<u64> {
        let cur = self.handle.snapshot();
        // Dry-run the exact PointSet validation the publish will apply,
        // so staging fails eagerly and publish cannot.
        let mut probe = PointSet::new(cur.base.points.dim(), cur.base.points.value_range())?;
        probe.push_slice(row)?;
        let ext = self.next_point_ext;
        self.next_point_ext += 1;
        self.staged_point_inserts.insert(ext, self.staged.len());
        self.staged.push(StagedOp::InsertPoint(row.to_vec(), ext));
        Ok(ext)
    }

    /// Stages a point deletion by external id.
    ///
    /// # Errors
    ///
    /// [`RrqError::InvalidParameter`] for an unknown or already-deleted
    /// id.
    pub fn delete_point(&mut self, ext: u64) -> RrqResult<()> {
        let known =
            self.point_by_ext.contains_key(&ext) || self.staged_point_inserts.contains_key(&ext);
        if !known || self.staged_point_dels.contains(&ext) {
            return Err(RrqError::InvalidParameter {
                name: "point",
                message: format!("external point id {ext} is not live"),
            });
        }
        self.staged_point_dels.push(ext);
        self.staged.push(StagedOp::DeletePoint(ext));
        Ok(())
    }

    /// Stages a weight insertion and returns its stable external id.
    ///
    /// # Errors
    ///
    /// Normalisation/component validation failures.
    pub fn insert_weight(&mut self, row: &[f64]) -> RrqResult<u64> {
        let cur = self.handle.snapshot();
        let mut probe = WeightSet::new(cur.base.weights.dim())?;
        validate_weight_components(row)?;
        probe.push_slice(row)?;
        let ext = self.next_weight_ext;
        self.next_weight_ext += 1;
        self.staged_weight_inserts.insert(ext, self.staged.len());
        self.staged.push(StagedOp::InsertWeight(row.to_vec(), ext));
        Ok(ext)
    }

    /// Stages a weight deletion by external id.
    ///
    /// # Errors
    ///
    /// [`RrqError::InvalidParameter`] for an unknown or already-deleted
    /// id.
    pub fn delete_weight(&mut self, ext: u64) -> RrqResult<()> {
        let known =
            self.weight_by_ext.contains_key(&ext) || self.staged_weight_inserts.contains_key(&ext);
        if !known || self.staged_weight_dels.contains(&ext) {
            return Err(RrqError::InvalidParameter {
                name: "weight",
                message: format!("external weight id {ext} is not live"),
            });
        }
        self.staged_weight_dels.push(ext);
        self.staged.push(StagedOp::DeleteWeight(ext));
        Ok(())
    }

    /// Requests a compaction fold at the next [`Self::publish`] (which
    /// may also trigger on its own once tombstones outnumber live rows).
    pub fn request_compaction(&mut self) {
        self.compact_requested = true;
    }

    /// Forces an immediate compaction publish (no staged ops required).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::publish`] failures.
    pub fn compact(&mut self, stats: &mut QueryStats) -> RrqResult<u64> {
        self.compact_requested = true;
        self.publish(stats)
    }

    /// Publishes every staged mutation as the next epoch: applies the
    /// batch to a copy of the delta, recomputes the threshold columns
    /// whose exact rungs the batch can have touched (booking
    /// `threshold_rows_repaired`) and moves the floor counts of the
    /// others, folds tombstones into a fresh base
    /// when compaction triggers, bumps the epoch (booking
    /// `epoch_published`) and swaps the new state into the handle.
    /// Returns the new epoch id.
    ///
    /// On error the published state is untouched (the swap is the last
    /// step), but the staged batch is cleared.
    ///
    /// # Errors
    ///
    /// Row re-validation failures while applying the batch (prevented by
    /// the staging dry-runs in normal operation).
    pub fn publish(&mut self, stats: &mut QueryStats) -> RrqResult<u64> {
        let cur = self.handle.snapshot();
        let staged = std::mem::take(&mut self.staged);
        self.staged_point_inserts.clear();
        self.staged_weight_inserts.clear();
        self.staged_point_dels.clear();
        self.staged_weight_dels.clear();

        let mut delta = cur.delta.clone();
        let mut point_ext = cur.point_ext.clone();
        let mut weight_ext = cur.weight_ext.clone();
        let base_p = cur.base.points.len();
        let base_w = cur.base.weights.len();

        // The self-application: every mutated point row is scored once
        // per live column and reverse-queried against the table at the
        // column's top exact rung. A row at or below it flags the column
        // for recompute: deletes that raise an exact threshold always
        // flag here, so the exact rungs of columns flagged by no op are
        // provably bit-identical after the batch. A row above it moves
        // the column's floor counts instead. Exact rungs change only in
        // the recompute below, so every op is judged against the
        // pre-batch table.
        let mut affected: Vec<usize> = Vec::new();
        let mut new_weight_cols: Vec<usize> = Vec::new();
        let mut table = cur.threshold.as_deref().cloned();
        let mut note_point_op = |idx: &mut ThresholdIndex, row: &[f64], insert: bool| {
            for (wid, w) in live_weights(&cur.base, &cur.delta) {
                let s = rrq_types::dot(w, row);
                if idx.row_affected(wid, s) {
                    affected.push(wid);
                } else {
                    idx.shift_floor_counts(wid, s, insert);
                }
            }
        };

        for op in &staged {
            match op {
                StagedOp::InsertPoint(row, ext) => {
                    let id = base_p + delta.appended_points_len();
                    delta.push_point(&cur.base.grid, row)?;
                    point_ext.push(*ext);
                    self.point_by_ext.insert(*ext, id);
                    if let Some(idx) = table.as_mut() {
                        note_point_op(idx, row, true);
                    }
                }
                StagedOp::DeletePoint(ext) => {
                    let id = *self
                        .point_by_ext
                        .get(ext)
                        .ok_or(RrqError::InvalidParameter {
                            name: "point",
                            message: format!("external point id {ext} vanished before publish"),
                        })?;
                    if let Some(idx) = table.as_mut() {
                        note_point_op(idx, point_row(&cur.base, &delta, id), false);
                    }
                    delta.point_tombs.insert(id);
                    self.point_by_ext.remove(ext);
                }
                StagedOp::InsertWeight(row, ext) => {
                    let wid = base_w + delta.appended_weights_len();
                    delta.push_weight(&cur.base.grid, row)?;
                    weight_ext.push(*ext);
                    self.weight_by_ext.insert(*ext, wid);
                    new_weight_cols.push(wid);
                }
                StagedOp::DeleteWeight(ext) => {
                    let wid = *self
                        .weight_by_ext
                        .get(ext)
                        .ok_or(RrqError::InvalidParameter {
                            name: "weight",
                            message: format!("external weight id {ext} vanished before publish"),
                        })?;
                    delta.weight_tombs.insert(wid);
                    self.weight_by_ext.remove(ext);
                }
            }
        }

        let epoch = cur.epoch + 1;
        let total_p = base_p + delta.appended_points_len();
        let total_w = base_w + delta.appended_weights_len();
        let compacting = self.compact_requested
            || delta.point_tombs.count() * 2 > total_p
            || delta.weight_tombs.count() * 2 > total_w;
        self.compact_requested = false;

        // Repair the threshold table over the post-batch live rows.
        // Whole-column recomputation over the final data is
        // order-independent, so the repaired exact rungs are
        // byte-identical to a rebuild — regardless of how the batch
        // interleaved ops — and a recomputed column's floor counts start
        // afresh.
        let mut threshold = None;
        if let Some(mut idx) = table {
            idx.push_weight_columns(total_w - idx.n_weights());
            affected.sort_unstable();
            affected.dedup();
            let mut repair: Vec<usize> = affected;
            repair.extend(new_weight_cols.iter().copied());
            repair.sort_unstable();
            repair.dedup();
            let live_rows: Vec<&[f64]> =
                live_points(&cur.base, &delta).map(|(_, row)| row).collect();
            let mut keys = Vec::with_capacity(live_rows.len());
            let mut repaired = 0u64;
            for &wid in &repair {
                if delta.weight_tombstoned(wid) {
                    continue;
                }
                let w = weight_row(&cur.base, &delta, wid);
                idx.recompute_column(wid, w, live_rows.iter().copied(), &mut keys);
                repaired += 1;
            }
            idx.set_live_points(live_rows.len());
            stats.threshold_rows_repaired += repaired;
            threshold = Some(idx);
        }

        let next = if compacting {
            self.fold_compaction(&cur, delta, point_ext, weight_ext, threshold, epoch)?
        } else {
            if let Some(idx) = threshold.as_mut() {
                idx.stamp(cur.base.fingerprint, epoch);
            }
            EngineState {
                base: Arc::clone(&cur.base),
                delta,
                threshold: threshold.map(Arc::new),
                epoch,
                point_ext,
                weight_ext,
            }
        };
        stats.epoch_published += 1;
        self.handle.publish(Arc::new(next));
        Ok(epoch)
    }

    /// Folds tombstones and append logs into a fresh base build.
    /// Internal ids are renumbered densely in ascending old-id order, so
    /// relative order — and with it RKR's smaller-id tie-break — is
    /// preserved, and every surviving external id maps to the same row.
    /// Threshold columns are *moved*, not recomputed: compaction changes
    /// no score.
    fn fold_compaction(
        &mut self,
        cur: &EngineState,
        delta: DeltaIndex,
        point_ext: Vec<u64>,
        weight_ext: Vec<u64>,
        threshold: Option<ThresholdIndex>,
        epoch: u64,
    ) -> RrqResult<EngineState> {
        let dim = cur.base.points.dim();
        let mut points = PointSet::new(dim, cur.base.points.value_range())?;
        let mut new_point_ext = Vec::new();
        for (id, row) in live_points(&cur.base, &delta) {
            points.push_slice(row)?;
            new_point_ext.push(point_ext[id]);
        }
        let mut weights = WeightSet::new(dim)?;
        let mut new_weight_ext = Vec::new();
        let mut keep_cols = Vec::new();
        for (wid, row) in live_weights(&cur.base, &delta) {
            weights.push_slice(row)?;
            new_weight_ext.push(weight_ext[wid]);
            keep_cols.push(wid);
        }
        self.point_by_ext = new_point_ext
            .iter()
            .enumerate()
            .map(|(id, &e)| (e, id))
            .collect();
        self.weight_by_ext = new_weight_ext
            .iter()
            .enumerate()
            .map(|(wid, &e)| (e, wid))
            .collect();
        let fresh_delta = DeltaIndex::empty(dim, points.value_range())?;
        let base = BaseData::build(points, weights, cur.base.config)?;
        let threshold = threshold.map(|mut idx| {
            idx.retain_weight_columns(&keep_cols);
            idx.stamp(base.fingerprint, epoch);
            Arc::new(idx)
        });
        Ok(EngineState {
            base: Arc::new(base),
            delta: fresh_delta,
            threshold,
            epoch,
            point_ext: new_point_ext,
            weight_ext: new_weight_ext,
        })
    }

    /// Epoch-aware staleness check of a persisted threshold artifact:
    /// the artifact must have been stamped at the *current* epoch over
    /// the current base data. Any publish since it was written — even
    /// one that did not touch the threshold table — rejects it, because
    /// the epoch is folded into the fingerprint.
    ///
    /// # Errors
    ///
    /// [`RrqError::ArtifactStale`] naming the first mismatch.
    pub fn check_threshold_artifact(&self, idx: &ThresholdIndex) -> RrqResult<()> {
        let cur = self.handle.snapshot();
        if idx.epoch() != cur.epoch {
            return Err(RrqError::ArtifactStale { what: "epoch" });
        }
        idx.validate_shape(
            cur.base.points.dim(),
            cur.live_point_count(),
            cur.total_weight_width(),
        )?;
        if idx.fingerprint() != fold_epoch(cur.base.fingerprint, cur.epoch) {
            return Err(RrqError::ArtifactStale {
                what: "data fingerprint",
            });
        }
        Ok(())
    }
}

/// The row of internal point id `id`: base rows first, then the append
/// tail of `delta`.
fn point_row<'a>(base: &'a BaseData, delta: &'a DeltaIndex, id: usize) -> &'a [f64] {
    let base_p = base.points.len();
    if id < base_p {
        base.points.point(PointId(id))
    } else {
        delta.appended_point(id - base_p)
    }
}

/// The row of internal weight id `wid`: base rows first, then the append
/// tail of `delta`.
fn weight_row<'a>(base: &'a BaseData, delta: &'a DeltaIndex, wid: usize) -> &'a [f64] {
    let base_w = base.weights.len();
    if wid < base_w {
        base.weights.weight(WeightId(wid))
    } else {
        delta.appended_weight(wid - base_w)
    }
}

/// The live points of `base` under `delta` as `(internal id, row)`, in
/// internal-id order — the order a rebuild-from-scratch must use to be
/// comparable.
fn live_points<'a>(
    base: &'a BaseData,
    delta: &'a DeltaIndex,
) -> impl Iterator<Item = (usize, &'a [f64])> + 'a {
    (0..base.points.len() + delta.appended_points_len())
        .filter(move |&id| !delta.point_tombstoned(id))
        .map(move |id| (id, point_row(base, delta, id)))
}

/// The live weights of `base` under `delta` as `(internal id, row)`, in
/// internal-id order.
fn live_weights<'a>(
    base: &'a BaseData,
    delta: &'a DeltaIndex,
) -> impl Iterator<Item = (usize, &'a [f64])> + 'a {
    (0..base.weights.len() + delta.appended_weights_len())
        .filter(move |&wid| !delta.weight_tombstoned(wid))
        .map(move |wid| (wid, weight_row(base, delta, wid)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_data::synthetic;
    use rrq_types::{RkrQuery, RtkQuery};

    fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
        (
            synthetic::uniform_points(dim, np, 100.0, seed).unwrap(),
            synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
        )
    }

    fn rebuild_oracle(state: &EngineState) -> (PointSet, WeightSet, Vec<u64>, Vec<u64>) {
        let dim = state.base().points().dim();
        let mut p = PointSet::new(dim, state.base().points().value_range()).unwrap();
        let mut p_ext = Vec::new();
        for (e, row) in state.live_point_entries() {
            p.push_slice(row).unwrap();
            p_ext.push(e);
        }
        let mut w = WeightSet::new(dim).unwrap();
        let mut w_ext = Vec::new();
        for (e, row) in state.live_weight_entries() {
            w.push_slice(row).unwrap();
            w_ext.push(e);
        }
        (p, w, p_ext, w_ext)
    }

    /// RTK/RKR answers from a snapshot view, mapped to external ids,
    /// must equal a rebuild-from-scratch over the live rows.
    fn assert_matches_rebuild(engine: &DynamicEngine, qs: &[Vec<f64>], k: usize) {
        let state = engine.snapshot();
        let view = state.view();
        let (p, w, _p_ext, w_ext) = rebuild_oracle(&state);
        let oracle = Gir::new(&p, &w, state.base().config());
        for q in qs {
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            let got: Vec<u64> = view
                .reverse_top_k(q, k, &mut s1)
                .weights()
                .iter()
                .map(|wid| state.weight_external(wid.0))
                .collect();
            let want: Vec<u64> = oracle
                .reverse_top_k(q, k, &mut s2)
                .weights()
                .iter()
                .map(|wid| w_ext[wid.0])
                .collect();
            assert_eq!(got, want, "rtk k={k}");
            let mut s3 = QueryStats::default();
            let mut s4 = QueryStats::default();
            let got: Vec<(u64, usize)> = view
                .reverse_k_ranks(q, k, &mut s3)
                .entries()
                .iter()
                .map(|e| (state.weight_external(e.weight.0), e.rank))
                .collect();
            let want: Vec<(u64, usize)> = oracle
                .reverse_k_ranks(q, k, &mut s4)
                .entries()
                .iter()
                .map(|e| (w_ext[e.weight.0], e.rank))
                .collect();
            assert_eq!(got, want, "rkr k={k}");
        }
    }

    /// Publishes restamp the table from the base fingerprint cached in
    /// `BaseData`: after plain publishes and after a compaction, the
    /// stamp equals the fingerprint hashed afresh from the base data.
    #[test]
    fn restamped_fingerprint_equals_one_recomputed_from_the_base() {
        let (p, w) = workload(3, 60, 12, 17);
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        engine.enable_threshold_index(&[1, 6, 40]).unwrap();
        let mut stats = QueryStats::default();
        for round in 0..4u64 {
            engine.insert_point(&[10.0, 20.0, 30.0]).unwrap();
            engine.delete_point(round).unwrap();
            if round == 2 {
                engine.request_compaction();
            }
            engine.publish(&mut stats).unwrap();
            let state = engine.snapshot();
            let idx = state.threshold_index().unwrap();
            let base = state.base();
            assert_eq!(
                idx.fingerprint(),
                crate::threshold::epoch_fingerprint(base.points(), base.weights(), state.epoch()),
                "round {round}"
            );
            engine.check_threshold_artifact(idx).unwrap();
        }
        assert_eq!(
            engine.snapshot().tombstoned_counts(),
            (1, 0),
            "compacted once"
        );
    }

    #[test]
    fn epoch_zero_view_matches_static_engine() {
        let (p, w) = workload(4, 120, 30, 1);
        let engine = DynamicEngine::new(p.clone(), w.clone(), GirConfig::default()).unwrap();
        assert_eq!(engine.epoch(), 0);
        let qs: Vec<Vec<f64>> = [5usize, 40, 99]
            .iter()
            .map(|&i| p.point(PointId(i)).to_vec())
            .collect();
        assert_matches_rebuild(&engine, &qs, 7);
    }

    #[test]
    fn mutations_are_invisible_until_publish_then_exact() {
        let (p, w) = workload(3, 80, 20, 3);
        let q = p.point(PointId(10)).to_vec();
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        let before = engine.snapshot();
        engine.insert_point(&[1.0, 2.0, 3.0]).unwrap();
        engine.delete_point(3).unwrap();
        engine.delete_weight(7).unwrap();
        engine.insert_weight(&[0.5, 0.25, 0.25]).unwrap();
        // Staged ops are invisible: the published epoch still serves the
        // original 80×20 sets.
        assert_eq!(engine.snapshot().epoch(), 0);
        assert_eq!(before.live_point_count(), 80);
        let mut stats = QueryStats::default();
        let epoch = engine.publish(&mut stats).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(stats.epoch_published, 1);
        let state = engine.snapshot();
        assert_eq!(state.live_point_count(), 80);
        assert_eq!(state.live_weight_count(), 20);
        assert_matches_rebuild(&engine, &[q], 5);
        // The old Arc still answers from epoch 0.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.live_point_count(), 80);
    }

    #[test]
    fn view_books_tombstone_and_append_counters() {
        let (p, w) = workload(3, 64, 10, 5);
        let q = p.point(PointId(2)).to_vec();
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        engine.delete_point(0).unwrap();
        engine.delete_weight(1).unwrap();
        engine.insert_point(&[9.0, 9.0, 9.0]).unwrap();
        let mut stats = QueryStats::default();
        engine.publish(&mut stats).unwrap();
        let state = engine.snapshot();
        let mut qs = QueryStats::default();
        state.view().reverse_k_ranks(&q, 5, &mut qs);
        // 9 live weights, each skipping the tombstoned point; plus the
        // tombstoned weight itself.
        assert_eq!(qs.tombstones_skipped, 9 + 1);
        // The appended point is examined once per live weight scan that
        // reaches it (no early termination at k=5 with 63 live points
        // before it is not guaranteed — just require > 0).
        assert!(qs.appended_scanned > 0);
        assert_eq!(qs.weights_visited, 9);
    }

    #[test]
    fn compaction_is_invisible_to_results() {
        let (p, w) = workload(4, 90, 18, 7);
        let qs: Vec<Vec<f64>> = [1usize, 33, 70]
            .iter()
            .map(|&i| p.point(PointId(i)).to_vec())
            .collect();
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        for ext in [2u64, 3, 5, 8, 13, 21, 34, 55] {
            engine.delete_point(ext).unwrap();
        }
        engine.insert_point(&[4.0, 4.0, 4.0, 4.0]).unwrap();
        engine.delete_weight(11).unwrap();
        let mut stats = QueryStats::default();
        engine.publish(&mut stats).unwrap();
        let pre_compact: Vec<Vec<(u64, usize)>> = qs
            .iter()
            .map(|q| {
                let state = engine.snapshot();
                let mut s = QueryStats::default();
                state
                    .view()
                    .reverse_k_ranks(q, 6, &mut s)
                    .entries()
                    .iter()
                    .map(|e| (state.weight_external(e.weight.0), e.rank))
                    .collect()
            })
            .collect();
        let epoch = engine.compact(&mut stats).unwrap();
        let state = engine.snapshot();
        assert_eq!(state.epoch(), epoch);
        // Fold really happened: no tombstones remain.
        assert_eq!(state.live_point_count(), state.base().points().len());
        assert_matches_rebuild(&engine, &qs, 6);
        for (q, want) in qs.iter().zip(&pre_compact) {
            let mut s = QueryStats::default();
            let got: Vec<(u64, usize)> = state
                .view()
                .reverse_k_ranks(q, 6, &mut s)
                .entries()
                .iter()
                .map(|e| (state.weight_external(e.weight.0), e.rank))
                .collect();
            assert_eq!(&got, want, "compaction changed results");
        }
    }

    #[test]
    fn threshold_repair_equals_rebuild_bit_for_bit() {
        let (p, w) = workload(4, 70, 16, 11);
        // Served k = 33: rungs 1, 4, 9, 33 are exact, rung 70 a floor rung.
        let buckets = [1usize, 4, 9, 33, 70];
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        engine.enable_threshold_index(&buckets).unwrap();
        engine.insert_point(&[3.0, 1.0, 4.0, 1.5]).unwrap();
        engine.insert_point(&[99.0, 99.0, 99.0, 99.0]).unwrap();
        engine.delete_point(12).unwrap();
        engine.insert_weight(&[0.4, 0.3, 0.2, 0.1]).unwrap();
        engine.delete_weight(5).unwrap();
        let mut stats = QueryStats::default();
        engine.publish(&mut stats).unwrap();
        assert!(stats.threshold_rows_repaired > 0);
        let state = engine.snapshot();
        let repaired = state.threshold_index().expect("threshold attached");
        assert_eq!(repaired.n_exact(), 4);
        // Oracle: rebuild from the live rows with the same buckets, then
        // compare column by column over the live ids: the exact rungs
        // bit for bit, the floor rung for soundness.
        let (pl, wl, _pe, _we) = rebuild_oracle(&state);
        let oracle = ThresholdIndex::build(&pl, &wl, &buckets).unwrap();
        let n_w = repaired.n_weights();
        let mut live_wid = 0usize;
        for wid in 0..state.total_weight_width() {
            if state.delta().weight_tombstoned(wid) {
                continue;
            }
            for bi in 0..repaired.n_exact() {
                let got = repaired.scores()[bi * n_w + wid];
                let want = oracle.scores()[bi * oracle.n_weights() + live_wid];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "column {wid} bucket {bi} diverged from rebuild"
                );
            }
            let stored = f64::from(repaired.floor_scores()[wid]);
            let count = repaired.floor_counts()[wid] as usize;
            let w = wl.weight(WeightId(live_wid));
            let at_or_below = pl
                .iter()
                .filter(|(_, row)| rrq_types::dot(w, row) <= stored)
                .count();
            assert!(
                count <= at_or_below,
                "column {wid}: floor count {count} unsound"
            );
            // Recomputed at 70 points, then moved by at most one delete.
            assert!(count >= 69, "column {wid}: floor count {count} lost points");
            live_wid += 1;
        }
        // And the served decisions agree end to end.
        let q = pl.point(PointId(0)).to_vec();
        assert_matches_rebuild(&engine, &[q], 4);
    }

    #[test]
    fn artifact_check_rejects_stale_epoch() {
        let (p, w) = workload(3, 40, 8, 13);
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        engine.enable_threshold_index(&[2, 8]).unwrap();
        let persisted = engine
            .snapshot()
            .threshold_index()
            .expect("attached")
            .clone();
        engine.check_threshold_artifact(&persisted).unwrap();
        engine.insert_point(&[1.0, 1.0, 1.0]).unwrap();
        let mut stats = QueryStats::default();
        engine.publish(&mut stats).unwrap();
        assert!(matches!(
            engine.check_threshold_artifact(&persisted),
            Err(RrqError::ArtifactStale { what: "epoch" })
        ));
    }

    #[test]
    fn delete_validation_rejects_unknown_and_double_deletes() {
        let (p, w) = workload(2, 10, 4, 17);
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        assert!(engine.delete_point(99).is_err());
        engine.delete_point(4).unwrap();
        assert!(engine.delete_point(4).is_err());
        assert!(engine.delete_weight(17).is_err());
        let mut stats = QueryStats::default();
        engine.publish(&mut stats).unwrap();
        assert!(engine.delete_point(4).is_err(), "still dead after publish");
    }

    #[test]
    fn packed_config_is_rejected() {
        let (p, w) = workload(2, 10, 4, 19);
        let config = GirConfig {
            packed: true,
            ..GirConfig::default()
        };
        assert!(matches!(
            DynamicEngine::new(p, w, config),
            Err(RrqError::InvalidParameter {
                name: "config.packed",
                ..
            })
        ));
    }

    #[test]
    fn out_of_axis_weight_insert_is_rejected() {
        let (p, w) = workload(2, 10, 4, 23);
        let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
        assert!(engine.insert_weight(&[1.2, -0.2]).is_err());
    }
}
