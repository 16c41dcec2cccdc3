//! Materialized per-weight k-th-score threshold index.
//!
//! Chester et al., *Indexing Reverse Top-k Queries*, observe that RTK
//! membership collapses to a single comparison once each weight's
//! k-th-best score is materialized: `q` is in `w`'s top-k iff
//! `f_w(q) ≤ s_k(w)` where `s_k(w)` is the k-th smallest score of `P`
//! under `w` (rank counts *strictly* preceding points, so ties sit on
//! the member side — exactly the tie semantics of [`crate::Gir`]).
//! Vlachou et al.'s RTA monotonicity argument grounds the bucketed
//! generalisation: `s_k(w)` is nondecreasing in `k`, so a sorted set of
//! materialized k-buckets brackets any query `k` from both sides.
//!
//! One column kernel (`ThresholdIndex::recompute_column`) fills every
//! weight's thresholds, for the build and for the mutable engine's
//! repair alike: the `|P|` scores of the weight under the same
//! left-to-right [`dot`] kernel the refine path uses, then one radix
//! selection of every rung (`radix_gather`). Every threshold comparison
//! is therefore *exact* over the computed `f64` values: the
//! short-circuit answers are byte-identical to a full grid scan, never
//! approximate.
//!
//! The table is stored column-major per k-bucket
//! (`scores[bucket_idx · |W| + wid]`) so a per-weight scan under one `k`
//! walks one contiguous row.
//!
//! **Exact and floor rungs.** A static table ([`ThresholdIndex::build`])
//! holds every rung exactly. The mutable engine's table
//! ([`crate::DynamicEngine::enable_threshold_index`]) splits the ladder
//! at the served `k` (`k_max`, [`ThresholdIndex::served_k`]). Rungs up
//! to `k_max` stay exact `f64` order statistics: RTK at the served `k`
//! needs them, and they stay bit-identical to a rebuild. Rungs above it
//! serve only RKR's `rank > bound` certificate, which needs a lower
//! bound on rank, not an exact score. Each becomes a pair: the score
//! rounded *up* to `f32` and a `u32` lower bound on the live points that
//! score at or below that stored value. At a recompute the count is
//! `min(b, live |P|)` (a rung past the live count stores `+∞`); every
//! later point insert or delete scoring at or below the stored value
//! moves it by one, so it stays a sound lower bound without a refresh.
//! The pair takes the 8 bytes of the `f64` it replaces, so the table's
//! size does not change. A publish then recomputes a column only when a
//! staged point scores at or below its `k_max` rung
//! ([`ThresholdIndex::row_affected`]), not below its top rung.
//!
//! Serve-side, the index is attached to a [`crate::Gir`] (and thereby
//! its parallel/pooled engines) after a staleness check against the
//! live data sets; the build/serve split is persisted through
//! [`crate::persist`] with a magic/version/checksum header so a stale
//! or truncated artifact is rejected with a typed error, not silently
//! misread.

use rrq_types::{dot, RrqError, RrqResult};
use rrq_types::{PointSet, WeightSet};

/// 64-bit FNV-1a over a byte stream — the workspace's zero-dependency
/// artifact checksum and data fingerprint primitive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a64(u64);

impl Fnv1a64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Self(Self::OFFSET)
    }

    #[inline]
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a `(P, W)` data-set pair: dimensionality,
/// cardinalities and every attribute value, hashed in storage order.
/// An index built from different data cannot validate against it.
pub(crate) fn data_fingerprint(points: &PointSet, weights: &WeightSet) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&(points.dim() as u64).to_le_bytes());
    h.update(&(points.len() as u64).to_le_bytes());
    h.update(&(weights.len() as u64).to_le_bytes());
    for &v in points.as_flat() {
        h.update(&v.to_le_bytes());
    }
    for &v in weights.as_flat() {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

/// Fingerprint of a `(P, W, epoch)` triple: the epoch of the mutable
/// engine is folded into the data fingerprint, so an artifact persisted
/// at epoch `e` validates only against the same base data *at the same
/// epoch* — publishing any mutation batch staleness-invalidates every
/// previously persisted artifact.
pub(crate) fn epoch_fingerprint(points: &PointSet, weights: &WeightSet, epoch: u64) -> u64 {
    fold_epoch(data_fingerprint(points, weights), epoch)
}

/// [`epoch_fingerprint`] from a [`data_fingerprint`] computed earlier:
/// the mutable engine hashes its base data once per base build and
/// folds in only the epoch at each publish.
pub(crate) fn fold_epoch(data_fingerprint: u64, epoch: u64) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&data_fingerprint.to_le_bytes());
    h.update(&epoch.to_le_bytes());
    h.finish()
}

/// What a materialized threshold comparison decided for one RTK weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RtkThresholdOutcome {
    /// `f_w(q) ≤ s_k(w)` certified: the weight is in the result.
    Member,
    /// `f_w(q) > s_k(w)` certified: the weight is not in the result.
    NonMember,
    /// The materialized buckets bracket `k` but the score falls between
    /// the bracketing thresholds — fall back to the grid scan.
    Straddle,
}

/// Per-weight `kth_score[w][k_bucket]` table: the k-th smallest
/// `f_w(p)` over `P` for every weight `w` and materialized k-bucket, on
/// the exact rungs; a rounded-up score and a rank lower bound on the
/// floor rungs above the served `k` (see the module docs).
///
/// Built with [`ThresholdIndex::build`] (or
/// [`crate::Gir::build_threshold_index`]), attached with
/// [`crate::Gir::attach_threshold_index`], persisted with
/// [`crate::persist::write_threshold`] /
/// [`crate::persist::read_threshold`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdIndex {
    /// Materialized k values, sorted strictly ascending, all ≥ 1.
    buckets: Vec<usize>,
    /// Rungs `buckets[..n_exact]` are exact, the rest floor rungs;
    /// `1 ≤ n_exact ≤ buckets.len()`.
    n_exact: usize,
    /// `|P|` at build time. Buckets beyond it hold `+∞` (every query
    /// point is a member when `k > |P|`).
    n_points: usize,
    /// `|W|` at build time.
    n_weights: usize,
    /// Data dimensionality at build time.
    dims: usize,
    /// The exact rungs, column-major: `scores[bi · n_weights + wid]`.
    scores: Vec<f64>,
    /// The floor rungs' stored scores, each the rung's score rounded up
    /// to `f32`: `floor_scores[(bi − n_exact) · n_weights + wid]`.
    floor_scores: Vec<f32>,
    /// Per floor rung and column, a lower bound on the live points that
    /// score at or below the stored score; same layout.
    floor_counts: Vec<u32>,
    /// [`epoch_fingerprint`] of the `(P, W, epoch)` triple the table was
    /// built from (or last repaired to).
    fingerprint: u64,
    /// Snapshot epoch the table serves. `0` for tables built over
    /// immutable sets; the mutable engine restamps it on every publish.
    epoch: u64,
}

impl ThresholdIndex {
    /// Materializes the table: one pass of the column kernel (see the
    /// module docs) over `P` per weight, using the same scalar [`dot`]
    /// kernel as the query-time refine path so stored thresholds compare
    /// exactly against query scores.
    ///
    /// `buckets` is sorted and deduplicated; every bucket must be ≥ 1.
    /// Every rung is exact: a static table never changes, so rounding
    /// its rungs could only lose certificates.
    ///
    /// # Errors
    ///
    /// [`RrqError::DimensionMismatch`] when the sets disagree on
    /// dimensionality, [`RrqError::InvalidParameter`] for an empty or
    /// zero-containing bucket list.
    pub fn build(points: &PointSet, weights: &WeightSet, buckets: &[usize]) -> RrqResult<Self> {
        if points.dim() != weights.dim() {
            return Err(RrqError::DimensionMismatch {
                expected: points.dim(),
                actual: weights.dim(),
            });
        }
        let mut idx = Self::unfilled(buckets, false, points.len(), weights.len(), points.dim())?;
        idx.fingerprint = epoch_fingerprint(points, weights, 0);
        let mut keys = Vec::with_capacity(points.len());
        for (wid, w) in weights.iter() {
            idx.recompute_column(wid.0, w, points.iter().map(|(_, p)| p), &mut keys);
        }
        Ok(idx)
    }

    /// An all-`+∞` table over `buckets` (sorted and deduplicated here),
    /// stamped at epoch 0 with fingerprint 0, for the column kernel to
    /// fill. With `split`, the rungs above [`Self::served_k`] are floor
    /// rungs (the mutable engine's table); otherwise every rung is exact.
    ///
    /// # Errors
    ///
    /// [`RrqError::InvalidParameter`] for an empty or zero-containing
    /// bucket list.
    pub(crate) fn unfilled(
        buckets: &[usize],
        split: bool,
        n_points: usize,
        n_weights: usize,
        dims: usize,
    ) -> RrqResult<Self> {
        let mut bs: Vec<usize> = buckets.to_vec();
        bs.sort_unstable();
        bs.dedup();
        let Some(&min_bucket) = bs.first() else {
            return Err(RrqError::InvalidParameter {
                name: "buckets",
                message: "at least one k-bucket is required".to_string(),
            });
        };
        if min_bucket == 0 {
            return Err(RrqError::InvalidParameter {
                name: "buckets",
                message: "k-buckets must be ≥ 1".to_string(),
            });
        }
        let n_exact = match Self::served_k(&bs, n_points) {
            Some(k_max) if split => bs.partition_point(|&b| b <= k_max),
            _ => bs.len(),
        };
        let n_floor = (bs.len() - n_exact) * n_weights;
        Ok(Self {
            scores: vec![f64::INFINITY; n_exact * n_weights],
            floor_scores: vec![f32::INFINITY; n_floor],
            floor_counts: vec![0; n_floor],
            buckets: bs,
            n_exact,
            n_points,
            n_weights,
            dims,
            fingerprint: 0,
            epoch: 0,
        })
    }

    /// Reassembles an index from persisted parts, re-validating the
    /// structural invariants a corrupted-but-checksum-valid artifact
    /// could violate. `scores` holds the `n_exact` exact rungs,
    /// `floors` the rest.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        buckets: Vec<usize>,
        n_exact: usize,
        n_points: usize,
        n_weights: usize,
        dims: usize,
        scores: Vec<f64>,
        floors: (Vec<f32>, Vec<u32>),
        fingerprint: u64,
        epoch: u64,
    ) -> RrqResult<Self> {
        let sorted = buckets.windows(2).all(|w| w[0] < w[1]);
        if buckets.is_empty() || buckets[0] == 0 || !sorted {
            return Err(RrqError::InvalidParameter {
                name: "buckets",
                message: "persisted k-buckets must be strictly ascending and ≥ 1".to_string(),
            });
        }
        if !(1..=buckets.len()).contains(&n_exact) {
            return Err(RrqError::InvalidParameter {
                name: "n_exact",
                message: format!(
                    "{n_exact} exact rungs on a ladder of {} buckets",
                    buckets.len()
                ),
            });
        }
        let (floor_scores, floor_counts) = floors;
        let n_floor = (buckets.len() - n_exact).checked_mul(n_weights);
        let sized = n_exact.checked_mul(n_weights) == Some(scores.len())
            && n_floor == Some(floor_scores.len())
            && n_floor == Some(floor_counts.len());
        if !sized {
            return Err(RrqError::InvalidParameter {
                name: "scores",
                message: format!(
                    "score table holds {} exact and {}/{} floor entries, header implies \
                     {n_exact} exact and {} floor rungs of {n_weights} columns",
                    scores.len(),
                    floor_scores.len(),
                    floor_counts.len(),
                    buckets.len() - n_exact,
                ),
            });
        }
        Ok(Self {
            buckets,
            n_exact,
            n_points,
            n_weights,
            dims,
            scores,
            floor_scores,
            floor_counts,
            fingerprint,
            epoch,
        })
    }

    /// The served `k` of a ladder over `n_points` points (`k_max`): its
    /// largest bucket below `n_points` that is not on the rung sequence
    /// `isqrt(2^j)` — the explicit `k` that [`Self::default_buckets`]
    /// puts beside its sequence rungs. Whether a bucket is on the
    /// sequence does not depend on `n_points`. The mutable engine keeps
    /// the rungs up to the served `k` exact and turns the rungs above it
    /// into floor rungs (see the module docs). `None` when no bucket
    /// qualifies (a `k` on the sequence such as 5, 8, 64 or 90, or a
    /// ladder of sequence values only): every rung then stays exact,
    /// and a publish recomputes every column in which a staged point
    /// scores at or below the top rung.
    pub fn served_k(buckets: &[usize], n_points: usize) -> Option<usize> {
        buckets
            .iter()
            .copied()
            .filter(|&b| b < n_points && !on_rung_sequence(b))
            .max()
    }

    /// The standard serving bucket ladder: the query `k` values a sweep
    /// will ask, plus rank rungs from the sequence `isqrt(2^j)` = 1, 2,
    /// 4, 5, 8, 11, 16, 22, 32, 45, 64, 90, … (ratio ≈ √2).
    ///
    /// The explicit `ks` make RTK answers exact one-comparison
    /// decisions; the rungs give RKR's self-refining heap bound a nearby
    /// bucket to certify `rank > bound` against. The rungs are the
    /// `R(n) = ⌈log2 n⌉ + 1` largest sequence values below `n_points`
    /// (all of them when fewer exist; a single point gets rung 1). They
    /// sit √2 apart where RKR's bound lands; the low rungs left out
    /// saved little, since a scan under bound `B` stops after
    /// ≈ `|P|·(B + 1)/(rank + 1)` points. There is no rung at
    /// `n_points`. When the query is a point of `P` such a rung could
    /// never certify, since the query then never scores above every
    /// point. For a query outside `P` it could, so RTK at a `k` between
    /// the top rung and `n_points` scans every weight it cannot decide
    /// from the rungs below. On the mutable engine the
    /// largest explicit `k` below `n_points` off the sequence is the
    /// served `k` ([`Self::served_k`]): the rungs up to it stay exact
    /// and the rungs above it become floor rungs. A `k` on the sequence
    /// leaves every rung exact.
    pub fn default_buckets(ks: &[usize], n_points: usize) -> Vec<usize> {
        // R(n) = ⌈log2 n⌉ + 1.
        let rungs = match n_points {
            0 => 0,
            n => (usize::BITS - (n - 1).leading_zeros()) as usize + 1,
        };
        let below = n_points.max(2);
        let mut sequence: Vec<usize> = Vec::new();
        for j in 0..u128::BITS {
            let v = (1u128 << j).isqrt();
            if v >= below as u128 {
                break;
            }
            // `isqrt(2^j)` repeats 1 and 2; every later value is new.
            if sequence.last() != Some(&(v as usize)) {
                sequence.push(v as usize);
            }
        }
        let first = sequence.len().saturating_sub(rungs);
        let mut buckets: Vec<usize> = ks.iter().copied().filter(|&k| k >= 1).collect();
        buckets.extend_from_slice(&sequence[first..]);
        buckets.sort_unstable();
        buckets.dedup();
        buckets
    }

    /// The materialized k values, strictly ascending.
    pub fn buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// `|P|` at build time.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// `|W|` at build time.
    pub fn n_weights(&self) -> usize {
        self.n_weights
    }

    /// Data dimensionality at build time.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Fingerprint of the data-set pair (and epoch) the table was built
    /// from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Snapshot epoch the table serves (0 for immutable builds).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The number of exact rungs, `buckets()[..n_exact()]`; the rungs
    /// above are floor rungs. Equal to `buckets().len()` for a static
    /// table.
    pub fn n_exact(&self) -> usize {
        self.n_exact
    }

    /// The exact rungs' column-major score table
    /// (`scores[bi · |W| + wid]`, `bi < n_exact()`).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The floor rungs' stored scores, rounded up to `f32`
    /// (`floor_scores[(bi − n_exact()) · |W| + wid]`).
    pub fn floor_scores(&self) -> &[f32] {
        &self.floor_scores
    }

    /// Per floor rung and column, a lower bound on the live points that
    /// score at or below the stored score; laid out as
    /// [`Self::floor_scores`].
    pub fn floor_counts(&self) -> &[u32] {
        &self.floor_counts
    }

    /// Heap footprint of the table, for index-memory accounting. A floor
    /// rung's `f32` score and `u32` count take the 8 bytes of the `f64`
    /// an exact rung stores, so the split does not change it.
    pub fn memory_bytes(&self) -> usize {
        self.scores.len() * std::mem::size_of::<f64>()
            + self.floor_scores.len() * std::mem::size_of::<f32>()
            + self.floor_counts.len() * std::mem::size_of::<u32>()
            + self.buckets.len() * std::mem::size_of::<usize>()
    }

    /// Checks the index matches the live data sets it is about to serve.
    ///
    /// # Errors
    ///
    /// [`RrqError::ArtifactStale`] naming the first mismatch.
    pub fn validate_for(&self, points: &PointSet, weights: &WeightSet) -> RrqResult<()> {
        if self.epoch != 0 {
            // A mutable-engine artifact can only be re-attached through
            // the engine that knows the current epoch
            // (`crate::snapshot::DynamicEngine::check_threshold_artifact`).
            return Err(RrqError::ArtifactStale { what: "epoch" });
        }
        self.validate_shape(points.dim(), points.len(), weights.len())?;
        if self.fingerprint != epoch_fingerprint(points, weights, 0) {
            return Err(RrqError::ArtifactStale {
                what: "data fingerprint",
            });
        }
        Ok(())
    }

    /// The dimensionality/cardinality part of staleness validation,
    /// shared between the immutable attach path and the mutable engine's
    /// epoch-aware artifact check.
    pub(crate) fn validate_shape(
        &self,
        dims: usize,
        n_points: usize,
        n_weights: usize,
    ) -> RrqResult<()> {
        if self.dims != dims {
            return Err(RrqError::ArtifactStale {
                what: "dimensionality",
            });
        }
        if self.n_points != n_points {
            return Err(RrqError::ArtifactStale {
                what: "point cardinality",
            });
        }
        if self.n_weights != n_weights {
            return Err(RrqError::ArtifactStale {
                what: "weight cardinality",
            });
        }
        Ok(())
    }

    #[inline]
    fn score_at(&self, bucket_idx: usize, wid: usize) -> f64 {
        self.scores[bucket_idx * self.n_weights + wid]
    }

    /// Floor rung `bucket_idx`'s stored score and count for column `wid`.
    #[inline]
    fn floor_at(&self, bucket_idx: usize, wid: usize) -> (f64, usize) {
        let at = (bucket_idx - self.n_exact) * self.n_weights + wid;
        (
            f64::from(self.floor_scores[at]),
            self.floor_counts[at] as usize,
        )
    }

    /// Decides RTK membership of weight `wid` for query score `fq` and
    /// query parameter `k`, if the materialized thresholds certify it.
    ///
    /// Membership is `rank < k ⟺ fq ≤ s_k(w)`. An exact bucket equal to
    /// `k` decides exactly; otherwise the bracketing buckets decide via
    /// monotonicity (`fq ≤ s_lo ≤ s_k` certifies membership,
    /// `fq > s_hi ≥ s_k` certifies non-membership) and everything in
    /// between is [`RtkThresholdOutcome::Straddle`]. Membership comes
    /// only from exact rungs: a floor rung's stored score may sit above
    /// the true one. A floor rung at or above `k` certifies
    /// non-membership when `fq` exceeds its stored score and its count
    /// is at least `k`: that many points then score strictly below `fq`.
    #[inline]
    pub(crate) fn decide_rtk(&self, wid: usize, k: usize, fq: f64) -> RtkThresholdOutcome {
        if k > self.n_points {
            // rank ≤ |P| < k: every weight is a member.
            return RtkThresholdOutcome::Member;
        }
        // `hi`: the first rung at or above `k`.
        let hi = match self.buckets.binary_search(&k) {
            Ok(bi) if bi < self.n_exact => {
                return if fq <= self.score_at(bi, wid) {
                    RtkThresholdOutcome::Member
                } else {
                    RtkThresholdOutcome::NonMember
                };
            }
            Ok(bi) | Err(bi) => bi,
        };
        let lo = hi.min(self.n_exact);
        if lo > 0 && fq <= self.score_at(lo - 1, wid) {
            return RtkThresholdOutcome::Member;
        }
        let non_member = if hi < self.n_exact {
            fq > self.score_at(hi, wid)
        } else if hi < self.buckets.len() {
            let (stored, count) = self.floor_at(hi, wid);
            stored < fq && count >= k
        } else {
            false
        };
        if non_member {
            RtkThresholdOutcome::NonMember
        } else {
            RtkThresholdOutcome::Straddle
        }
    }

    /// The rank floor of query score `fq` under weight `wid`, as a slot
    /// in `0..=buckets().len()`: the number of rungs whose stored score
    /// lies strictly below `fq`.
    ///
    /// Stored scores are nondecreasing along a column (an exact rung is
    /// an order statistic, a floor rung one rounded up to `f32`), so
    /// those rungs form a prefix of the ladder, found by binary search:
    /// over the exact rungs, or over the floor rungs once `fq` exceeds
    /// the top exact one. [`Self::slot_floor`] is the rank the slot
    /// proves. Buckets past `|P|` hold `+∞` and never count.
    #[inline]
    pub(crate) fn rank_floor(&self, wid: usize, fq: f64) -> usize {
        let e = self.n_exact;
        if e < self.buckets.len() && self.score_at(e - 1, wid) < fq {
            let (mut lo, mut hi) = (0, self.buckets.len() - e);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if f64::from(self.floor_scores[mid * self.n_weights + wid]) < fq {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return e + lo;
        }
        let (mut lo, mut hi) = (0, e);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.score_at(mid, wid) < fq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The rank a [`Self::rank_floor`] slot proves under weight `wid`:
    /// `0` for slot 0; else, for the largest rung whose stored score lies
    /// strictly below `fq`, its bucket `b` when it is exact (`b` points
    /// score at most `s_b(w) < fq`) and its count when it is a floor
    /// rung (that many live points score at most its stored score).
    #[inline]
    pub(crate) fn slot_floor(&self, wid: usize, slot: usize) -> usize {
        match slot.checked_sub(1) {
            None => 0,
            Some(i) if i < self.n_exact => self.buckets[i],
            Some(i) => self.floor_at(i, wid).1,
        }
    }

    // ---- incremental maintenance (the mutable engine's write path) ----

    /// Whether a point op whose score under weight `wid` is `s` can
    /// change an exact rung of that column — the *self-application*:
    /// the reverse-top-`k_max` membership test at the top exact rung
    /// (the served `k`, or the top rung of an all-exact table). A point with
    /// `s > s_kmax(w)` sits outside every exact top-`b` (`b ≤ k_max`),
    /// so inserting or deleting it leaves every exact rung bit-identical;
    /// ties (`s == s_b`) leave the b-th smallest value unchanged, so `≤`
    /// is the exact affectedness frontier for deletes and a tight
    /// superset for inserts. An op that does not flag the column moves
    /// its floor counts instead ([`Self::shift_floor_counts`]).
    #[inline]
    pub(crate) fn row_affected(&self, wid: usize, s: f64) -> bool {
        s <= self.score_at(self.n_exact - 1, wid)
    }

    /// Books one point insert (`insert`) or delete whose score under
    /// `wid` is `s` and that leaves the column's exact rungs alone (see
    /// [`Self::row_affected`]): every floor rung whose stored score is at
    /// or above `s` gains or loses exactly that live point, so its count
    /// moves by one. A delete saturates at 0; each count stays a lower
    /// bound on the live points at or below its stored score.
    pub(crate) fn shift_floor_counts(&mut self, wid: usize, s: f64, insert: bool) {
        for r in (0..self.buckets.len() - self.n_exact).rev() {
            let at = r * self.n_weights + wid;
            // Stored scores are nondecreasing up the column: once one
            // lies below `s`, so does every rung under it.
            if f64::from(self.floor_scores[at]) < s {
                break;
            }
            let count = &mut self.floor_counts[at];
            *count = if insert {
                count.saturating_add(1)
            } else {
                count.saturating_sub(1)
            };
        }
    }

    /// Recomputes the full column of `wid` from `rows`: the column
    /// kernel of [`Self::build`] and of the mutable engine's repair.
    /// `keys` is scratch space, reused across columns.
    ///
    /// Each score is kept as the key `(dot(w, p) + 0.0).to_bits()`; the
    /// rungs are then selected as [`radix_gather`] describes, and a rung
    /// past the key count stores `+∞`. The column depends only on the
    /// multiset of scores, so a repaired column is byte-identical to a
    /// rebuild over the same rows. A floor rung `b` stores its order
    /// statistic rounded up to `f32` and the count `min(b, rows)`: at
    /// least that many rows score at or below it.
    pub(crate) fn recompute_column<'a>(
        &mut self,
        wid: usize,
        w: &[f64],
        rows: impl IntoIterator<Item = &'a [f64]>,
        keys: &mut Vec<u64>,
    ) {
        let (mut lo, mut hi) = (u64::MAX, 0);
        keys.clear();
        keys.extend(rows.into_iter().map(|p| {
            let key = (dot(w, p) + 0.0).to_bits();
            (lo, hi) = (lo.min(key), hi.max(key));
            key
        }));
        let live = u32::try_from(keys.len()).unwrap_or(u32::MAX);
        let in_range = self.buckets.partition_point(|&b| b <= keys.len());
        let (gathered, ranks) = radix_gather(keys, lo, hi, &self.buckets[..in_range]);
        // Invariant: `prefix` holds the `prefix.len()` smallest gathered
        // keys.
        let mut prefix = &mut keys[..gathered];
        for (bi, &b) in self.buckets.iter().enumerate().rev() {
            let kth = if bi < in_range {
                let (below, kth, _) = std::mem::take(&mut prefix).select_nth_unstable(ranks[bi]);
                prefix = below;
                f64::from_bits(*kth)
            } else {
                f64::INFINITY
            };
            if bi < self.n_exact {
                self.scores[bi * self.n_weights + wid] = kth;
            } else {
                let at = (bi - self.n_exact) * self.n_weights + wid;
                self.floor_scores[at] = round_up_to_f32(kth);
                self.floor_counts[at] = u32::try_from(b).map_or(live, |b| b.min(live));
            }
        }
    }

    /// Widens the table by `n_new` all-`+∞` columns for freshly appended
    /// weights (which are then repaired like any affected column).
    pub(crate) fn push_weight_columns(&mut self, n_new: usize) {
        if n_new == 0 {
            return;
        }
        let (old_w, new_w) = (self.n_weights, self.n_weights + n_new);
        let n_floor = self.buckets.len() - self.n_exact;
        self.scores = widened(&self.scores, self.n_exact, old_w, new_w, f64::INFINITY);
        self.floor_scores = widened(&self.floor_scores, n_floor, old_w, new_w, f32::INFINITY);
        self.floor_counts = widened(&self.floor_counts, n_floor, old_w, new_w, 0);
        self.n_weights = new_w;
    }

    /// Compaction: keeps exactly the columns in `keep` (ascending live
    /// weight ids), preserving their stored values and floor counts —
    /// compaction renames ids but never changes a score or a live point,
    /// so a compacted table still equals a rebuild over the compacted
    /// data on its exact rungs, and its floor counts stay sound.
    pub(crate) fn retain_weight_columns(&mut self, keep: &[usize]) {
        let old_w = self.n_weights;
        let n_floor = self.buckets.len() - self.n_exact;
        self.scores = kept_columns(&self.scores, self.n_exact, old_w, keep);
        self.floor_scores = kept_columns(&self.floor_scores, n_floor, old_w, keep);
        self.floor_counts = kept_columns(&self.floor_counts, n_floor, old_w, keep);
        self.n_weights = keep.len();
    }

    /// Updates the live point cardinality (drives the `k > |P|` fast
    /// answer of [`Self::decide_rtk`]).
    pub(crate) fn set_live_points(&mut self, n: usize) {
        self.n_points = n;
    }

    /// Restamps the table to a new epoch over base data whose
    /// [`data_fingerprint`] is `data_fingerprint` (called by the mutable
    /// engine at publish time, after repairs).
    pub(crate) fn stamp(&mut self, data_fingerprint: u64, epoch: u64) {
        self.epoch = epoch;
        self.fingerprint = fold_epoch(data_fingerprint, epoch);
    }
}

/// Whether `b` is on the rung sequence `isqrt(2^j)`, `j ≥ 0`: a power
/// of two `2^m`, or `isqrt(2^(2m+1))`, the one value the sequence puts
/// between `2^m` and `2^(m+1)` once `m ≥ 2`.
fn on_rung_sequence(b: usize) -> bool {
    b.is_power_of_two() || b >= 1 && b as u128 == (1u128 << (2 * b.ilog2() + 1)).isqrt()
}

/// log2 of the number of buckets in the column kernel's radix pass.
const RADIX_BITS: u32 = 11;

/// The radix pass of [`ThresholdIndex::recompute_column`] over `keys`,
/// whose smallest and largest values are `lo` and `hi`, for the
/// ascending `rungs` (each in `1..=keys.len()`).
///
/// The keys are the scores' IEEE bits with `−0.0` mapped to `+0.0`
/// (`+ 0.0` changes no other value), so they order as the non-negative
/// scores do. The pass splits `lo..=hi` into `2^RADIX_BITS` buckets of
/// equal width by the key's offset from `lo`, counts the keys per
/// bucket, and walks the cumulative counts to the bucket holding each
/// rung's order statistic (the key of 0-based rank `b − 1`). The keys
/// of those buckets are moved to the front of `keys`, in any order; the
/// rest of `keys` is left unspecified. Returns how many were moved and,
/// per rung, the rank of its order statistic among them: its rank in
/// `keys` less the keys of the buckets below it that were not moved.
///
/// The caller selects the rungs from the largest down:
/// `select_nth_unstable` puts a rung's key at its rank and the smaller
/// gathered keys left of it, and the next smaller rung selects in that
/// prefix. This is exact: every key of a lower bucket is smaller than
/// every key of a higher one, so the rank among the gathered keys picks
/// the same order statistic as a full sort, and an order statistic has
/// one value whatever order the rows arrive in or are left in. A column
/// then costs two linear passes over the keys and a selection among a
/// few keys per rung, wherever its rungs sit.
fn radix_gather(keys: &mut [u64], lo: u64, hi: u64, rungs: &[usize]) -> (usize, Vec<usize>) {
    let mut ranks = Vec::with_capacity(rungs.len());
    if rungs.is_empty() {
        return (0, ranks);
    }
    let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(RADIX_BITS);
    let bucket = |key: u64| ((key - lo) >> shift) as usize;
    let mut counts = [0usize; 1 << RADIX_BITS];
    for &key in keys.iter() {
        counts[bucket(key)] += 1;
    }
    let mut wanted = [false; 1 << RADIX_BITS];
    // `below`: the keys in buckets `..i`; `kept`: those to be gathered.
    let (mut i, mut below, mut kept) = (0, 0, 0);
    for &b in rungs {
        while below + counts[i] < b {
            if wanted[i] {
                kept += counts[i];
            }
            below += counts[i];
            i += 1;
        }
        wanted[i] = true;
        ranks.push(b - 1 - (below - kept));
    }
    // Every slot before `j` that is not gathered holds a key already
    // read, so it may be overwritten.
    let mut gathered = 0;
    for j in 0..keys.len() {
        let key = keys[j];
        keys[gathered] = key;
        gathered += usize::from(wanted[bucket(key)]);
    }
    (gathered, ranks)
}

/// `x` rounded up to the nearest `f32` at or above it; `+∞` stays.
fn round_up_to_f32(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// The `rungs` rows of a column-major table of `old_w` columns, each
/// widened to `new_w` columns with `fill`.
fn widened<T: Copy>(table: &[T], rungs: usize, old_w: usize, new_w: usize, fill: T) -> Vec<T> {
    let mut out = vec![fill; rungs * new_w];
    for r in 0..rungs {
        out[r * new_w..r * new_w + old_w].copy_from_slice(&table[r * old_w..(r + 1) * old_w]);
    }
    out
}

/// The columns `keep` of the `rungs` rows of a column-major table of
/// `old_w` columns, in order.
fn kept_columns<T: Copy>(table: &[T], rungs: usize, old_w: usize, keep: &[usize]) -> Vec<T> {
    let mut out = Vec::with_capacity(rungs * keep.len());
    for r in 0..rungs {
        out.extend(keep.iter().map(|&wid| table[r * old_w + wid]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_data::synthetic;
    use rrq_types::WeightId;

    fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
        (
            synthetic::uniform_points(dim, np, 10_000.0, seed).unwrap(),
            synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
        )
    }

    /// Exact dyadic ties: `np` points with coordinates in {0, 1, 2, 3},
    /// each row three times in a row, and weights whose components are
    /// multiples of 1/4. Every product and sum is exact, so the scores
    /// take at most 13 values and collide at and around every rung.
    fn tied_workload(np: usize) -> (PointSet, WeightSet) {
        let mut p = PointSet::new(3, 4.0).unwrap();
        for i in 0..np {
            let j = i / 3;
            p.push_slice(&[(j % 4) as f64, (j * 3 / 4 % 4) as f64, (j * 7 % 4) as f64])
                .unwrap();
        }
        let mut w = WeightSet::new(3).unwrap();
        for row in [
            [1.0, 0.0, 0.0],
            [0.5, 0.25, 0.25],
            [0.25, 0.5, 0.25],
            [0.0, 0.25, 0.75],
            [0.0, 0.5, 0.5],
        ] {
            w.push_slice(&row).unwrap();
        }
        (p, w)
    }

    /// Asserts that every stored threshold equals the sort oracle over
    /// `points` bit for bit: the b-th smallest score for `b ≤ |P|`, `+∞`
    /// past it. A `−0.0` score is stored as `+0.0`, its equal.
    fn assert_matches_sort_oracle(idx: &ThresholdIndex, points: &PointSet, weights: &WeightSet) {
        for (wid, wrow) in weights.iter() {
            let mut scores: Vec<f64> = points.iter().map(|(_, p)| dot(wrow, p) + 0.0).collect();
            scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (bi, &b) in idx.buckets().iter().enumerate() {
                let want = scores.get(b - 1).copied().unwrap_or(f64::INFINITY);
                let got = idx.scores()[bi * weights.len() + wid.0];
                assert_eq!(got.to_bits(), want.to_bits(), "w{} b{}", wid.0, b);
            }
        }
    }

    fn no_floors() -> (Vec<f32>, Vec<u32>) {
        (Vec::new(), Vec::new())
    }

    /// The b-th smallest dot score over P under w, by sorting.
    fn kth_by_sort(points: &PointSet, w: &[f64], b: usize) -> f64 {
        let mut scores: Vec<f64> = points.iter().map(|(_, p)| dot(w, p)).collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        scores[b - 1]
    }

    /// One-shot FNV-1a-64 of a byte slice.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a64::new();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn build_matches_sort_oracle_for_every_bucket() {
        let (p, w) = workload(4, 60, 12, 7);
        let idx = ThresholdIndex::build(&p, &w, &[1, 5, 17, 60]).unwrap();
        assert_matches_sort_oracle(&idx, &p, &w);
    }

    #[test]
    fn buckets_beyond_p_hold_infinity() {
        let (p, w) = workload(3, 10, 4, 3);
        let idx = ThresholdIndex::build(&p, &w, &[5, 10, 11, 500]).unwrap();
        assert_matches_sort_oracle(&idx, &p, &w);
        for wid in 0..w.len() {
            assert!(idx.scores()[2 * w.len() + wid].is_infinite(), "b=11");
            assert!(idx.scores()[3 * w.len() + wid].is_infinite(), "b=500");
            assert!(idx.scores()[w.len() + wid].is_finite(), "b=10=|P|");
        }
    }

    #[test]
    fn build_is_exact_under_heavy_ties() {
        let (p, w) = tied_workload(90);
        // Every rank is a rung, so each tie run is selected at, below
        // and above its ends; the last two rungs lie past |P|.
        let every_rank: Vec<usize> = (1..=p.len() + 2).collect();
        let idx = ThresholdIndex::build(&p, &w, &every_rank).unwrap();
        assert_matches_sort_oracle(&idx, &p, &w);
    }

    #[test]
    fn build_over_zero_and_one_point() {
        let (_, w) = workload(3, 0, 4, 37);
        for np in [0usize, 1] {
            let (p, _) = workload(3, np, 1, 41);
            let idx = ThresholdIndex::build(&p, &w, &[1, 2, 7]).unwrap();
            assert_matches_sort_oracle(&idx, &p, &w);
        }
    }

    #[test]
    fn build_matches_sort_oracle_on_the_default_ladder() {
        let (p, w) = workload(5, 1_000, 6, 43);
        let buckets = ThresholdIndex::default_buckets(&[10], p.len());
        let idx = ThresholdIndex::build(&p, &w, &buckets).unwrap();
        assert_matches_sort_oracle(&idx, &p, &w);
    }

    #[test]
    fn buckets_are_sorted_and_deduped() {
        let (p, w) = workload(2, 20, 3, 1);
        let idx = ThresholdIndex::build(&p, &w, &[9, 3, 3, 1]).unwrap();
        assert_eq!(idx.buckets(), &[1, 3, 9]);
    }

    #[test]
    fn zero_or_empty_buckets_are_rejected() {
        let (p, w) = workload(2, 20, 3, 1);
        assert!(matches!(
            ThresholdIndex::build(&p, &w, &[]),
            Err(RrqError::InvalidParameter {
                name: "buckets",
                ..
            })
        ));
        assert!(matches!(
            ThresholdIndex::build(&p, &w, &[0, 2]),
            Err(RrqError::InvalidParameter {
                name: "buckets",
                ..
            })
        ));
    }

    #[test]
    fn decide_rtk_is_exact_on_materialized_buckets() {
        let (p, w) = workload(3, 40, 8, 11);
        let k = 6;
        let idx = ThresholdIndex::build(&p, &w, &[k]).unwrap();
        for (wid, wrow) in w.iter() {
            let sk = kth_by_sort(&p, wrow, k);
            // A query score exactly at the threshold is a member
            // (strict-< rank semantics put ties on the member side).
            assert_eq!(
                idx.decide_rtk(wid.0, k, sk),
                RtkThresholdOutcome::Member,
                "tie at s_k"
            );
            assert_eq!(
                idx.decide_rtk(wid.0, k, sk + sk.abs() * 1e-12 + 1e-12),
                RtkThresholdOutcome::NonMember
            );
            assert_eq!(idx.decide_rtk(wid.0, k, 0.0), RtkThresholdOutcome::Member);
        }
    }

    #[test]
    fn decide_rtk_brackets_unmaterialized_k() {
        let (p, w) = workload(3, 40, 5, 13);
        let idx = ThresholdIndex::build(&p, &w, &[2, 10]).unwrap();
        for (wid, wrow) in w.iter() {
            let s2 = kth_by_sort(&p, wrow, 2);
            let s5 = kth_by_sort(&p, wrow, 5);
            let s10 = kth_by_sort(&p, wrow, 10);
            // Below the low bracket: member for any k in [2, 10].
            assert_eq!(idx.decide_rtk(wid.0, 5, s2), RtkThresholdOutcome::Member);
            // Above the high bracket: non-member.
            let above = s10 + s10.abs() * 1e-12 + 1e-12;
            assert_eq!(
                idx.decide_rtk(wid.0, 5, above),
                RtkThresholdOutcome::NonMember
            );
            // Strictly between the brackets (when they differ): straddle
            // or an exact decision consistent with the sort oracle.
            if s2 < s5 && s5 < s10 {
                let d = idx.decide_rtk(wid.0, 5, s5);
                assert_ne!(d, RtkThresholdOutcome::NonMember, "s5 is a member score");
            }
        }
    }

    #[test]
    fn k_beyond_p_is_always_member() {
        let (p, w) = workload(2, 15, 4, 5);
        let idx = ThresholdIndex::build(&p, &w, &[1]).unwrap();
        for wid in 0..w.len() {
            assert_eq!(
                idx.decide_rtk(wid, 16, f64::MAX),
                RtkThresholdOutcome::Member
            );
        }
    }

    #[test]
    fn certifies_rank_above_agrees_with_sort_oracle() {
        let (p, w) = workload(3, 30, 6, 17);
        let idx = ThresholdIndex::build(&p, &w, &[4, 12]).unwrap();
        for (wid, wrow) in w.iter() {
            let mut scores: Vec<f64> = p.iter().map(|(_, pt)| dot(wrow, pt)).collect();
            scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for bound in [0usize, 3, 5, 11, 29, usize::MAX] {
                for &fq in &[scores[3], scores[11], scores[20], 0.0, f64::MAX] {
                    let certified = idx.slot_floor(wid.0, idx.rank_floor(wid.0, fq)) > bound;
                    let rank = scores.iter().filter(|&&s| s < fq).count();
                    if certified {
                        assert!(rank > bound, "w{} bound {bound} fq {fq}", wid.0);
                    }
                }
            }
            // An unsaturated heap (bound `usize::MAX`) never skips: no
            // floor exceeds |P|.
            assert!(idx.slot_floor(wid.0, idx.rank_floor(wid.0, f64::MAX)) <= p.len());
        }
    }

    /// Checks `rank_floor` against the sort oracle for every weight, at
    /// every distinct score, its two float neighbours, and query scores
    /// below and above every score: the slot equals the number of rungs
    /// whose oracle threshold (`+∞` past `|P|`) lies strictly below `fq`;
    /// the floor rung is sound (≤ the true rank) and tight (the next
    /// rung scores ≥ `fq`). Returns the number of probes checked.
    fn assert_rank_floor_matches_oracle(
        idx: &ThresholdIndex,
        points: &PointSet,
        weights: &WeightSet,
    ) -> usize {
        assert_matches_sort_oracle(idx, points, weights);
        let mut checked = 0;
        for (wid, wrow) in weights.iter() {
            let wid = wid.0;
            let mut scores: Vec<f64> = points.iter().map(|(_, p)| dot(wrow, p)).collect();
            scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rung_score = |b: usize| scores.get(b - 1).copied().unwrap_or(f64::INFINITY);
            let mut probes = vec![-1.0, 0.0, f64::MAX, f64::INFINITY];
            for &s in &scores {
                probes.extend([s, s.next_down(), s.next_up()]);
            }
            for fq in probes {
                let slot = idx.rank_floor(wid, fq);
                let want = idx
                    .buckets()
                    .iter()
                    .filter(|&&b| rung_score(b) < fq)
                    .count();
                assert_eq!(slot, want, "w{wid} fq {fq}: slot");
                let floor = idx.slot_floor(wid, slot);
                let rank = scores.iter().filter(|&&s| s < fq).count();
                assert!(floor <= rank, "w{wid} fq {fq}: floor {floor} > rank {rank}");
                if let Some(&next) = idx.buckets().get(slot) {
                    assert!(
                        rung_score(next) >= fq,
                        "w{wid} fq {fq}: rung {next} not tight"
                    );
                }
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn rank_floor_agrees_with_sort_oracle() {
        // Distinct scores, with rungs past |P| = 30.
        let (p, w) = workload(3, 30, 6, 17);
        let idx = ThresholdIndex::build(&p, &w, &[1, 4, 12, 30, 31, 64]).unwrap();
        assert!(assert_rank_floor_matches_oracle(&idx, &p, &w) > 0);
        // Heavy ties: fq lands exactly on rung scores that several
        // points share, on every rank and two past |P|.
        let (p, w) = tied_workload(45);
        let every_rank: Vec<usize> = (1..=p.len() + 2).collect();
        let idx = ThresholdIndex::build(&p, &w, &every_rank).unwrap();
        assert!(assert_rank_floor_matches_oracle(&idx, &p, &w) > 0);
        // The default ladder.
        let (p, w) = workload(4, 200, 5, 43);
        let buckets = ThresholdIndex::default_buckets(&[10], p.len());
        let idx = ThresholdIndex::build(&p, &w, &buckets).unwrap();
        assert!(assert_rank_floor_matches_oracle(&idx, &p, &w) > 0);
    }

    #[test]
    fn rank_floor_over_zero_and_one_point() {
        let (_, w) = workload(3, 0, 4, 37);
        for np in [0usize, 1] {
            let (p, _) = workload(3, np, 1, 41);
            let idx = ThresholdIndex::build(&p, &w, &[1, 2, 7]).unwrap();
            assert!(assert_rank_floor_matches_oracle(&idx, &p, &w) > 0);
            // Every rung past |P| is +∞: no score ever has a floor above |P|.
            for wid in 0..w.len() {
                assert!(idx.slot_floor(wid, idx.rank_floor(wid, f64::INFINITY)) <= np);
            }
        }
    }

    #[test]
    fn validate_rejects_stale_data() {
        let (p, w) = workload(3, 25, 5, 19);
        let idx = ThresholdIndex::build(&p, &w, &[3]).unwrap();
        idx.validate_for(&p, &w).unwrap();
        let (p2, w2) = workload(3, 25, 5, 23);
        assert!(matches!(
            idx.validate_for(&p2, &w2),
            Err(RrqError::ArtifactStale {
                what: "data fingerprint"
            })
        ));
        let (p3, w3) = workload(3, 26, 5, 19);
        assert!(matches!(
            idx.validate_for(&p3, &w3),
            Err(RrqError::ArtifactStale { .. })
        ));
    }

    #[test]
    fn from_parts_revalidates_structure() {
        assert!(matches!(
            ThresholdIndex::from_parts(vec![3, 2], 2, 10, 2, 2, vec![0.0; 4], no_floors(), 1, 0),
            Err(RrqError::InvalidParameter {
                name: "buckets",
                ..
            })
        ));
        assert!(matches!(
            ThresholdIndex::from_parts(vec![2, 3], 2, 10, 2, 2, vec![0.0; 3], no_floors(), 1, 0),
            Err(RrqError::InvalidParameter { name: "scores", .. })
        ));
        let ok =
            ThresholdIndex::from_parts(vec![2, 3], 2, 10, 2, 2, vec![0.0; 4], no_floors(), 1, 0)
                .unwrap();
        assert_eq!(ok.buckets(), &[2, 3]);
        assert_eq!(ok.epoch(), 0);
        // The exact rung count must lie in 1..=buckets, and the floor
        // halves must match it.
        for n_exact in [0usize, 3] {
            assert!(matches!(
                ThresholdIndex::from_parts(
                    vec![2, 3],
                    n_exact,
                    10,
                    2,
                    2,
                    vec![0.0; 2 * n_exact],
                    no_floors(),
                    1,
                    0
                ),
                Err(RrqError::InvalidParameter {
                    name: "n_exact",
                    ..
                })
            ));
        }
        let floors = |n: usize, m: usize| (vec![0.0f32; n], vec![0u32; m]);
        for (n, m) in [(2, 1), (1, 2), (0, 0)] {
            assert!(matches!(
                ThresholdIndex::from_parts(
                    vec![2, 3],
                    1,
                    10,
                    2,
                    2,
                    vec![0.0; 2],
                    floors(n, m),
                    1,
                    0
                ),
                Err(RrqError::InvalidParameter { name: "scores", .. })
            ));
        }
        let split =
            ThresholdIndex::from_parts(vec![2, 3], 1, 10, 2, 2, vec![0.0; 2], floors(2, 2), 1, 0)
                .unwrap();
        assert_eq!((split.n_exact(), split.floor_counts().len()), (1, 2));
    }

    #[test]
    fn nonzero_epoch_artifact_is_stale_for_immutable_attach() {
        let (p, w) = workload(3, 25, 5, 19);
        let built = ThresholdIndex::build(&p, &w, &[3]).unwrap();
        let stamped = ThresholdIndex::from_parts(
            built.buckets().to_vec(),
            built.n_exact(),
            built.n_points(),
            built.n_weights(),
            built.dims(),
            built.scores().to_vec(),
            no_floors(),
            built.fingerprint(),
            4,
        )
        .unwrap();
        assert!(matches!(
            stamped.validate_for(&p, &w),
            Err(RrqError::ArtifactStale { what: "epoch" })
        ));
    }

    #[test]
    fn recompute_column_matches_build_bit_for_bit() {
        let (p, w) = workload(4, 50, 9, 29);
        let buckets = [1usize, 4, 13, 50];
        let mut idx = ThresholdIndex::build(&p, &w, &buckets).unwrap();
        // Scribble over two columns, then repair them from the same rows.
        let oracle = idx.clone();
        let mut keys = Vec::new();
        for wid in [2usize, 7] {
            for bi in 0..buckets.len() {
                idx.scores[bi * idx.n_weights + wid] = -1.0;
            }
            let rows = p.iter().map(|(_, row)| row);
            idx.recompute_column(wid, w.weight(WeightId(wid)), rows, &mut keys);
        }
        assert_eq!(idx.scores(), oracle.scores());
    }

    #[test]
    fn recompute_column_over_a_subset_equals_build_over_it() {
        let (p, w) = tied_workload(60);
        let buckets = ThresholdIndex::default_buckets(&[3], p.len());
        let mut idx = ThresholdIndex::build(&p, &w, &buckets).unwrap();
        // Drop every third row: 40 rows survive, so the top rung (60)
        // now lies past the key count.
        let kept: Vec<&[f64]> = p
            .iter()
            .filter(|(id, _)| id.0 % 3 != 1)
            .map(|(_, row)| row)
            .collect();
        let mut sub = PointSet::new(p.dim(), p.value_range()).unwrap();
        for row in &kept {
            sub.push_slice(row).unwrap();
        }
        let oracle = ThresholdIndex::build(&sub, &w, &buckets).unwrap();
        let mut keys = Vec::new();
        for (wid, wrow) in w.iter() {
            // Row order does not matter: odd columns get the rows reversed.
            if wid.0 % 2 == 0 {
                idx.recompute_column(wid.0, wrow, kept.iter().copied(), &mut keys);
            } else {
                idx.recompute_column(wid.0, wrow, kept.iter().rev().copied(), &mut keys);
            }
        }
        let bits = |t: &ThresholdIndex| t.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&idx), bits(&oracle));
        assert_matches_sort_oracle(&oracle, &sub, &w);
    }

    #[test]
    fn push_and_retain_weight_columns_relayout_correctly() {
        let (p, w) = workload(3, 30, 4, 31);
        let mut idx = ThresholdIndex::build(&p, &w, &[2, 8]).unwrap();
        let before = idx.scores().to_vec();
        idx.push_weight_columns(2);
        assert_eq!(idx.n_weights(), 6);
        for bi in 0..2 {
            assert_eq!(
                &idx.scores()[bi * 6..bi * 6 + 4],
                &before[bi * 4..bi * 4 + 4]
            );
            assert!(idx.scores()[bi * 6 + 4].is_infinite());
            assert!(idx.scores()[bi * 6 + 5].is_infinite());
        }
        // Drop columns 1 and 4 (a deleted base weight and a deleted
        // appended slot): survivors keep their values in order.
        idx.retain_weight_columns(&[0, 2, 3]);
        assert_eq!(idx.n_weights(), 3);
        for bi in 0..2 {
            assert_eq!(idx.scores()[bi * 3], before[bi * 4]);
            assert_eq!(idx.scores()[bi * 3 + 1], before[bi * 4 + 2]);
            assert_eq!(idx.scores()[bi * 3 + 2], before[bi * 4 + 3]);
        }
    }

    #[test]
    fn served_k_splits_the_ladder_and_falls_back_to_all_exact() {
        let n_exact = |buckets: &[usize], n_points: usize| {
            ThresholdIndex::unfilled(buckets, true, n_points, 3, 2)
                .unwrap()
                .n_exact()
        };
        // The default ladder's explicit k, below its lowest sequence rung
        // (32): rung 10 alone stays exact.
        let ladder = ThresholdIndex::default_buckets(&[10], 2_000);
        assert_eq!(ThresholdIndex::served_k(&ladder, 2_000), Some(10));
        assert_eq!(n_exact(&ladder, 2_000), 1);
        // A k on the sequence, or a ladder of powers of two only: all exact.
        let ladder = ThresholdIndex::default_buckets(&[16], 2_000);
        assert_eq!(ThresholdIndex::served_k(&ladder, 2_000), None);
        assert_eq!(n_exact(&ladder, 2_000), ladder.len());
        assert_eq!(ThresholdIndex::served_k(&[1, 4, 16, 64], 70), None);
        assert_eq!(n_exact(&[1, 4, 16, 64], 70), 4);
        // The largest qualifying bucket wins; here it is the top rung.
        assert_eq!(ThresholdIndex::served_k(&[1, 10, 80], 600), Some(80));
        assert_eq!(n_exact(&[1, 10, 80], 600), 3);
        // |P| itself is not a served k.
        assert_eq!(ThresholdIndex::served_k(&[1, 4, 9, 33, 70], 70), Some(33));
        assert_eq!(n_exact(&[1, 4, 9, 33, 70], 70), 4);
        // A static build never splits.
        let (p, w) = workload(3, 30, 4, 3);
        let idx = ThresholdIndex::build(&p, &w, &[1, 5, 12, 30]).unwrap();
        assert_eq!(idx.n_exact(), 4);
        assert!(idx.floor_scores().is_empty() && idx.floor_counts().is_empty());
    }

    #[test]
    fn floor_rungs_round_scores_up_to_f32() {
        for x in [0.0, 1.5, 0.25, f64::from(f32::MAX), f64::INFINITY] {
            assert_eq!(f64::from(round_up_to_f32(x)), x, "{x} is representable");
        }
        for x in [0.1, 1.0 / 3.0, 1e-300, 12_345.678_9, 1.0 + f64::EPSILON] {
            let up = round_up_to_f32(x);
            assert!(f64::from(up) > x, "{x} rounds up");
            assert!(
                f64::from(up.next_down()) < x,
                "{x}: {up} is the nearest above"
            );
        }
        assert_eq!(round_up_to_f32(f64::MAX), f32::INFINITY);
    }

    /// Checks a table's two halves over the live `rows`: exact rungs
    /// equal the sort oracle bit for bit; floor rungs store scores
    /// nondecreasing up the column, each with a count at most the live
    /// rows scoring at or below it. Then the
    /// query-side uses are sound: the slot `rank_floor` returns counts
    /// the rungs stored below `fq`, the floor it proves is at most the
    /// true rank, and `decide_rtk` never contradicts the oracle (and
    /// never straddles at an exact `k`). Returns the floor-rung checks.
    fn assert_split_table_sound(
        idx: &ThresholdIndex,
        rows: &[Vec<f64>],
        weights: &WeightSet,
    ) -> usize {
        let (n_w, e) = (idx.n_weights(), idx.n_exact());
        assert_eq!(idx.n_points(), rows.len(), "live points");
        let mut checked = 0;
        for (wid, wrow) in weights.iter() {
            let wid = wid.0;
            let mut scores: Vec<f64> = rows.iter().map(|p| dot(wrow, p)).collect();
            scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut stored = Vec::new();
            for (bi, &b) in idx.buckets().iter().enumerate() {
                if bi < e {
                    let order_stat = scores.get(b - 1).copied().unwrap_or(f64::INFINITY);
                    let got = idx.scores()[bi * n_w + wid];
                    assert_eq!(got.to_bits(), order_stat.to_bits(), "w{wid} exact b{b}");
                    stored.push(got);
                    continue;
                }
                let at = (bi - e) * n_w + wid;
                let (s, count) = (f64::from(idx.floor_scores()[at]), idx.floor_counts()[at]);
                assert!(
                    stored.last().is_none_or(|&prev| prev <= s),
                    "w{wid} b{b}: not monotone"
                );
                let at_or_below = scores.iter().filter(|&&x| x <= s).count();
                assert!(
                    count as usize <= at_or_below,
                    "w{wid} b{b}: count {count} > {at_or_below}"
                );
                stored.push(s);
                checked += 1;
            }
            let mut probes = vec![-1.0, 0.0, f64::INFINITY];
            for &s in scores.iter().chain(&stored) {
                probes.extend([s, s.next_down(), s.next_up()]);
            }
            for fq in probes {
                let slot = idx.rank_floor(wid, fq);
                assert_eq!(
                    slot,
                    stored.iter().filter(|&&s| s < fq).count(),
                    "w{wid} fq {fq}"
                );
                let rank = scores.iter().filter(|&&s| s < fq).count();
                assert!(
                    idx.slot_floor(wid, slot) <= rank,
                    "w{wid} fq {fq}: floor above rank"
                );
                for k in 1..=rows.len() + 1 {
                    match idx.decide_rtk(wid, k, fq) {
                        RtkThresholdOutcome::Member => assert!(rank < k, "w{wid} k{k} fq {fq}"),
                        RtkThresholdOutcome::NonMember => assert!(rank >= k, "w{wid} k{k} fq {fq}"),
                        RtkThresholdOutcome::Straddle => assert!(
                            idx.buckets()[..e].binary_search(&k).is_err(),
                            "w{wid} k{k}: straddle at an exact rung"
                        ),
                    }
                }
            }
        }
        checked
    }

    /// Seeded insert/delete sequences on split tables, applied the way
    /// `DynamicEngine::publish` applies them: an op at or below a
    /// column's top exact rung recomputes it, any other op moves its
    /// floor counts. After every op both halves are checked against the
    /// sort oracle over the live rows.
    #[test]
    fn floor_counts_stay_sound_under_inserts_and_deletes() {
        let mut checked = 0;
        // Exact dyadic ties (every rung sits in a run of equal scores),
        // then distinct scores. Both start with the live count at the
        // ladder's top rung (45); once deletes take it below, that rung
        // lies past the live count and holds `+∞` until inserts pass it.
        let (tied_p, tied_w) = tied_workload(60);
        let (uni_p, uni_w) = workload(3, 60, 6, 71);
        for (points, weights, seed) in [(tied_p, tied_w, 5u64), (uni_p, uni_w, 9)] {
            let buckets = ThresholdIndex::default_buckets(&[6], 60);
            let pool: Vec<Vec<f64>> = points.iter().map(|(_, p)| p.to_vec()).collect();
            let mut rows: Vec<Vec<f64>> = pool[..45].to_vec();
            let mut idx =
                ThresholdIndex::unfilled(&buckets, true, rows.len(), weights.len(), points.dim())
                    .unwrap();
            assert_eq!(idx.n_exact(), 2, "split at the served k = 6");
            let mut keys = Vec::new();
            for (wid, w) in weights.iter() {
                idx.recompute_column(wid.0, w, rows.iter().map(|r| r.as_slice()), &mut keys);
            }
            checked += assert_split_table_sound(&idx, &rows, &weights);
            let mut state = seed;
            let mut next = move |n: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % n
            };
            let mut recomputed = 0;
            for _ in 0..120 {
                // Inserts repeat a pool row (a duplicate of a live one
                // half the time); deletes pick a live row. Deletes win
                // slightly more often, so the live count crosses the top
                // rung both ways.
                let insert = rows.len() < 8 || next(9) < 4;
                let row = if insert {
                    if next(2) == 0 {
                        rows[next(rows.len())].clone()
                    } else {
                        pool[next(pool.len())].clone()
                    }
                } else {
                    rows.swap_remove(next(rows.len()))
                };
                if insert {
                    rows.push(row.clone());
                }
                let mut flagged = Vec::new();
                for (wid, w) in weights.iter() {
                    let s = dot(w, &row);
                    if idx.row_affected(wid.0, s) {
                        flagged.push(wid.0);
                    } else {
                        idx.shift_floor_counts(wid.0, s, insert);
                    }
                }
                for &wid in &flagged {
                    let w = weights.weight(WeightId(wid));
                    idx.recompute_column(wid, w, rows.iter().map(|r| r.as_slice()), &mut keys);
                }
                recomputed += flagged.len();
                idx.set_live_points(rows.len());
                checked += assert_split_table_sound(&idx, &rows, &weights);
            }
            assert!(
                recomputed < 120 * weights.len(),
                "every op recomputed every column"
            );
        }
        assert!(checked > 1_000, "only {checked} floor-rung checks");
    }

    #[test]
    fn split_columns_move_with_push_and_retain() {
        let (p, w) = workload(3, 40, 4, 31);
        let rows: Vec<Vec<f64>> = p.iter().map(|(_, r)| r.to_vec()).collect();
        let buckets = [1usize, 3, 8, 16, 64];
        let mut idx = ThresholdIndex::unfilled(&buckets, true, 40, 4, 3).unwrap();
        assert_eq!(idx.n_exact(), 2);
        let mut keys = Vec::new();
        for (wid, wrow) in w.iter() {
            idx.recompute_column(wid.0, wrow, p.iter().map(|(_, r)| r), &mut keys);
        }
        let before = idx.clone();
        idx.push_weight_columns(2);
        idx.retain_weight_columns(&[0, 2, 3]);
        let mut kept = WeightSet::new(3).unwrap();
        for wid in [0usize, 2, 3] {
            kept.push_slice(w.weight(WeightId(wid))).unwrap();
        }
        assert_split_table_sound(&idx, &rows, &kept);
        for (col, wid) in [0usize, 2, 3].into_iter().enumerate() {
            for r in 0..3 {
                assert_eq!(
                    idx.floor_counts()[r * 3 + col],
                    before.floor_counts()[r * 4 + wid]
                );
                assert_eq!(
                    idx.floor_scores()[r * 3 + col],
                    before.floor_scores()[r * 4 + wid]
                );
            }
        }
    }

    /// The powers of two below `n`, then `n`: `R(n) = ⌈log2 n⌉ + 1`
    /// rungs, the length `default_buckets` gives its sequence rungs.
    fn power_of_two_ladder(n: usize) -> Vec<usize> {
        let mut ladder: Vec<usize> = (0..usize::BITS)
            .map(|j| 1usize << j)
            .take_while(|&b| b < n)
            .collect();
        ladder.extend((n >= 1).then_some(n));
        ladder
    }

    #[test]
    fn default_buckets_take_sequence_rungs_at_the_power_of_two_length() {
        for n in 1..=200_000usize {
            let ladder = ThresholdIndex::default_buckets(&[], n);
            assert!(
                ladder.windows(2).all(|w| w[0] < w[1]),
                "n={n}: not ascending"
            );
            assert!(ladder.iter().all(|&b| b >= 1), "n={n}: rung 0");
            if n >= 2 {
                assert!(ladder.iter().all(|&b| b < n), "n={n}: rung at or past n");
            }
            assert!(
                ladder.iter().all(|&b| on_rung_sequence(b)),
                "n={n}: off the sequence"
            );
            let r_n = power_of_two_ladder(n).len();
            assert!(
                ladder.len() <= r_n,
                "n={n}: longer than the power-of-two ladder"
            );
            if n >= 6 {
                assert_eq!(
                    ladder.len(),
                    r_n,
                    "n={n}: shorter than the power-of-two ladder"
                );
            }
        }
        assert_eq!(ThresholdIndex::default_buckets(&[], 1), [1]);
        assert!(ThresholdIndex::default_buckets(&[], 0).is_empty());
        // The benchmark shapes: indexed-pool (|P| = 6 000) and churn
        // (|P| = 2 000).
        let rungs = [
            32, 45, 64, 90, 128, 181, 256, 362, 512, 724, 1_024, 1_448, 2_048, 2_896, 4_096, 5_792,
        ];
        assert_eq!(ThresholdIndex::default_buckets(&[], 6_000), rungs[2..]);
        assert_eq!(ThresholdIndex::default_buckets(&[], 2_000), rungs[..12]);
        // The explicit ks join the rungs.
        let with_k = ThresholdIndex::default_buckets(&[100, 0, 64], 6_000);
        assert_eq!(with_k[..4], [64, 90, 100, 128]);
        assert_eq!(with_k.len(), 15);
    }

    #[test]
    fn served_k_skips_sequence_rungs_whatever_the_point_count() {
        // The benchmark shapes' explicit k.
        let ladder = ThresholdIndex::default_buckets(&[100], 6_000);
        assert_eq!(ThresholdIndex::served_k(&ladder, 6_000), Some(100));
        let ladder = ThresholdIndex::default_buckets(&[10], 2_000);
        assert_eq!(ThresholdIndex::served_k(&ladder, 2_000), Some(10));
        // A k on the sequence leaves no served k, at every n.
        for k in [1usize, 2, 4, 5, 8, 11, 16, 22, 64, 90, 181, 5_792] {
            for n in [k + 1, 2 * k + 3, 6_000, 200_000] {
                let ladder = ThresholdIndex::default_buckets(&[k], n);
                assert_eq!(ThresholdIndex::served_k(&ladder, n), None, "k={k} n={n}");
            }
        }
        // A k off the sequence is served at every n above it.
        for k in [3usize, 6, 7, 9, 10, 12, 23, 63, 100, 5_791] {
            for n in [k + 1, 2 * k + 3, 6_000, 200_000] {
                let ladder = ThresholdIndex::default_buckets(&[k], n);
                assert_eq!(ThresholdIndex::served_k(&ladder, n), Some(k), "k={k} n={n}");
            }
        }
        // The rung test against the sequence itself.
        let sequence: Vec<usize> = (0..64).map(|j| (1u128 << j).isqrt() as usize).collect();
        for b in 0..5_000usize {
            assert_eq!(on_rung_sequence(b), sequence.contains(&b), "b={b}");
        }
        assert!(on_rung_sequence(1 << (usize::BITS - 1)) && !on_rung_sequence(usize::MAX));
    }

    /// The column kernel against the sort oracle, every rank and two
    /// past the key count a rung, on key sets that stress the radix
    /// pass: no keys, one key, all keys equal, two values, a key span
    /// below the histogram's 2^11 buckets (one distinct key per bucket),
    /// a 0.0 key beside keys near 10^4 (the histogram then splits only by
    /// exponent, so every key near 10^4 shares a bucket) and a −0.0 key.
    /// Then exact dyadic ties and uniform scores on the power-of-two and
    /// the √2 ladders, built and repaired over a subset of rows.
    #[test]
    fn radix_kernel_matches_the_sort_oracle() {
        let mut unit = WeightSet::new(1).unwrap();
        unit.push_slice(&[1.0]).unwrap();
        let near_1e4: Vec<f64> = (0..300).map(|i| 9_000.0 + f64::from(i) * 3.3).collect();
        let cases: [(&str, Vec<f64>); 7] = [
            ("no keys", vec![]),
            ("one key", vec![42.0]),
            ("all keys equal", vec![7.5; 40]),
            ("two values", [2.0, 1.0].repeat(25)),
            (
                "span below 2^11",
                (0..100)
                    .map(|i| 1.0 + f64::EPSILON * f64::from(i * 7 % 37))
                    .collect(),
            ),
            ("0.0 beside 10^4", [&[0.0][..], &near_1e4].concat()),
            ("-0.0", [&near_1e4[..], &[-0.0, 5.0, 0.0, -0.0]].concat()),
        ];
        for (label, values) in cases {
            let mut p = PointSet::new(1, 20_000.0).unwrap();
            for &v in &values {
                p.push_slice(&[v]).unwrap();
            }
            let every_rank: Vec<usize> = (1..=p.len() + 2).collect();
            let idx = ThresholdIndex::build(&p, &unit, &every_rank).unwrap();
            assert_matches_sort_oracle(&idx, &p, &unit);
            let stored: Vec<u64> = idx.scores().iter().map(|s| s.to_bits()).collect();
            assert!(
                !stored.contains(&(-0.0f64).to_bits()),
                "{label}: −0.0 stored"
            );
        }
        let (tied_p, tied_w) = tied_workload(300);
        let (uni_p, uni_w) = workload(4, 3_000, 6, 53);
        for (p, w) in [(tied_p, tied_w), (uni_p, uni_w)] {
            let n = p.len();
            for ladder in [
                power_of_two_ladder(n),
                ThresholdIndex::default_buckets(&[10], n),
            ] {
                let mut idx = ThresholdIndex::build(&p, &w, &ladder).unwrap();
                assert_matches_sort_oracle(&idx, &p, &w);
                // Repair every column over two rows in three: the top
                // rungs then lie past the key count.
                let mut sub = PointSet::new(p.dim(), p.value_range()).unwrap();
                for (_, row) in p.iter().filter(|(id, _)| id.0 % 3 != 1) {
                    sub.push_slice(row).unwrap();
                }
                let mut keys = Vec::new();
                for (wid, wrow) in w.iter() {
                    idx.recompute_column(wid.0, wrow, sub.iter().map(|(_, r)| r), &mut keys);
                }
                assert_matches_sort_oracle(&idx, &sub, &w);
            }
        }
    }
}
