//! Seeded inputs: the UN×UN data sets, the query stream and the
//! mutation batches. Everything here is a pure function of the seed.

use rrq_data::rng::SplitMix64;
use rrq_data::synthetic;
use rrq_types::{PointSet, WeightSet};

/// Dimensionality of every workload.
pub const DIM: usize = 6;
/// Value range of the point axis (the experiment harness's synthetic scale).
pub const RANGE: f64 = 10_000.0;
/// Operations staged per mutation batch.
pub const BATCH_OPS: usize = 16;

/// A seeded stream of draws.
pub struct Draw(SplitMix64);

impl Draw {
    /// A stream seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(SplitMix64::new(seed))
    }

    /// The next raw 64 bits.
    pub fn bits(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.bits() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.bits() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn point(&mut self) -> Vec<f64> {
        (0..DIM).map(|_| self.unit() * RANGE * 0.999).collect()
    }

    fn weight(&mut self) -> Vec<f64> {
        let mut row: Vec<f64> = (0..DIM).map(|_| self.unit() + 1e-6).collect();
        let sum: f64 = row.iter().sum();
        for v in &mut row {
            *v /= sum;
        }
        row
    }
}

/// The seeds of one run, split from the `--seed` argument.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Seed of the point set.
    pub points: u64,
    /// Seed of the weight set.
    pub weights: u64,
    /// Seed of the query stream.
    pub queries: u64,
    /// Seed of the mutation batches.
    pub mutations: u64,
}

impl Seeds {
    /// Splits `seed` into independent streams.
    pub fn split(seed: u64) -> Self {
        let mut d = Draw::new(seed);
        Self {
            points: d.bits(),
            weights: d.bits(),
            queries: d.bits(),
            mutations: d.bits(),
        }
    }
}

/// The generated UN×UN sets.
///
/// # Panics
///
/// Panics if the generator rejects its own parameters (a bug here).
pub fn data(n_points: usize, n_weights: usize, seeds: Seeds) -> (PointSet, WeightSet) {
    (
        synthetic::uniform_points(DIM, n_points, RANGE, seeds.points)
            .expect("UN points with a fixed valid shape"),
        synthetic::uniform_weights(DIM, n_weights, seeds.weights)
            .expect("UN weights with a fixed valid shape"),
    )
}

/// One mutation in the mix of the repository's mutate harness.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert this point row.
    InsertPoint(Vec<f64>),
    /// Delete the live point at this position of the mirror.
    DeletePoint(usize),
    /// Insert this weight row.
    InsertWeight(Vec<f64>),
    /// Delete the live weight at this position of the mirror.
    DeleteWeight(usize),
}

/// The live rows in engine order, each with its external id. Order
/// matters: RKR breaks rank ties by internal id, and the engine keeps
/// its live rows in insertion order, so a rebuild over this mirror
/// maps back to the same external ids.
#[derive(Debug, Clone, Default)]
pub struct Mirror {
    /// Live points.
    pub points: Vec<(u64, Vec<f64>)>,
    /// Live weights.
    pub weights: Vec<(u64, Vec<f64>)>,
}

impl Mirror {
    /// The mirror of freshly built sets: external id = position.
    pub fn of(points: &PointSet, weights: &WeightSet) -> Self {
        Self {
            points: points
                .iter()
                .enumerate()
                .map(|(i, (_, r))| (i as u64, r.to_vec()))
                .collect(),
            weights: weights
                .iter()
                .enumerate()
                .map(|(i, (_, r))| (i as u64, r.to_vec()))
                .collect(),
        }
    }

    /// Draws the next op: 30 % point inserts (a third copy a live row),
    /// 20 % point deletes, 25 % weight inserts, 15 % weight deletes.
    /// The harness's remaining 10 % idle slot is redrawn, so every draw
    /// stages an op; deletes keep at least 8 points and 4 weights.
    pub fn draw(&self, d: &mut Draw) -> Op {
        loop {
            match d.below(90) {
                0..=29 => {
                    let row = if d.below(3) == 0 && !self.points.is_empty() {
                        self.points[d.below(self.points.len())].1.clone()
                    } else {
                        d.point()
                    };
                    return Op::InsertPoint(row);
                }
                30..=49 if self.points.len() > 8 => {
                    return Op::DeletePoint(d.below(self.points.len()))
                }
                50..=74 => return Op::InsertWeight(d.weight()),
                75..=89 if self.weights.len() > 4 => {
                    return Op::DeleteWeight(d.below(self.weights.len()))
                }
                _ => {}
            }
        }
    }

    /// Applies an op, giving inserted rows the external id `ext`.
    pub fn apply(&mut self, op: &Op, ext: u64) {
        match op {
            Op::InsertPoint(row) => self.points.push((ext, row.clone())),
            Op::DeletePoint(j) => {
                self.points.remove(*j);
            }
            Op::InsertWeight(row) => self.weights.push((ext, row.clone())),
            Op::DeleteWeight(j) => {
                self.weights.remove(*j);
            }
        }
    }

    /// The live rows as sets, in mirror order.
    ///
    /// # Panics
    ///
    /// Panics if a mirrored row fails validation, which the engine
    /// would have rejected at staging.
    pub fn sets(&self) -> (PointSet, WeightSet) {
        let mut p =
            PointSet::with_capacity(DIM, RANGE, self.points.len()).expect("valid point set shape");
        for (_, row) in &self.points {
            p.push_slice(row).expect("mirrored point row is valid");
        }
        let mut w =
            WeightSet::with_capacity(DIM, self.weights.len()).expect("valid weight set shape");
        for (_, row) in &self.weights {
            w.push_slice(row).expect("mirrored weight row is valid");
        }
        (p, w)
    }
}

/// Query strata: positions in the order of coordinate sums.
pub const STRATA: usize = 64;

/// Row positions sorted by coordinate sum (ties by position). Under a
/// weight on the simplex a point's expected score is proportional to
/// its coordinate sum, so this order tracks how well users rank it,
/// and with it the cost of asking it.
pub fn by_sum<'r>(rows: impl Iterator<Item = &'r [f64]>) -> Vec<usize> {
    let sums: Vec<f64> = rows.map(|r| r.iter().sum()).collect();
    let mut order: Vec<usize> = (0..sums.len()).collect();
    order.sort_by(|&a, &b| sums[a].total_cmp(&sums[b]).then(a.cmp(&b)));
    order
}

/// The `j`-th query point of a stream, as a position among the rows
/// that `order` sorts: uniform within stratum `j mod STRATA`. Every
/// row is equally likely over a block of [`STRATA`] queries, and every
/// block asks points of every rank, so how many costly points a run
/// asks hardly depends on the seed. On `indexed-pool` data this cut the
/// seed-to-seed spread of the 90th percentile of RKR work per run from
/// 0.10 (uniform draws) to 0.04 (see `README.md`).
pub fn stratified(order: &[usize], j: usize, d: &mut Draw) -> usize {
    let n = order.len();
    let s = j % STRATA;
    let (lo, hi) = (s * n / STRATA, (s + 1) * n / STRATA);
    order[lo + d.below(hi.saturating_sub(lo))]
}

/// The query point of step `i` of a static workload: the `i`-th query
/// of the stream seeded with `seed`. Stateless, so every pass of a run
/// asks the same points in the same order.
pub fn query_id(order: &[usize], seed: u64, i: usize) -> usize {
    let mut d = Draw::new(seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    stratified(order, i, &mut d)
}
