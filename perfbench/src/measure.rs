//! Clocks, spans, failure tallies and the small statistics the report
//! needs. All timing lives in the benchmark: the program under test is
//! only ever called through its public entry points.

use rrq_obs::TraceBuilder;
use rrq_types::{RkrResult, RtkResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Runs `f`, timing it with `Instant` and catching a panic. Returns the
/// value (or `None` if `f` panicked) and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Option<T>, f64) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    (out.ok(), start.elapsed().as_secs_f64())
}

/// One call into a layer (or the root span of one request).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and operation, e.g. `gir.rtk`; request roots start with `request.`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; empty when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. When off, every call is a branch and nothing
/// is recorded, so the untraced windows time the bare public calls.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new request.
    pub fn request(&mut self, name: &'static str) -> SpanId {
        self.request += 1;
        self.begin(name)
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and any span left open inside it.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Nanoseconds inside layer spans — spans that are not request
    /// roots and whose parent is one — between `from_ns` and `to_ns`.
    pub fn layer_ns(&self, from_ns: u64, to_ns: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.start_ns >= from_ns && s.end_ns <= to_ns)
            .filter(|s| !s.name.starts_with("request."))
            .filter(|s| {
                s.parent
                    .is_some_and(|p| self.spans[p].name.starts_with("request."))
            })
            .map(Span::dur_ns)
            .sum()
    }

    /// Nanoseconds since the tracer was created (for window bounds).
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// Writes the spans as a Perfetto / Chrome `trace_event` document:
    /// one complete event per span, carrying its span, parent and
    /// request ids, plus each span's self time (duration minus the part
    /// its children cover).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_perfetto(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut tb = TraceBuilder::new();
        tb.add_process_name(1, "rrq-perfbench");
        tb.add_thread_name(1, 1, "client");
        for (i, s) in self.spans.iter().enumerate() {
            tb.add_slice(
                1,
                1,
                s.name,
                s.start_ns,
                s.dur_ns(),
                &[
                    ("span", i as u64),
                    ("parent", s.parent.map_or(u64::MAX, |p| p as u64)),
                    ("request", s.request),
                    ("self_ns", s.dur_ns().saturating_sub(child_ns[i])),
                ],
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, tb.to_json().to_compact())
    }
}

/// Operations attempted and how they failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted: queries, stages and publishes.
    pub attempted: u64,
    /// Operations that panicked, returned an error or gave a wrong answer.
    pub failed: u64,
    /// Checked answers that differ from the oracle.
    pub mismatches: u64,
    /// Queries that panicked.
    pub panics: u64,
    /// Stage or publish calls that failed.
    pub errors: u64,
}

impl Tally {
    /// Books a query that returned (`true`) or panicked.
    pub fn query(&mut self, returned: bool) {
        self.attempted += 1;
        if !returned {
            self.failed += 1;
            self.panics += 1;
        }
    }

    /// Books a stage, publish or rebuild that succeeded or failed.
    pub fn write(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors += 1;
        }
    }

    /// Books an answer that differs from the oracle.
    pub fn mismatch(&mut self) {
        self.failed += 1;
        self.mismatches += 1;
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.attempted.saturating_sub(self.failed) as f64 / self.attempted as f64
    }
}

/// A query answer in external ids: RTK as the sorted weight ids, RKR
/// as `(weight, rank)` pairs flattened in canonical order.
pub type Answer = Vec<u64>;

/// RTK answer mapped through `ext`.
pub fn rtk_answer(r: &RtkResult, ext: impl Fn(usize) -> u64) -> Answer {
    let mut ids: Vec<u64> = r.weights().iter().map(|w| ext(w.0)).collect();
    ids.sort_unstable();
    ids
}

/// RKR answer mapped through `ext`, in the result's canonical order.
pub fn rkr_answer(r: &RkrResult, ext: impl Fn(usize) -> u64) -> Answer {
    r.entries()
        .iter()
        .flat_map(|e| [ext(e.weight.0), e.rank as u64])
        .collect()
}

/// FNV-1a 64 over a sequence of answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one answer in.
    pub fn add(&mut self, answer: &[u64]) {
        for v in std::iter::once(answer.len() as u64).chain(answer.iter().copied()) {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Share of samples [`trimmed_mean`] drops at each end.
pub const TRIM: f64 = 0.05;

/// Mean of the samples left after dropping the lowest and highest
/// `trim` share; 0 for no samples. On a host that switches between a
/// fast and a slow state, a run's median jumps from one state's latency
/// to the other's when the run spends about half its time in each; this
/// mean moves in proportion to the share instead, and the trim keeps a
/// rare preempted sample from moving it.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim.clamp(0.0, 0.5)).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return median(xs);
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_follows_the_share_of_slow_samples_and_drops_outliers() {
        // Two host states, 1.0 and 2.0 ms: the median jumps from one to
        // the other as the slow share passes a half, the trimmed mean
        // moves with the share.
        let run = |slow: usize| {
            let mut xs = vec![1.0; 100 - slow];
            xs.extend(vec![2.0; slow]);
            xs
        };
        assert_eq!(median(&run(45)), 1.0);
        assert_eq!(median(&run(55)), 2.0);
        let (a, b) = (trimmed_mean(&run(45), TRIM), trimmed_mean(&run(55), TRIM));
        assert!(b > a && b - a < 0.15, "{a} {b}");
        // One preempted sample in twenty is dropped.
        let mut xs = vec![1.0; 19];
        xs.push(1000.0);
        assert_eq!(trimmed_mean(&xs, TRIM), 1.0);
        assert_eq!(trimmed_mean(&[], TRIM), 0.0);
        assert_eq!(trimmed_mean(&[3.0], TRIM), 3.0);
    }
}
