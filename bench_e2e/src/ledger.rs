//! Measurement plumbing shared by the workloads: the span tracer, the
//! per-run outcome (latency windows and op counts), and small numeric
//! helpers.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! library's public functions; nothing inside the program is instrumented.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Which part of a run a span, sample or count belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    /// The first traced round of the measured loop (and the end-of-run
    /// teardown). Counts are taken from here, so they repeat exactly.
    First,
    /// Every later traced round.
    Rest,
    /// A traced round of another workload, run after the measured loop of
    /// a traced run, for the layers the workload under test never calls.
    Borrowed,
}

impl Bucket {
    fn as_str(self) -> &'static str {
        match self {
            Bucket::First => "first",
            Bucket::Rest => "rest",
            Bucket::Borrowed => "borrowed",
        }
    }
}

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    bucket: Bucket,
}

/// In-memory span recorder. When off, [`Tracer::span`] just runs its
/// closure, so untraced rounds pay nothing but a branch.
pub struct Tracer {
    on: bool,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    bucket: Bucket,
    counts: BTreeMap<(Bucket, &'static str), f64>,
    samples: BTreeMap<(Bucket, &'static str), (f64, u64)>,
    /// Names whose figure came from the `Borrowed` bucket.
    borrowed: RefCell<BTreeSet<&'static str>>,
}

impl Tracer {
    /// A tracer that records only if `enabled` (the `--trace 1` run).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            on: false,
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            bucket: Bucket::First,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
            borrowed: RefCell::new(BTreeSet::new()),
        }
    }

    /// Whether spans are being recorded right now.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Whether counts are being kept right now (a traced first or borrowed
    /// round), i.e. whether one-off measurements are worth taking.
    pub fn counting(&self) -> bool {
        self.on && self.bucket != Bucket::Rest
    }

    /// Switch recording on or off (only effective in a traced run) and
    /// set the bucket new records land in.
    pub fn set(&mut self, on: bool, bucket: Bucket) {
        self.on = on && self.enabled;
        self.bucket = bucket;
    }

    /// Start a new op: spans recorded until the next call share its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Open a span named `name`, parented to the innermost open span;
    /// spans opened before the matching [`Tracer::exit`] are its children.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            bucket: self.bucket,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Add `value` to a count. Counts are kept for the first traced round
    /// and borrowed rounds only, whose inputs are fixed by the seed.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on && self.bucket != Bucket::Rest {
            *self.counts.entry((self.bucket, name)).or_insert(0.0) += value;
        }
    }

    /// Record one observation of a per-op quantity (reported as a mean).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            let slot = self.samples.entry((self.bucket, name)).or_insert((0.0, 0));
            slot.0 += value;
            slot.1 += 1;
        }
    }

    /// Note that `name`'s figure came from a borrowed round.
    fn borrow(&self, name: &'static str) {
        self.borrowed.borrow_mut().insert(name);
    }

    /// Names reported so far from borrowed rounds rather than from the
    /// workload under test.
    pub fn borrowed_names(&self) -> Vec<&'static str> {
        self.borrowed.borrow().iter().copied().collect()
    }

    /// Sum of a count over the first traced round, or over a borrowed round
    /// when the measured loop never produced it.
    pub fn counted(&self, name: &'static str) -> f64 {
        if let Some(&v) = self.counts.get(&(Bucket::First, name)) {
            return v;
        }
        self.counts
            .get(&(Bucket::Borrowed, name))
            .map_or(0.0, |&v| {
                self.borrow(name);
                v
            })
    }

    /// Mean of a sampled quantity over the measured loop, or over a
    /// borrowed round when the loop never sampled it.
    pub fn sampled_mean(&self, name: &'static str) -> f64 {
        let mut loop_sum = (0.0, 0u64);
        for bucket in [Bucket::First, Bucket::Rest] {
            if let Some(&(s, n)) = self.samples.get(&(bucket, name)) {
                loop_sum.0 += s;
                loop_sum.1 += n;
            }
        }
        let (sum, n) = if loop_sum.1 > 0 {
            loop_sum
        } else {
            self.samples
                .get(&(Bucket::Borrowed, name))
                .copied()
                .inspect(|_| self.borrow(name))
                .unwrap_or((0.0, 0))
        };
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean self time (ms) per call of the spans named `name`: a span's
    /// duration minus the part of it its child spans cover. Taken over the
    /// measured loop, or over a borrowed round when the loop never called
    /// it.
    pub fn self_ms(&self, name: &'static str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mean = |pick: &dyn Fn(Bucket) -> bool| {
            let (mut total, mut calls) = (0u64, 0u64);
            for (i, span) in self.spans.iter().enumerate() {
                if span.name == name && pick(span.bucket) {
                    total += (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
                    calls += 1;
                }
            }
            (calls > 0).then(|| total as f64 / calls as f64 / 1e6)
        };
        mean(&|b| b != Bucket::Borrowed)
            .or_else(|| mean(&|b| b == Bucket::Borrowed).inspect(|_| self.borrow(name)))
            .unwrap_or(0.0)
    }

    /// Write the spans of the first traced round and the borrowed rounds,
    /// one JSON line each: index, name, op id, parent index, start and end
    /// (ns since the tracer was created) and bucket. Later rounds repeat
    /// the same op sequence; they stay in memory for the per-layer figures
    /// only.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            if s.bucket == Bucket::Rest {
                continue;
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"bucket\":\"{}\"}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.bucket.as_str()
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// The end-to-end figures of one window of the measured loop.
pub struct Window {
    pub op_p50_ms: f64,
    pub op_p99_ms: f64,
    pub ops_per_s: f64,
    pub hit_p50_us: f64,
    pub hit_p99_us: f64,
}

impl Window {
    fn of(ops_ms: &[f64], hits_us: &[f64]) -> Self {
        let total_s = ops_ms.iter().sum::<f64>() / 1e3;
        Window {
            op_p50_ms: percentile(ops_ms, 0.50),
            op_p99_ms: percentile(ops_ms, 0.99),
            ops_per_s: ops_ms.len() as f64 / total_s,
            hit_p50_us: percentile(hits_us, 0.50),
            hit_p99_us: percentile(hits_us, 0.99),
        }
    }
}

/// What the measured loop of one workload produced.
///
/// Latencies are kept per window (at least a second and enough ops for a
/// p99 with more than ten samples beyond it), and the report takes the
/// median of the windows' figures: a host stall that slows one window
/// does not move it. Only the open and the last closed window keep their
/// samples, so the harness's own memory does not grow with the run.
pub struct Outcome {
    /// Service calls made (workload ops plus cached reads).
    pub attempted: u64,
    /// Calls that returned a service error, and requests the HTTP server
    /// shed or timed out.
    pub failed: u64,
    /// Op latencies (ms) and in-process cached-read latencies (µs) of the
    /// open window. Reads are kept from untraced rounds only, so the figure
    /// never carries span overhead.
    ops_ms: Vec<f64>,
    hits_us: Vec<f64>,
    /// The same, for the last closed window.
    last_ops_ms: Vec<f64>,
    last_hits_us: Vec<f64>,
    window_opened: Instant,
    windows: Vec<Window>,
    /// Op count and total op time (ms) of untraced and traced rounds.
    untraced_total: (u64, f64),
    traced_total: (u64, f64),
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            ops_ms: Vec::new(),
            hits_us: Vec::new(),
            last_ops_ms: Vec::new(),
            last_hits_us: Vec::new(),
            window_opened: Instant::now(),
            windows: Vec::new(),
            untraced_total: (0, 0.0),
            traced_total: (0, 0.0),
        }
    }
}

impl Outcome {
    /// Record one op latency.
    pub fn op(&mut self, ms: f64, traced: bool) {
        let total = if traced {
            &mut self.traced_total
        } else {
            self.ops_ms.push(ms);
            &mut self.untraced_total
        };
        total.0 += 1;
        total.1 += ms;
    }

    /// Record one in-process cached read.
    pub fn hit(&mut self, us: f64) {
        self.hits_us.push(us);
    }

    /// Total op count.
    pub fn ops(&self) -> u64 {
        self.untraced_total.0 + self.traced_total.0
    }

    /// Mean op time of traced rounds over that of untraced ones, minus 1.
    pub fn trace_overhead(&self) -> f64 {
        let mean = |(n, ms): (u64, f64)| ms / n.max(1) as f64;
        mean(self.traced_total) / mean(self.untraced_total) - 1.0
    }

    /// Close the open window if it holds at least `min_ops` untraced ops
    /// and has been open for `min_time`.
    pub fn close_window(&mut self, min_ops: usize, min_time: Duration) {
        if self.ops_ms.len() < min_ops || self.window_opened.elapsed() < min_time {
            return;
        }
        self.windows.push(Window::of(&self.ops_ms, &self.hits_us));
        std::mem::swap(&mut self.ops_ms, &mut self.last_ops_ms);
        std::mem::swap(&mut self.hits_us, &mut self.last_hits_us);
        self.ops_ms.clear();
        self.hits_us.clear();
        self.window_opened = Instant::now();
    }

    /// End the loop: the open window's samples join the last closed
    /// window, so every measured op is in a window.
    pub fn fold_tail(&mut self) {
        if self.ops_ms.is_empty() {
            return;
        }
        if let Some(last) = self.windows.last_mut() {
            self.last_ops_ms.append(&mut self.ops_ms);
            self.last_hits_us.append(&mut self.hits_us);
            *last = Window::of(&self.last_ops_ms, &self.last_hits_us);
        }
    }

    /// The closed windows.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }
}

/// Nearest-rank percentile of `samples` (`q` in 0..=1); NaN when there
/// are none, which the report rejects as not finite.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values`, the mean of the middle two for an even count; NaN
/// when there are none.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A correctness-gate failure: the named check and what differed.
#[derive(Debug)]
pub struct GateFailure {
    pub check: &'static str,
    pub detail: String,
}

/// Fail the named check unless `ok`.
pub fn gate(
    ok: bool,
    check: &'static str,
    detail: impl FnOnce() -> String,
) -> Result<(), GateFailure> {
    if ok {
        Ok(())
    } else {
        Err(GateFailure {
            check,
            detail: detail(),
        })
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
