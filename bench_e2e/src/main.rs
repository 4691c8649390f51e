//! End-to-end performance ledger for the schema-summary service.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload cold|evolve|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds the workload's seeded inputs, warms up with one round of
//! the workload, then measures whole rounds of its fixed op sequence for
//! `--seconds`, checking every answer, and samples the workload's set-up
//! time across the run. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, from spans recorded around the benchmark's own
//! calls into each layer's public functions (the first traced round's and
//! the borrowed rounds' spans are written to `bench_e2e/out/`). See
//! `bench_e2e/README.md`.

mod cold;
mod evolve;
mod inputs;
mod ledger;
mod serve;

use ledger::{median, peak_rss_mb, Bucket, GateFailure, Outcome, Tracer, Window};
use schema_summary_service::{CacheStats, ServiceConfig};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload: a fixed op sequence (a round) that repeats.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The seeded inputs: schemas, versions, request mix. Built once per
    /// run, outside every timer.
    type Inputs;
    /// Build the inputs for `seed`.
    fn inputs(seed: u64) -> Result<Self::Inputs, String>;
    /// Build and warm the service over `inputs`: what `setup_s` times.
    fn setup(inputs: &Arc<Self::Inputs>) -> Result<Self, String>;
    /// Run one round, checking every answer.
    fn round(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), GateFailure>;
    /// Tear down, with end-of-run checks.
    fn finish(self, _tracer: &mut Tracer, _out: &mut Outcome) -> Result<(), GateFailure> {
        Ok(())
    }
}

/// The service configuration every workload runs: the defaults, with the
/// matrices computed serially (bit-identical to the parallel compute). The
/// parallel compute wakes the idle second CPU on every call, and on a
/// shared virtual machine that wake-up goes through the host: with it,
/// `evolve`'s cold refreshes (`op_ms.p99`) read anywhere from 7.9 to
/// 17.5 ms across runs of the same code, while its serial `op_ms.p50` moved
/// about 10%.
pub fn service_config() -> ServiceConfig {
    let mut config = ServiceConfig::default();
    config.summarizer.paths.parallel_threshold = usize::MAX;
    config
}

/// Count the store's cache and refresh counters a round moved.
pub fn count_cache_stats(tracer: &mut Tracer, before: &CacheStats, after: &CacheStats) {
    let moved = |f: fn(&CacheStats) -> u64| (f(after) - f(before)) as f64;
    tracer.count("store.hits", moved(|s| s.hits));
    tracer.count("store.misses", moved(|s| s.misses));
    tracer.count("store.refreshes_warm", moved(|s| s.delta_refreshes));
    tracer.count("store.refreshes_cold", moved(|s| s.delta_fallback_cold));
    tracer.count(
        "incremental.rows_recomputed",
        moved(|s| s.delta_rows_recomputed),
    );
    tracer.count(
        "importance.iterations_saved",
        moved(|s| s.importance_iterations_saved),
    );
}

/// Set-up samples. The host's speed drifts over seconds, so set-ups are
/// spread over the run: `SETUPS_BEFORE` before the loop (the loop runs on
/// the last one), then a batch every `SETUP_EVERY` of loop time. A batch runs
/// the set-up at least once and until `SETUP_BATCH` is spent, so a cheap
/// set-up is sampled many times. `setup_s` is the median of all samples.
const SETUPS_BEFORE: usize = 3;
const SETUP_EVERY: Duration = Duration::from_secs(1);
const SETUP_BATCH: Duration = Duration::from_millis(10);
/// A window of the measured loop holds at least this many op samples, so
/// its `op_ms.p99` has more than ten samples beyond it, and spans at least
/// `WINDOW_TIME`. Windows close at round ends. An untraced run measures
/// until `--seconds` have passed and at least one window has closed; the
/// ops after the last closed window join it.
const WINDOW_OPS: usize = 1100;
const WINDOW_TIME: Duration = Duration::from_secs(1);
/// A run stops measuring after this long whatever it has, to stay inside
/// the three-minute budget on a slow host.
const HARD_STOP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

enum Failure {
    Setup(String),
    Gate(GateFailure),
}

impl From<GateFailure> for Failure {
    fn from(g: GateFailure) -> Self {
        Failure::Gate(g)
    }
}

/// A throwaway `O` over `inputs`: one untraced round (a warm-up), then,
/// with `borrow`, one round traced into the `Borrowed` bucket.
fn side_run<O: Workload>(
    inputs: &Arc<O::Inputs>,
    borrow: bool,
    tracer: &mut Tracer,
) -> Result<(), Failure> {
    let mut scratch = Outcome::default();
    let mut w = O::setup(inputs).map_err(Failure::Setup)?;
    tracer.set(false, Bucket::Borrowed);
    w.round(tracer, &mut scratch)?;
    tracer.set(borrow, Bucket::Borrowed);
    if borrow {
        w.round(tracer, &mut scratch)?;
    }
    w.finish(tracer, &mut scratch)?;
    tracer.set(false, Bucket::Borrowed);
    if scratch.failed > 0 {
        return Err(Failure::Setup(format!(
            "{} failed ops in a side run of {}",
            scratch.failed,
            O::NAME
        )));
    }
    Ok(())
}

/// A traced round of `O`, unless it is the workload under test `W`.
fn borrow_from<W: Workload, O: Workload>(seed: u64, tracer: &mut Tracer) -> Result<(), Failure> {
    if O::NAME == W::NAME {
        return Ok(());
    }
    let inputs = Arc::new(O::inputs(seed).map_err(Failure::Setup)?);
    side_run::<O>(&inputs, true, tracer)
}

struct Run {
    setup_s: Vec<f64>,
    out: Outcome,
}

fn run<W: Workload>(args: &Args, tracer: &mut Tracer) -> Result<Run, Failure> {
    let inputs = Arc::new(W::inputs(args.seed).map_err(Failure::Setup)?);
    // Untimed warm-up: one round of this workload, so the first slow
    // stretch of a fresh process is never measured.
    side_run::<W>(&inputs, false, tracer)?;

    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let started = Instant::now();
        let workload = W::setup(&inputs).map_err(Failure::Setup)?;
        setup_s.push(started.elapsed().as_secs_f64());
        Ok::<W, Failure>(workload)
    };
    for _ in 1..SETUPS_BEFORE {
        drop(timed_setup(&mut setup_s)?);
    }
    let mut workload = timed_setup(&mut setup_s)?;

    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut next_setups = SETUP_EVERY;
    let mut round = 0usize;
    loop {
        // Traced runs alternate traced and untraced rounds, so the trace
        // overhead is measured on the same op sequence.
        let traced = args.trace && round.is_multiple_of(2);
        tracer.set(
            traced,
            if round == 0 {
                Bucket::First
            } else {
                Bucket::Rest
            },
        );
        workload.round(tracer, &mut out)?;
        round += 1;
        if started.elapsed() >= next_setups {
            next_setups += SETUP_EVERY;
            let batch = Instant::now();
            loop {
                drop(timed_setup(&mut setup_s)?);
                if batch.elapsed() >= SETUP_BATCH {
                    break;
                }
            }
        }
        let done = if args.trace {
            round >= 2
        } else {
            out.close_window(WINDOW_OPS, WINDOW_TIME);
            !out.windows().is_empty()
        };
        let elapsed = started.elapsed();
        if (elapsed >= budget && done) || elapsed >= HARD_STOP {
            break;
        }
    }
    out.fold_tail();
    tracer.set(true, Bucket::First);
    workload.finish(tracer, &mut out)?;
    tracer.set(false, Bucket::First);
    if args.trace {
        // Layers this workload never calls are reported from one traced
        // round of the others (after their own warm-up round), marked as
        // borrowed on standard error.
        borrow_from::<W, cold::Cold>(args.seed, tracer)?;
        borrow_from::<W, evolve::Evolve>(args.seed, tracer)?;
        borrow_from::<W, serve::Serve>(args.seed, tracer)?;
    }
    Ok(Run { setup_s, out })
}

/// Median of one figure over the run's windows.
fn window_median(windows: &[Window], figure: fn(&Window) -> f64) -> f64 {
    median(windows.iter().map(figure).collect())
}

/// `(name, unit, value)` rows of the end-to-end report.
fn end_to_end(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    let w = run.out.windows();
    vec![
        ("setup_s", "s", median(run.setup_s.clone())),
        ("op_ms.p50", "ms", window_median(w, |w| w.op_p50_ms)),
        ("op_ms.p99", "ms", window_median(w, |w| w.op_p99_ms)),
        ("ops_per_s", "1/s", window_median(w, |w| w.ops_per_s)),
        ("hit_us.p50", "us", window_median(w, |w| w.hit_p50_us)),
        ("hit_us.p99", "us", window_median(w, |w| w.hit_p99_us)),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
    ]
}

/// `(name, unit, value)` rows of the per-layer report.
fn per_layer(run: &Run, t: &Tracer) -> Vec<(&'static str, &'static str, f64)> {
    let hits = t.counted("store.hits");
    let lookups = hits + t.counted("store.misses");
    vec![
        ("fingerprint.ms", "ms", t.self_ms("fingerprint")),
        ("catalog.register_ms", "ms", t.self_ms("catalog.register")),
        (
            "catalog.invalidate_ms",
            "ms",
            t.self_ms("catalog.invalidate"),
        ),
        ("importance.ms", "ms", t.self_ms("importance.cold")),
        (
            "importance.iterations",
            "count",
            t.counted("importance.iterations"),
        ),
        ("importance.seeded_ms", "ms", t.self_ms("importance.seeded")),
        (
            "importance.iterations_saved",
            "count",
            t.counted("importance.iterations_saved"),
        ),
        (
            "importance.dev_vs_cold",
            "ratio",
            t.sampled_mean("importance.dev_vs_cold"),
        ),
        (
            "importance.dev_vs_fixpoint",
            "ratio",
            t.sampled_mean("importance.dev_vs_fixpoint"),
        ),
        (
            "importance.cold_dev_vs_fixpoint",
            "ratio",
            t.sampled_mean("importance.cold_dev_vs_fixpoint"),
        ),
        ("matrices.ms", "ms", t.self_ms("matrices.compute")),
        ("paths.expansions", "count", t.counted("paths.expansions")),
        ("matrices.splice_ms", "ms", t.self_ms("matrices.splice")),
        ("dominance.ms", "ms", t.self_ms("dominance")),
        ("dominance.pairs", "count", t.counted("dominance.pairs")),
        (
            "algorithms.balance_ms",
            "ms",
            t.self_ms("algorithms.balance"),
        ),
        ("assignment.ms", "ms", t.self_ms("assignment")),
        ("multilevel.build_ms", "ms", t.self_ms("multilevel.build")),
        (
            "multilevel.refresh_ms",
            "ms",
            t.self_ms("multilevel.refresh"),
        ),
        ("diff.ms", "ms", t.self_ms("diff")),
        ("incremental.plan_ms", "ms", t.self_ms("incremental.plan")),
        (
            "incremental.rows_recomputed",
            "count",
            t.counted("incremental.rows_recomputed"),
        ),
        (
            "store.update_named_ms",
            "ms",
            t.self_ms("store.update_named"),
        ),
        ("store.hit_us", "us", t.self_ms("store.hit") * 1e3),
        (
            "store.refreshes_warm",
            "count",
            t.counted("store.refreshes_warm"),
        ),
        (
            "store.refreshes_cold",
            "count",
            t.counted("store.refreshes_cold"),
        ),
        (
            "store.hit_rate",
            "ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        (
            "evolve.selection_agree_frac",
            "ratio",
            t.sampled_mean("evolve.selection_agree"),
        ),
        (
            "service.unattributed_ms",
            "ms",
            t.sampled_mean("service.unattributed_ms"),
        ),
        (
            "service.handle_us",
            "us",
            t.self_ms("store.handle_request") * 1e3,
        ),
        ("http.self_us", "us", t.sampled_mean("http.self_us")),
        (
            "http.reply_bytes",
            "bytes",
            t.sampled_mean("http.reply_bytes"),
        ),
        ("metrics.scrape_us", "us", t.self_ms("http.metrics") * 1e3),
        ("http.shed", "count", t.counted("http.shed")),
        ("http.timed_out", "count", t.counted("http.timed_out")),
        ("trace.overhead_frac", "ratio", run.out.trace_overhead()),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "cold" => run::<cold::Cold>(&args, &mut tracer),
        "evolve" => run::<evolve::Evolve>(&args, &mut tracer),
        "serve" => run::<serve::Serve>(&args, &mut tracer),
        other => {
            eprintln!("bench_e2e: unknown workload {other} (cold, evolve, serve)");
            return ExitCode::from(2);
        }
    };
    let run = match result {
        Ok(run) => run,
        Err(Failure::Setup(e)) => {
            eprintln!("bench_e2e: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(Failure::Gate(g)) => {
            eprintln!(
                "bench_e2e: correctness gate failed: {}: {}",
                g.check, g.detail
            );
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_spans(&path) {
            eprintln!("bench_e2e: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let rows = per_layer(&run, &tracer);
        let borrowed = tracer.borrowed_names();
        if !borrowed.is_empty() {
            eprintln!(
                "bench_e2e: {} never calls these; taken from a traced round of another workload: {}",
                args.workload,
                borrowed.join(", ")
            );
        }
        rows
    } else {
        end_to_end(&run)
    };
    let mut json = String::new();
    for (name, unit, value) in &metrics {
        if !value.is_finite() {
            eprintln!("bench_e2e: metric {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let failed = run.out.failed;
    eprintln!(
        "bench_e2e: {}: {} ops, {} calls attempted, {failed} failed",
        args.workload,
        run.out.ops(),
        run.out.attempted,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0,
        run.out.attempted
    );
    if failed > 0 {
        eprintln!("bench_e2e: correctness gate failed: no_failed_ops: {failed} failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
