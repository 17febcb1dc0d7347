//! `perfbench` — the repository benchmark. Four workloads, each timed
//! end to end with tracing off, and layer by layer from outside with
//! tracing on: the benchmark calls each layer's public functions in the
//! order `repro`, `scale` and `bp-client` call them and wraps every call
//! in a span. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload quick-suite --seed 247470488 --seconds 15 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Spans and host facts go to
//! `.bench_out/<workload>/`.

mod counted;
mod predictor_zoo;
mod quick_suite;
mod scale_gcc;
mod serve_mix;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spans::Tracer;

/// The seed `tests/goldens/quick.fp` was captured at.
pub const DEFAULT_SEED: u64 = 247_470_488;

const WORKLOADS: [&str; 4] = ["quick-suite", "scale-gcc", "predictor-zoo", "serve-mix"];

/// The end-to-end metrics every workload reports untraced, as
/// `BENCHMARK.json` lists them.
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mib", "p50_ms", "p80_ms"];

/// The per-layer metrics every workload reports traced, as
/// `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 2] = ["workloads.gen_s", "workloads.records"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub jobs: usize,
    pub spans: Tracer,
    /// Scratch directory of this workload, inside the checkout.
    pub out_dir: PathBuf,
    started: Instant,
}

impl Ctx {
    /// Whether the measuring window is still open. At least `min`
    /// iterations run even when one outlasts the window.
    pub fn measuring(&self, done: usize, min: usize) -> bool {
        done < min || self.started.elapsed().as_secs_f64() < self.seconds
    }

    /// Starts the measuring window (after set-up).
    pub fn start_window(&mut self) {
        self.started = Instant::now();
    }
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// End-to-end metrics (reported untraced), named in [`END_TO_END`].
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported traced), named in [`PER_LAYER`].
    pub per_layer: Vec<Metric>,
    /// Metrics of this workload alone: printed to stderr and kept in the
    /// run's record, not in the result line.
    pub details: Vec<Metric>,
    /// Latency of every operation, in ms, kept in the run's record.
    pub op_ms: Vec<f64>,
    /// Layer names whose spans must cover the timed wall.
    pub roots: Vec<&'static str>,
    /// Set when the run is not valid (load generator fell behind).
    pub invalid: Option<String>,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// The latency metrics of the workload's operation, in ms. The tail
    /// is the 80th percentile: the closed-loop workloads make about ten
    /// operations in a run, and it is the highest percentile with two of
    /// them beyond it.
    pub fn latencies(&mut self, ms: &[f64]) {
        self.e2e("p50_ms", percentile(ms, 0.5), "ms");
        self.e2e("p80_ms", percentile(ms, 0.8), "ms");
        self.op_ms = ms.to_vec();
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Counts one checked operation; a `Some` problem marks it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Records a failed whole-run check (not an operation).
    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in 0..=1 (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        let m = v.len() / 2;
        return (v[m - 1] + v[m]) / 2.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Resident set size of this process in bytes (Linux `/proc/self/statm`).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Returns freed heap memory to the system (glibc `malloc_trim`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Samples the resident set size every few milliseconds on a thread of
/// its own, so each timed iteration gets its own peak. The peak of the
/// whole process is an extreme over every iteration and swings with
/// allocator timing; the median of per-iteration peaks does not.
pub struct RssSampler {
    peak: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    const PERIOD: Duration = Duration::from_millis(5);

    pub fn start() -> Self {
        let peak = Arc::new(AtomicU64::new(rss_bytes()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (peak, stop) = (Arc::clone(&peak), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(rss_bytes(), Ordering::Relaxed);
                    std::thread::sleep(Self::PERIOD);
                }
            })
        };
        RssSampler {
            peak,
            stop,
            thread: Some(thread),
        }
    }

    /// The peak in MiB since the last call (or the start), restarting the
    /// count from the current resident size once freed heap is returned
    /// to the system. Without the trim, each peak would also carry
    /// whatever the allocator kept of the previous iteration, which swings
    /// with thread timing.
    pub fn take_mib(&self) -> f64 {
        let now = rss_bytes();
        let peak = self.peak.swap(now, Ordering::Relaxed).max(now);
        release_free_heap();
        self.peak.store(rss_bytes(), Ordering::Relaxed);
        peak as f64 / f64::from(1 << 20)
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &std::path::Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
}

fn usage() {
    eprintln!(
        "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--jobs N]\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        jobs: nproc,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--jobs" => {
                args.jobs = value.parse().map_err(|_| bad())?;
                if args.jobs == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out").join(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        jobs: args.jobs,
        spans: Tracer::new(args.trace),
        out_dir,
        started: Instant::now(),
    };
    let outcome = match args.workload.as_str() {
        "quick-suite" => quick_suite::run(&mut ctx),
        "scale-gcc" => scale_gcc::run(&mut ctx),
        "predictor-zoo" => predictor_zoo::run(&mut ctx),
        _ => serve_mix::run(&mut ctx),
    };
    report(&args, &ctx, outcome)
}

fn report(args: &Args, ctx: &Ctx, mut outcome: Outcome) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let coverage = ctx.spans.coverage(&outcome.roots);
    let host = format!(
        "nproc={nproc} jobs={} cpu={} traced={}",
        args.jobs,
        json_str(&cpu_model()),
        u8::from(args.trace)
    );
    println!("# host: {host}");
    if args.trace {
        println!(
            "# layer spans cover {:.1}% of the timed wall ({})",
            coverage * 100.0,
            outcome.roots.join(", ")
        );
    }
    let (metrics, names) = if args.trace {
        (&outcome.per_layer, &PER_LAYER[..])
    } else {
        (&outcome.end_to_end, &END_TO_END[..])
    };
    for m in metrics {
        if !m.value.is_finite() {
            outcome
                .problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for name in names {
        if !metrics.iter().any(|m| m.name == *name) {
            outcome.problems.push(format!("metric {name} is missing"));
        }
    }
    for m in &outcome.details {
        eprintln!("# {} = {} {}", m.name, m.value, m.unit);
    }
    if outcome.attempted == 0 {
        outcome.problems.push("no operation ran".to_owned());
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }

    let mut self_times = String::new();
    for (i, (name, secs)) in ctx.spans.self_times().iter().enumerate() {
        if i > 0 {
            self_times.push_str(", ");
        }
        self_times.push_str(&format!("{}: {secs}", json_str(name)));
    }
    let metric_json = |ms: &[Metric]| {
        let items: Vec<String> = ms
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    };
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"jobs\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"attempted\": {}, \"failed\": {}, \
         \"problems\": [{}], \"invalid\": {}, \"coverage\": {coverage}, \
         \"metrics\": {}, \"details\": {}, \"op_ms\": [{}], \"self_times_s\": {{{self_times}}}, \"spans\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        args.jobs,
        json_str(&cpu_model()),
        outcome.attempted,
        outcome.failed,
        outcome
            .problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(", "),
        outcome
            .invalid
            .as_deref()
            .map_or("null".to_owned(), json_str),
        metric_json(metrics),
        metric_json(&outcome.details),
        outcome
            .op_ms
            .iter()
            .map(|ms| if ms.is_finite() { ms.to_string() } else { "null".to_owned() })
            .collect::<Vec<_>>()
            .join(", "),
        ctx.spans.to_json()
    );
    let path = ctx.out_dir.join(format!(
        "result-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }

    if let Some(why) = outcome.invalid {
        eprintln!("invalid run: {why}");
        return ExitCode::from(3);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.problems.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metric_json(metrics)
    );
    ExitCode::SUCCESS
}
