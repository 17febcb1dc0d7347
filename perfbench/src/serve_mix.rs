//! `serve-mix`: an in-process `bp-serve` on loopback under an open-loop
//! client.
//!
//! Set-up spawns the server with a fresh cache directory and evaluates
//! three hot keys once, so they sit in the rendered-output cache. The
//! client then sends on a fixed schedule over `--jobs` connections: three
//! requests for the hot keys (cache hits) for every fresh-seed
//! small-target `table2` evaluation (an engine miss). Each request is
//! timed from when it was due, so a stall also delays the requests behind
//! it. Responses for the hot keys and a sample of the misses must equal
//! `run_experiment` output for the same key.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::time::{Duration, Instant};

use bp_experiments::{run_experiment, Engine, ExperimentConfig, TraceSet};
use bp_serve::sys::{poll_fds, PollFd, POLLIN};
use bp_serve::{
    spawn, write_frame, Client, ErrorCode, Request, Response, ServerConfig, ServerHandle,
    DEFAULT_MAX_FRAME,
};
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::spans::Tracer;
use crate::{fresh_dir, median, percentile, Ctx, Outcome, RssSampler};

/// Branches per benchmark of every evaluated workload.
const TARGET: u64 = 2_000;
/// Requests per second over all connections (one per `--jobs`).
const RATE: f64 = 16.0;
/// Keys repeated throughout the run: three of every four requests.
const HOT: [&str; 3] = ["table1", "table2", "fig6"];
/// The miss: a fresh-seed `table2` evaluation.
const MISS: &str = "table2";
/// Latency limit for `within_limit_frac`, from the due time.
const LIMIT_MS: f64 = 250.0;
/// Above this generator slip (p99) the run measures the client, not the
/// server, and is reported as invalid.
const LATE_LIMIT_MS: f64 = 10.0;
/// Every n-th miss is re-evaluated in process and compared.
const SAMPLE_EVERY: usize = 8;
/// Set-ups before the window, and again after it, so the median of
/// `setup_s` does not rest on one moment of the run.
const SETUPS: usize = 4;
const ATTEMPTS: usize = 2;
/// How long to wait for the last responses after the last send.
const DRAIN: Duration = Duration::from_secs(30);

#[derive(Clone)]
struct Planned {
    due: Duration,
    experiment: &'static str,
    seed: u64,
    hot: bool,
    /// Compare this response against an in-process evaluation.
    sampled: bool,
}

struct Sample {
    plan: Planned,
    due_at: Instant,
    late: Duration,
    done: Option<Instant>,
    response: Option<Result<(bool, String), String>>,
}

/// What `repro --bare` renders for the key, computed in this process
/// with the configuration the server evaluates it under, and the records
/// of the traces it was computed from. The traces are generated before
/// the experiment runs, in a span of their own.
fn expected(experiment: &str, seed: u64, spans: &mut Tracer) -> (Option<String>, u64) {
    let cfg = ExperimentConfig {
        workload: WorkloadConfig::default()
            .with_seed(seed)
            .with_target(TARGET as usize),
        ..ExperimentConfig::default()
    };
    let traces = TraceSet::new(cfg.workload);
    let root = spans.begin("reference");
    spans.time("workloads.gen", || traces.generate_all(1));
    spans.end(root);
    let records = Benchmark::ALL
        .iter()
        .map(|&b| traces.trace(b).len() as u64)
        .sum();
    let output = run_experiment(experiment, &cfg, &Engine::new(traces, 1));
    (output, records)
}

fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let total = (seconds * RATE).round().max(1.0) as usize;
    (0..total)
        .map(|j| {
            let due = Duration::from_secs_f64(j as f64 / RATE);
            match HOT.get(j % 4) {
                Some(&experiment) => Planned {
                    due,
                    experiment,
                    seed,
                    hot: true,
                    sampled: true,
                },
                None => {
                    let k = j / 4;
                    Planned {
                        due,
                        experiment: MISS,
                        seed: seed.wrapping_add(1 + k as u64),
                        hot: false,
                        sampled: k % SAMPLE_EVERY == 0,
                    }
                }
            }
        })
        .collect()
}

/// Pops one length-prefixed frame off the front of `buf`, if complete.
fn pop_frame(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let len = u32::from_be_bytes(buf.get(..4)?.try_into().ok()?) as usize;
    let payload = buf.get(4..4 + len)?.to_vec();
    buf.drain(..4 + len);
    Some(payload)
}

/// One connection of the open loop: sends each request when due without
/// waiting for earlier replies, and reads replies in between.
fn drive(addr: SocketAddr, plan: Vec<Planned>, start: Instant) -> Result<Vec<Sample>, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut writer = TcpStream::connect(addr).map_err(io)?;
    writer.set_nodelay(true).map_err(io)?;
    let mut reader = writer.try_clone().map_err(io)?;
    let mut samples: Vec<Sample> = plan
        .into_iter()
        .map(|plan| Sample {
            due_at: start + plan.due,
            plan,
            late: Duration::ZERO,
            done: None,
            response: None,
        })
        .collect();
    let (mut next, mut pending) = (0, 0);
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut drain_until = None;
    loop {
        while let Some(s) = samples.get_mut(next) {
            let due = s.due_at;
            if Instant::now() < due {
                break;
            }
            let req = Request::Eval {
                id: next as u64 + 1,
                experiment: s.plan.experiment.to_owned(),
                seed: s.plan.seed,
                target: TARGET,
                deadline_ms: None,
            };
            write_frame(&mut writer, &req.encode(), DEFAULT_MAX_FRAME)
                .map_err(|e| e.to_string())?;
            s.late = Instant::now() - due;
            next += 1;
            pending += 1;
        }
        if next == samples.len() && pending == 0 {
            return Ok(samples);
        }
        let wake = match samples.get(next) {
            Some(s) => start + s.plan.due,
            None => *drain_until.get_or_insert_with(|| Instant::now() + DRAIN),
        };
        let now = Instant::now();
        if next == samples.len() && now >= wake {
            return Ok(samples);
        }
        // Wait in poll(2) for a reply until about 1 ms before the next
        // send, then sleep out the rest: socket timeouts tick in scheduler
        // jiffies, and a spinning thread loses its core to the server's
        // workers, either of which makes the generator run late.
        let remaining = wake.saturating_duration_since(now);
        if remaining < Duration::from_millis(2) {
            std::thread::sleep(remaining);
            continue;
        }
        let timeout_ms = i32::try_from(remaining.as_millis() - 1).unwrap_or(i32::MAX);
        let mut fds = [PollFd::new(reader.as_raw_fd(), POLLIN)];
        if poll_fds(&mut fds, timeout_ms).map_err(io)? == 0 || !fds[0].ready(POLLIN) {
            continue;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".to_owned()),
            Ok(n) => {
                let done = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(payload) = pop_frame(&mut buf) {
                    let resp = Response::decode(&payload).map_err(|e| e.to_string())?;
                    let Some(s) = samples.get_mut((resp.id() as usize).wrapping_sub(1)) else {
                        return Err(format!("response to unknown id {}", resp.id()));
                    };
                    s.done = Some(done);
                    s.response = Some(match resp {
                        Response::Result { cached, output, .. } => Ok((cached, output)),
                        Response::Error { code, message, .. } => {
                            Err(format!("{}: {message}", code.as_str()))
                        }
                        other => Err(format!("unexpected response {other:?}")),
                    });
                    pending -= 1;
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Spawns a server over a fresh cache directory and puts the hot keys in
/// its cache.
fn start_server(dir: &Path, seed: u64, workers: usize) -> Result<ServerHandle, String> {
    fresh_dir(dir).map_err(|e| format!("cannot empty {}: {e}", dir.display()))?;
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        engine_jobs: 1,
        cache_dir: Some(dir.to_path_buf()),
        quiet: true,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let warmed = Client::connect(&server.local_addr().to_string())
        .map_err(|e| e.to_string())
        .and_then(|mut client| {
            HOT.iter().try_for_each(|experiment| {
                match client.eval(experiment, seed, TARGET, None) {
                    Ok(Response::Result { .. }) => Ok(()),
                    other => Err(format!("warming {experiment}: {other:?}")),
                }
            })
        });
    match warmed {
        Ok(()) => Ok(server),
        Err(e) => {
            stop(server);
            Err(e)
        }
    }
}

fn stop(server: ServerHandle) {
    server.begin_drain();
    server.join();
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome {
        roots: vec!["window"],
        ..Outcome::default()
    };
    let dir = ctx.out_dir.join("cache");
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            stop(previous);
        }
        let t0 = Instant::now();
        match start_server(&dir, ctx.seed, ctx.jobs) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.problem(e);
                return out;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut server = server.expect("set-up ran");

    let conns = ctx.jobs;
    let rss = RssSampler::start();
    let mut rss_mib = 0.0;
    let mut samples = Vec::new();
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            // A fresh server, so the first window's engines and cache
            // entries do not count in the second.
            stop(server);
            server = match start_server(&dir, ctx.seed, ctx.jobs) {
                Ok(s) => s,
                Err(e) => {
                    out.problem(e);
                    return out;
                }
            };
        }
        let addr = server.local_addr();
        rss.take_mib();
        let planned = plan(ctx.seed, ctx.seconds);
        let root = ctx.spans.begin("window");
        let load = ctx.spans.begin("serve.load");
        let start = Instant::now() + Duration::from_millis(20);
        let driven: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let mine: Vec<Planned> =
                        planned.iter().skip(c).step_by(conns).cloned().collect();
                    scope.spawn(move || drive(addr, mine, start))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
                })
                .collect()
        });
        samples.clear();
        for d in driven {
            match d {
                Ok(s) => samples.extend(s),
                Err(e) => out.problem(format!("connection failed: {e}")),
            }
        }
        for s in &samples {
            if let Some(done) = s.done {
                let name = if s.plan.hot {
                    "serve.hit"
                } else {
                    "serve.miss"
                };
                ctx.spans.record(name, s.due_at, done);
            }
        }
        ctx.spans.end(load);
        ctx.spans.end(root);
        rss_mib = rss.take_mib();

        let late: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
        let late_p99 = percentile(&late, 0.99);
        out.invalid = (late_p99 > LATE_LIMIT_MS).then(|| {
            format!(
                "generator slip p99 {late_p99:.3} ms exceeds {LATE_LIMIT_MS} ms: \
                 the client, not the server, set the latencies"
            )
        });
        if out.invalid.is_none() {
            break;
        }
        eprintln!(
            "attempt {}: {}; measuring again",
            attempt + 1,
            out.invalid.as_deref().unwrap_or_default()
        );
    }
    stop(server);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        match start_server(&dir, ctx.seed, ctx.jobs) {
            Ok(s) => {
                setup_s.push(t0.elapsed().as_secs_f64());
                stop(s);
            }
            Err(e) => out.problem(e),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Correctness: hot keys and sampled misses against in-process output.
    let mut reference: Vec<((&str, u64), Option<String>)> = Vec::new();
    let mut records = 0;
    for s in &samples {
        let key = (s.plan.experiment, s.plan.seed);
        if s.plan.sampled && !reference.iter().any(|(k, _)| *k == key) {
            let (output, n) = expected(key.0, key.1, &mut ctx.spans);
            if key == (HOT[0], ctx.seed) {
                records = n;
            }
            reference.push((key, output));
        }
    }
    let mut latency_ms = Vec::new();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let (mut ok, mut cached, mut overloaded) = (0u64, 0u64, 0u64);
    for s in &samples {
        // A request that failed or never came back misses every limit.
        let ms = match (&s.response, s.done) {
            (Some(Ok(_)), Some(done)) => (done - s.due_at).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        };
        latency_ms.push(ms);
        let problem = match &s.response {
            None => Some(format!(
                "{} seed {}: no response",
                s.plan.experiment, s.plan.seed
            )),
            Some(Err(e)) => {
                if e.starts_with(ErrorCode::Overloaded.as_str()) {
                    overloaded += 1;
                }
                Some(format!("{} seed {}: {e}", s.plan.experiment, s.plan.seed))
            }
            Some(Ok((was_cached, output))) => {
                ok += 1;
                cached += u64::from(*was_cached);
                if s.plan.hot {
                    &mut hit_ms
                } else {
                    &mut miss_ms
                }
                .push(ms);
                let want = reference
                    .iter()
                    .find(|(k, _)| *k == (s.plan.experiment, s.plan.seed));
                match want {
                    Some((_, Some(w))) if w != output => Some(format!(
                        "{} seed {}: response differs from run_experiment",
                        s.plan.experiment, s.plan.seed
                    )),
                    Some((_, None)) => Some(format!("{}: no in-process output", s.plan.experiment)),
                    _ => None,
                }
            }
        };
        out.check(problem);
    }
    let within = latency_ms.iter().filter(|&&ms| ms <= LIMIT_MS).count();
    let late_ms: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();

    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("peak_rss_mib", rss_mib, "MiB");
    out.latencies(&latency_ms);
    out.detail("p99_ms", percentile(&latency_ms, 0.99), "ms");
    out.detail(
        "within_limit_frac",
        within as f64 / samples.len().max(1) as f64,
        "ratio",
    );
    if ctx.spans.on() {
        out.layer(
            "workloads.gen_s",
            median(&ctx.spans.per_root("reference", "workloads.gen")),
            "s",
        );
        out.layer("workloads.records", records as f64, "count");
        out.detail("serve.hit_p50_ms", median(&hit_ms), "ms");
        out.detail("serve.miss_p50_ms", median(&miss_ms), "ms");
        out.detail(
            "serve.cache_hit_ratio",
            cached as f64 / ok.max(1) as f64,
            "ratio",
        );
        out.detail("serve.overloaded", overloaded as f64, "count");
        out.detail("serve.late_p99_ms", percentile(&late_ms, 0.99), "ms");
    }
    out
}
