//! perfbench: the end-to-end benchmark of the tranad-rs workspace.
//!
//! ```text
//! perfbench --workload <offline|online|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Normally run through `python3 perfbench/run.py` with the same
//! arguments, which builds this binary from source first. Each run
//! generates its inputs from `--seed`, sets up (several times, reporting
//! the median), measures for about `--seconds` (gating on the fastest of
//! many equal intervals, see `online`), checks the outputs and
//! prints a human-readable report followed by one JSON line. With
//! `--trace 0` that line carries the end-to-end metrics; with `--trace 1`
//! the run alternates untraced and traced units of the workload, and the
//! line carries the per-layer metrics. See `perfbench/README.md`.

mod alloc;
mod offline;
mod online;
mod probes;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end metrics every workload reports: (name, unit, better).
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("rss_peak_mb", "MiB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("latency_us", "us", "lower"),
];

/// The per-layer metrics every traced run reports: (name, unit, the
/// end-to-end metric and workload it should move).
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("data.generate_s", "s", "setup_s (all)"),
    (
        "tensor.matmul_gflops",
        "GFLOP/s",
        "work_per_s (offline, serve); latency_us (online); flops computed from the shape",
    ),
    (
        "tensor.pool_jobs",
        "count",
        "work_per_s and latency_us (offline)",
    ),
    (
        "tensor.pool_serial_share",
        "ratio",
        "work_per_s and latency_us (offline)",
    ),
    ("tensor.bufpool_hwm_mb", "MiB", "rss_peak_mb (all)"),
    (
        "tensor.allocs_per_point",
        "count",
        "latency_us (online); work_per_s (serve)",
    ),
    (
        "nn.encoder_us",
        "us",
        "latency_us (online); work_per_s (serve)",
    ),
    (
        "nn.window_encoder_us",
        "us",
        "latency_us (online); work_per_s (serve)",
    ),
    (
        "nn.attention_us",
        "us",
        "latency_us (online); work_per_s (serve)",
    ),
    ("nn.encoder_train_us", "us", "work_per_s (offline)"),
    ("nn.window_encoder_train_us", "us", "work_per_s (offline)"),
    ("nn.attention_train_us", "us", "work_per_s (offline)"),
    ("tranad.epoch_s", "s", "work_per_s (offline)"),
    ("tranad.step_ms", "ms", "work_per_s (offline)"),
    ("tranad.score_windows_per_s", "1/s", "latency_us (offline)"),
    (
        "tranad.ingest_us",
        "us",
        "latency_us and tail.latency_p99_us (online)",
    ),
    (
        "tranad.stage_us",
        "us",
        "latency_us and tail.latency_p99_us (online)",
    ),
    (
        "tranad.phase1_us",
        "us",
        "latency_us and tail.latency_p99_us (online)",
    ),
    (
        "tranad.phase2_us",
        "us",
        "latency_us and tail.latency_p99_us (online)",
    ),
    (
        "tranad.apply_us",
        "us",
        "latency_us and tail.latency_p99_us (online)",
    ),
    ("tranad.save_ms", "ms", "setup_s (online, serve)"),
    ("tranad.load_ms", "ms", "setup_s (online, serve)"),
    ("evt.pot_fit_ms", "ms", "latency_us (offline)"),
    (
        "evt.spot_refits",
        "count",
        "tail.latency_p99_us (online, serve)",
    ),
    ("serve.push_us", "us", "latency_us (serve)"),
    ("serve.run_batch_p50_us", "us", "latency_us (serve)"),
    (
        "serve.run_batch_p99_us",
        "us",
        "tail.latency_p99_us (serve)",
    ),
    ("serve.rows_per_forward", "rows", "work_per_s (serve)"),
    ("serve.checkpoint_ms", "ms", "tail.latency_p99_us (serve)"),
    ("serve.checkpoint_kb", "KiB", "tail.latency_p99_us (serve)"),
    ("serve.shed", "count", "failed (serve)"),
    ("serve.gen_late_p99_us", "us", "tail.latency_p99_us (serve)"),
    ("obs.scrape_us", "us", "tail.latency_p99_us (serve)"),
    ("obs.scrape_kb", "KiB", "tail.latency_p99_us (serve)"),
    ("metrics.f1", "ratio", "output quality (all)"),
    ("metrics.auc", "ratio", "output quality (all)"),
    (
        "tail.latency_p99_us",
        "us",
        "none: the workload's tail latency, reported but not gated",
    ),
    (
        "trace.overhead",
        "ratio",
        "none: traced units against untraced units, same run",
    ),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Per-run scratch directory for saved models and checkpoints.
    pub scratch: PathBuf,
}

/// One reported figure with its unit and the number of samples behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// Everything a run measured and checked.
#[derive(Default)]
pub struct Report {
    /// The `END_TO_END` metrics, by name.
    pub e2e: Vec<Metric>,
    /// The same figures under their workload-specific names, plus related
    /// figures that are not gated (human-readable report only).
    pub named: Vec<Metric>,
    /// The `PER_LAYER` metrics (traced runs).
    pub layers: Vec<Metric>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

fn metric(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        samples,
    }
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .expect("known end-to-end metric")
            .1;
        self.e2e.push(metric(name, value, unit, samples));
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.named.push(metric(name, value, unit, samples));
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .expect("known per-layer metric")
            .1;
        self.layers.push(metric(name, value, unit, samples));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

/// Runs `setup` at least `min_runs` times and for at least `min_secs`
/// seconds, keeping the last result. Returns it with the median setup
/// time and the number of setups.
pub fn repeat_setup<T>(
    min_runs: usize,
    min_secs: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let started = std::time::Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let out = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= min_runs && started.elapsed().as_secs_f64() >= min_secs {
            return Ok((out, stats::median(&secs), secs.len()));
        }
    }
}

/// Counter deltas summed over the untraced calls of a traced run.
#[derive(Default)]
pub struct Counters {
    pub allocs: u64,
    pub jobs: u64,
    pub parallel_tasks: u64,
    pub serial_tasks: u64,
}

/// The traced run's schedule: alternates an untraced and a traced call of
/// `step` (one cycle, pass or session) until `secs` have passed, at least
/// once each, so that host drift affects both alike. Allocation and pool
/// counters are summed over the untraced calls. Tracing stays on after.
pub fn interleave(
    secs: f64,
    mut step: impl FnMut(bool) -> Result<(), String>,
) -> Result<Counters, String> {
    let started = std::time::Instant::now();
    let mut c = Counters::default();
    loop {
        trace::set_enabled(false);
        let (allocs, pool) = (alloc::count(), tranad_tensor::pool::counters());
        step(false)?;
        let after = tranad_tensor::pool::counters();
        c.allocs += alloc::count() - allocs;
        c.jobs += after.jobs - pool.jobs;
        c.parallel_tasks += after.tasks - pool.tasks;
        c.serial_tasks += after.serial_tasks - pool.serial_tasks;
        trace::set_enabled(true);
        step(true)?;
        if started.elapsed().as_secs_f64() >= secs {
            return Ok(c);
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["offline", "online", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (offline, online or serve)"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let scratch = PathBuf::from(".bench_out").join(format!("run-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        scratch,
    })
}

/// The pool size each workload is defined with.
fn workload_threads(workload: &str) -> &'static str {
    if workload == "offline" {
        "2"
    } else {
        "1"
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".to_string(),
    }
}

/// Peak resident set size (VmHWM) of this process, in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload <offline|online|serve> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    // Fixed by the workload definition, before the pool first starts.
    std::env::set_var("TRANAD_THREADS", workload_threads(&args.workload));
    std::env::remove_var("TRANAD_TRACE");
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        std::process::exit(1);
    }
    let fingerprint = format!(
        "workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" TRANAD_THREADS={} git_rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        workload_threads(&args.workload),
        git_rev(),
    );
    println!("perfbench {fingerprint}");
    if args.traced {
        alloc::enable();
        trace::set_enabled(true);
    }

    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "offline" => offline::run(&args, &mut report),
        "online" => online::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    };
    if let Err(e) = &outcome {
        report.check(format!("workload ran without error ({e})"), false);
    }
    if !args.traced {
        report.e2e("rss_peak_mb", rss_peak_mb(), 1);
    }
    let (spans, probes_from) = trace::take();
    let mut trace_table = String::new();
    if args.traced {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            report.check(format!("spans written to {} ({e})", path.display()), false);
        }
        trace_table = format!(
            "per-crate self time, workload spans (setup and traced units):\n{}\
             per-crate self time, probe spans (layers probed at this workload's shapes):\n{}",
            trace::layer_table(&spans, 0..probes_from),
            trace::layer_table(&spans, probes_from..spans.len()),
        );
        println!(
            "spans: {} recorded, written to {}",
            spans.len(),
            path.display()
        );
    }
    std::fs::remove_dir_all(&args.scratch).ok();

    // Every gated metric must be present, once, and a finite number.
    let (wanted, got): (Vec<&str>, &[Metric]) = if args.traced {
        (PER_LAYER.iter().map(|m| m.0).collect(), &report.layers)
    } else {
        (END_TO_END.iter().map(|m| m.0).collect(), &report.e2e)
    };
    let complete = outcome.is_ok()
        && got.len() == wanted.len()
        && wanted
            .iter()
            .all(|w| got.iter().filter(|m| m.name == *w).count() == 1)
        && got.iter().all(|m| m.value.is_finite());
    report.check("every reported metric is present and finite", complete);

    let mut text = String::new();
    let section =
        |text: &mut String, title: &str, ms: &[Metric], notes: &dyn Fn(&str) -> String| {
            if ms.is_empty() {
                return;
            }
            writeln!(text, "{title}").unwrap();
            for m in ms {
                writeln!(
                    text,
                    "  {:<44} {:>16.6} {:<8} n={:<8} {}",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples,
                    notes(&m.name)
                )
                .unwrap();
            }
        };
    if args.traced {
        section(
            &mut text,
            "per-layer metrics (traced run):",
            &report.layers,
            &|name| {
                PER_LAYER
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(String::new(), |m| format!("-> {}", m.2))
            },
        );
        text.push_str(&trace_table);
    } else {
        section(&mut text, "end-to-end metrics:", &report.e2e, &|name| {
            END_TO_END
                .iter()
                .find(|m| m.0 == name)
                .map_or(String::new(), |m| format!("({} is better)", m.2))
        });
    }
    section(&mut text, "workload figures:", &report.named, &|_| {
        String::new()
    });
    writeln!(text, "checks:").unwrap();
    for (name, ok) in &report.checks {
        writeln!(text, "  [{}] {name}", if *ok { "ok" } else { "FAILED" }).unwrap();
    }
    print!("{text}");

    let correct = report.checks.iter().all(|c| c.1);
    let metrics = if args.traced {
        &report.layers
    } else {
        &report.e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
