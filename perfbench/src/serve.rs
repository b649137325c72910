//! `serve`: 64 streams, each replaying the MSDS-like test series from its
//! own offset, scored by one `Engine` with a `tranad_obs::Exporter`
//! attached (main thread plus exporter thread, `TRANAD_THREADS=1`). The
//! model is the lean serving configuration (window 3, context 6, ff 8),
//! whose matmuls fall below the pack cutoff.
//!
//! Phase A is an open loop: every 8 ms each stream emits one point (8,000
//! points/s offered), stamped with its due time. The loop pushes whatever
//! is due, calls `run_batch`, and records each verdict's latency from its
//! point's due time; it checkpoints every 16,384 points and scrapes
//! `/metrics` every 50 ms. Phase B is a closed loop: every stream queues
//! `batch_max` points, then the engine drains them; its rate is the
//! capacity.
//!
//! The gated figures are the fastest phase B cycle and the fastest
//! verdict; medians and tails are printed beside them (see `online` for
//! why).

use crate::online::{self, same_verdict, stream_setup, StreamSetup};
use crate::trace::{next_request, span, Layer};
use crate::{interleave, probes, repeat_setup, stats, Args, Report};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};
use tranad::{OnlineState, OnlineVerdict, PotConfig, TrainedTranad, TranadConfig};
use tranad_data::TimeSeries;
use tranad_obs::Exporter;
use tranad_serve::{Engine, EngineConfig, PushOutcome, StreamId};

fn lean_config() -> TranadConfig {
    TranadConfig {
        epochs: 3,
        patience: 4,
        window: 3,
        context: 6,
        ff_hidden: 8,
        ..TranadConfig::default()
    }
}

/// How one serving session is driven.
#[derive(Clone, Copy)]
struct Plan {
    streams: usize,
    period: Duration,
    /// Length of a phase A segment in periods; a phase B segment lasts as
    /// long.
    segment_ticks: u32,
    checkpoint_every: u64,
    scrape_every: Duration,
    batch_max: usize,
}

const WORKLOAD: Plan = Plan {
    streams: 64,
    period: Duration::from_millis(8),
    segment_ticks: 256,
    checkpoint_every: 16_384,
    scrape_every: Duration::from_millis(50),
    batch_max: 64,
};

impl Plan {
    fn segment(&self) -> Duration {
        self.period * self.segment_ticks
    }

    fn engine_config(&self) -> Result<EngineConfig, String> {
        EngineConfig::builder()
            .batch_max(self.batch_max)
            .max_queue(4 * self.batch_max)
            .build()
            .map_err(|e| e.to_string())
    }
}

/// What one serving session measured.
#[derive(Default)]
struct Outcome {
    verdict_us: Vec<f64>,
    /// Verdict latency p50, p90 and p99 of each phase A segment.
    segment_p50_us: Vec<f64>,
    segment_p90_us: Vec<f64>,
    segment_p99_us: Vec<f64>,
    gen_late_us: Vec<f64>,
    push_us: Vec<f64>,
    run_batch_us: Vec<f64>,
    rows: u64,
    rounds: u64,
    checkpoint_ms: Vec<f64>,
    checkpoint_kb: f64,
    scrape_us: Vec<f64>,
    scrape_kb: f64,
    capacity: Vec<f64>,
    pushes: u64,
    shed: u64,
    refits: u64,
    in_order: bool,
    replay_equal: bool,
    resume_restored: bool,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            in_order: true,
            replay_equal: true,
            resume_restored: true,
            ..Outcome::default()
        }
    }

    fn absorb(&mut self, o: Outcome) {
        self.verdict_us.extend(o.verdict_us);
        self.segment_p50_us.extend(o.segment_p50_us);
        self.segment_p90_us.extend(o.segment_p90_us);
        self.segment_p99_us.extend(o.segment_p99_us);
        self.gen_late_us.extend(o.gen_late_us);
        self.push_us.extend(o.push_us);
        self.run_batch_us.extend(o.run_batch_us);
        self.rows += o.rows;
        self.rounds += o.rounds;
        self.checkpoint_ms.extend(o.checkpoint_ms);
        self.checkpoint_kb = o.checkpoint_kb;
        self.scrape_us.extend(o.scrape_us);
        self.scrape_kb = o.scrape_kb;
        self.capacity.extend(o.capacity);
        self.pushes += o.pushes;
        self.shed += o.shed;
        self.refits += o.refits;
        self.in_order &= o.in_order;
        self.replay_equal &= o.replay_equal;
        self.resume_restored &= o.resume_restored;
    }

    fn report_checks(&self, r: &mut Report) {
        r.check(
            "serve: every accepted push got exactly one verdict, in order",
            self.in_order,
        );
        r.check(
            "serve: 2 streams per session replayed through OnlineState::push match bitwise",
            self.replay_equal,
        );
        r.check(
            "serve: Engine::resume from each session's final checkpoint restores stream_seen of every stream",
            self.resume_restored,
        );
    }
}

/// A running engine with its exporter, stream handles and per-stream
/// bookkeeping of what was sent and what came back.
struct Session<'a> {
    plan: Plan,
    engine: Engine,
    exporter: Exporter,
    ids: Vec<StreamId>,
    test: &'a TimeSeries,
    offsets: Vec<usize>,
    /// Points accepted per stream.
    sent: Vec<u64>,
    /// Due times of accepted points still waiting for their verdict.
    due: Vec<VecDeque<Instant>>,
    /// Verdicts received per stream.
    verdicted: Vec<u64>,
    /// Streams whose verdicts are kept for the replay check.
    replayed: [usize; 2],
    kept: [Vec<OnlineVerdict>; 2],
    since_checkpoint: u64,
    out: Outcome,
}

fn start<'a>(
    model_path: &Path,
    dir: &Path,
    plan: Plan,
    test: &'a TimeSeries,
    seed: u64,
) -> Result<Session<'a>, String> {
    let trained = TrainedTranad::load(model_path).map_err(|e| format!("load: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut engine =
        Engine::resume(trained, plan.engine_config()?, dir).map_err(|e| format!("engine: {e}"))?;
    let ids = (0..plan.streams)
        .map(|s| {
            engine
                .stream_id(&format!("stream-{s:03}"))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let exporter = Exporter::bind(
        "127.0.0.1:0",
        tranad_telemetry::global().clone(),
        Some(engine.obs()),
    )
    .map_err(|e| format!("exporter: {e}"))?;
    let n = plan.streams;
    Ok(Session {
        plan,
        engine,
        exporter,
        ids,
        test,
        offsets: (0..n).map(|s| s * test.len() / n).collect(),
        sent: vec![0; n],
        due: vec![VecDeque::new(); n],
        verdicted: vec![0; n],
        replayed: [0, 1 + (seed as usize) % (n - 1).max(1)],
        kept: [Vec::new(), Vec::new()],
        // Half a cadence in, so the checkpoint lands mid-segment.
        since_checkpoint: plan.checkpoint_every / 2,
        out: Outcome::new(),
    })
}

/// The `seq`-th point of stream `s`: the test series from the stream's
/// offset, wrapping around.
fn row<'t>(test: &'t TimeSeries, offsets: &[usize], s: usize, seq: u64) -> &'t [f64] {
    test.row((offsets[s] + seq as usize) % test.len())
}

impl Session<'_> {
    /// Pushes stream `s`'s next point. Push times are kept in phase A
    /// (`open_loop`) only, where the point count is set by the clock: a
    /// sample per phase B push would make the benchmark's own memory, and
    /// so `rss_peak_mb`, grow with host speed.
    fn push(&mut self, s: usize, due: Instant, open_loop: bool) -> Result<(), String> {
        let (id, seq) = (self.ids[s], self.sent[s]);
        let row = row(self.test, &self.offsets, s, seq);
        let t = Instant::now();
        let outcome = span("Engine::push_id", Layer::Serve, || {
            self.engine.push_id(id, row)
        })
        .map_err(|e| format!("push: {e}"))?;
        if open_loop {
            self.out.push_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        self.out.pushes += 1;
        match outcome {
            PushOutcome::Enqueued { .. } => {
                self.sent[s] += 1;
                self.due[s].push_back(due);
            }
            PushOutcome::Shed { .. } => self.out.shed += 1,
        }
        Ok(())
    }

    fn queued(&self) -> bool {
        self.sent.iter().zip(&self.verdicted).any(|(s, v)| s > v)
    }

    /// One `run_batch`. In phase A (`open_loop`) it records verdict
    /// latencies from due times and checkpoints every `checkpoint_every`
    /// points. Returns the points scored.
    fn run_batch(&mut self, open_loop: bool) -> Result<usize, String> {
        let t = Instant::now();
        let report = span("Engine::run_batch", Layer::Serve, || {
            self.engine.run_batch()
        })
        .map_err(|e| format!("run_batch: {e}"))?;
        let done = Instant::now();
        if open_loop {
            self.out.run_batch_us.push((done - t).as_secs_f64() * 1e6);
        }
        let mut rounds = 0;
        for sv in report.verdicts {
            let s = sv.stream.index();
            self.out.in_order &= sv.first_seq == self.verdicted[s];
            rounds = rounds.max(sv.verdicts.len());
            for v in sv.verdicts {
                match self.due[s].pop_front() {
                    Some(due) if open_loop => {
                        self.out.verdict_us.push((done - due).as_secs_f64() * 1e6)
                    }
                    Some(_) => {}
                    None => self.out.in_order = false,
                }
                self.verdicted[s] += 1;
                if let Some(k) = self.replayed.iter().position(|&r| r == s) {
                    self.kept[k].push(v);
                }
            }
        }
        self.out.rows += report.processed as u64;
        self.out.rounds += rounds as u64;
        if open_loop {
            self.since_checkpoint += report.processed as u64;
        }
        if open_loop && self.since_checkpoint >= self.plan.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(report.processed)
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let path = span("Engine::checkpoint_now", Layer::Serve, || {
            self.engine.checkpoint_now()
        })
        .map_err(|e| format!("checkpoint: {e}"))?
        .ok_or("the engine has no checkpoint directory")?;
        self.out.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.out.checkpoint_kb =
            std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1024.0;
        self.since_checkpoint = 0;
        Ok(())
    }

    fn scrape(&mut self) -> Result<(), String> {
        let addr = self.exporter.addr();
        let t = Instant::now();
        let body = span(
            "GET /metrics",
            Layer::Obs,
            || -> std::io::Result<Vec<u8>> {
                let mut conn = TcpStream::connect(addr)?;
                conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
                let mut buf = Vec::new();
                conn.read_to_end(&mut buf)?;
                Ok(buf)
            },
        )
        .map_err(|e| format!("scrape: {e}"))?;
        self.out.scrape_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !body.starts_with(b"HTTP/1.0 200") {
            return Err("scrape: /metrics did not answer 200".to_string());
        }
        self.out.scrape_kb = body.len() as f64 / 1024.0;
        Ok(())
    }

    /// A phase A segment: the open loop at one point per stream per period.
    fn phase_a(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let end = self.plan.segment();
        let first = self.out.verdict_us.len();
        let mut tick = 0u32;
        let mut next_scrape = Duration::ZERO;
        loop {
            let now = t0.elapsed();
            let mut due = self.plan.period * tick;
            while due <= now && due < end {
                next_request();
                self.out
                    .gen_late_us
                    .push((t0.elapsed() - due).as_secs_f64() * 1e6);
                for s in 0..self.plan.streams {
                    self.push(s, t0 + due, true)?;
                }
                tick += 1;
                due = self.plan.period * tick;
            }
            if self.queued() {
                self.run_batch(true)?;
            }
            if t0.elapsed() >= next_scrape {
                self.scrape()?;
                next_scrape += self.plan.scrape_every;
            }
            if due >= end && !self.queued() {
                let segment = &self.out.verdict_us[first..];
                self.out.segment_p50_us.push(stats::median(segment));
                self.out.segment_p90_us.push(stats::quantile(segment, 0.9));
                self.out.segment_p99_us.push(stats::p99(segment));
                return Ok(());
            }
            let wake = due.min(next_scrape);
            let now = t0.elapsed();
            if !self.queued() && wake > now {
                std::thread::sleep(wake - now);
            }
        }
    }

    /// A phase B segment: closed-loop cycles of `batch_max` points per
    /// stream, at least one.
    fn phase_b(&mut self) -> Result<(), String> {
        let started = Instant::now();
        let cycles = self.out.capacity.len();
        while self.out.capacity.len() == cycles || started.elapsed() < self.plan.segment() {
            next_request();
            let t = Instant::now();
            for _ in 0..self.plan.batch_max {
                for s in 0..self.plan.streams {
                    self.push(s, t, false)?;
                }
            }
            let mut scored = 0;
            while self.queued() {
                scored += self.run_batch(false)?;
            }
            self.out
                .capacity
                .push(scored as f64 / t.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Ends the session and runs its output checks: ordered verdicts, one
    /// per accepted push; replayed streams equal a fresh
    /// `OnlineState::push` bitwise; a resume from the final checkpoint
    /// restores every stream's `stream_seen`.
    fn finish(mut self, model_path: &Path, dir: &Path) -> Result<Outcome, String> {
        self.checkpoint()?;
        let names: Vec<String> = self
            .engine
            .streams()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let seen: Vec<Option<u64>> = names.iter().map(|n| self.engine.stream_seen(n)).collect();
        let processed = self.engine.processed();
        let Session {
            plan,
            engine,
            exporter,
            test,
            offsets,
            sent,
            due,
            verdicted,
            replayed,
            kept,
            mut out,
            ..
        } = self;
        drop(engine);
        exporter.shutdown();
        out.in_order &= sent == verdicted && due.iter().all(VecDeque::is_empty);

        let trained = TrainedTranad::load(model_path).map_err(|e| format!("load: {e}"))?;
        for (k, &s) in replayed.iter().enumerate() {
            let mut state =
                OnlineState::new(&trained, PotConfig::default()).map_err(|e| e.to_string())?;
            out.replay_equal &= kept[k].len() as u64 == sent[s];
            for (seq, kept) in kept[k].iter().enumerate() {
                let v = state
                    .push(&trained, row(test, &offsets, s, seq as u64))
                    .map_err(|e| e.to_string())?;
                out.replay_equal &= same_verdict(&v, kept);
            }
            out.refits += state.refits();
        }

        let resumed = Engine::resume(trained, plan.engine_config()?, dir)
            .map_err(|e| format!("resume: {e}"))?;
        out.resume_restored &= resumed.processed() == processed
            && names
                .iter()
                .zip(&seen)
                .all(|(n, s)| s.is_some() && resumed.stream_seen(n) == *s);
        Ok(out)
    }
}

/// One session: a fresh engine serves one phase A segment, then one
/// phase B segment, then is checked and dropped. Fresh sessions keep the
/// work of every segment the same: stream state (SPOT peaks, checkpoint
/// size) grows with stream length.
fn session(
    args: &Args,
    model_path: &Path,
    test: &TimeSeries,
    plan: Plan,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut s = start(model_path, dir, plan, test, args.seed)?;
    s.phase_a()?;
    s.phase_b()?;
    let out = s.finish(model_path, dir)?;
    std::fs::remove_dir_all(dir).ok();
    Ok(out)
}

/// Sessions back to back for about `seconds` (at least one).
fn sessions(
    args: &Args,
    model_path: &Path,
    test: &TimeSeries,
    plan: Plan,
    seconds: f64,
) -> Result<Outcome, String> {
    let n = (seconds / (2.0 * plan.segment().as_secs_f64()))
        .round()
        .max(1.0) as usize;
    let mut all = Outcome::new();
    for i in 0..n {
        all.absorb(session(
            args,
            model_path,
            test,
            plan,
            &args.scratch.join(format!("session-{i}")),
        )?);
    }
    Ok(all)
}

/// The per-layer figures of the `serve` and `obs` crates.
fn report_layers(r: &mut Report, o: &Outcome) {
    r.layer("serve.push_us", stats::median(&o.push_us), o.push_us.len());
    r.layer(
        "serve.run_batch_p50_us",
        stats::median(&o.run_batch_us),
        o.run_batch_us.len(),
    );
    r.layer(
        "serve.run_batch_p99_us",
        stats::p99(&o.run_batch_us),
        o.run_batch_us.len(),
    );
    r.layer(
        "serve.rows_per_forward",
        o.rows as f64 / o.rounds.max(1) as f64,
        o.rounds as usize,
    );
    r.layer(
        "serve.checkpoint_ms",
        stats::median(&o.checkpoint_ms),
        o.checkpoint_ms.len(),
    );
    r.layer(
        "serve.checkpoint_kb",
        o.checkpoint_kb,
        o.checkpoint_ms.len(),
    );
    r.layer("serve.shed", o.shed as f64, o.pushes as usize);
    r.layer(
        "serve.gen_late_p99_us",
        stats::p99(&o.gen_late_us),
        o.gen_late_us.len(),
    );
    r.layer(
        "obs.scrape_us",
        stats::median(&o.scrape_us),
        o.scrape_us.len(),
    );
    r.layer("obs.scrape_kb", o.scrape_kb, o.scrape_us.len());
}

/// A short serving session at another workload's model shape (4 streams),
/// so every traced run reports the `serve` and `obs` layers.
pub fn probe(
    args: &Args,
    r: &mut Report,
    model_path: &Path,
    test: &TimeSeries,
) -> Result<(), String> {
    let plan = Plan {
        streams: 4,
        segment_ticks: 64,
        checkpoint_every: 256,
        batch_max: 16,
        ..WORKLOAD
    };
    let out = sessions(args, model_path, test, plan, 0.0)?;
    out.report_checks(r);
    report_layers(r, &out);
    Ok(())
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let (setup, setup_s, setups) = repeat_setup(5, 0.0, || stream_setup(args, lean_config()))?;
    let StreamSetup {
        model,
        model_path,
        test,
        ..
    } = &setup;

    if !args.traced {
        crate::trace::set_enabled(false);
        let o = sessions(args, model_path, test, WORKLOAD, args.seconds)?;
        o.report_checks(r);
        let n = o.verdict_us.len();
        let p50 = stats::median(&o.segment_p50_us);
        let p90 = stats::median(&o.segment_p90_us);
        let capacity = stats::median(&o.capacity);
        let best_cycle = stats::max(&o.capacity);
        let fastest = stats::min(&o.verdict_us);
        r.attempted = o.pushes;
        r.failed = o.shed;
        r.e2e("setup_s", setup_s, setups);
        r.e2e("work_per_s", best_cycle, o.capacity.len());
        r.e2e("latency_us", fastest, n);
        r.named(
            "capacity_points_per_s (fastest phase B cycle)",
            best_cycle,
            "1/s",
            o.capacity.len(),
        );
        r.named("verdict_min_us", fastest, "us", n);
        r.named(
            "capacity_points_per_s (median over cycles)",
            capacity,
            "1/s",
            o.capacity.len(),
        );
        r.named("verdict_p50_us (median of segment p50s)", p50, "us", n);
        r.named("verdict_p90_us (median of segment p90s)", p90, "us", n);
        r.named(
            "verdict_p99_us (median of segment p99s)",
            stats::median(&o.segment_p99_us),
            "us",
            n,
        );
        r.named(
            "checkpoint_ms (median)",
            stats::median(&o.checkpoint_ms),
            "ms",
            o.checkpoint_ms.len(),
        );
        r.named(
            "checkpoint_ms (max)",
            stats::quantile(&o.checkpoint_ms, 1.0),
            "ms",
            o.checkpoint_ms.len(),
        );
        r.named(
            "checkpoint_kb",
            o.checkpoint_kb,
            "KiB",
            o.checkpoint_ms.len(),
        );
        r.named(
            "verdict_p50_us (pooled)",
            stats::median(&o.verdict_us),
            "us",
            n,
        );
        r.named(
            &format!("verdict_{}_us (pooled)", stats::tail_label(n)),
            stats::tail(&o.verdict_us),
            "us",
            n,
        );
        r.named("sessions", o.segment_p50_us.len() as f64, "count", 1);
        r.named(
            "failed_frac",
            o.shed as f64 / o.pushes as f64,
            "ratio",
            o.pushes as usize,
        );
        r.named(
            &format!("gen_late_{}_us", stats::tail_label(o.gen_late_us.len())),
            stats::tail(&o.gen_late_us),
            "us",
            o.gen_late_us.len(),
        );
        r.named("checkpoints", o.checkpoint_ms.len() as f64, "count", 1);
        r.named("scrapes", o.scrape_us.len() as f64, "count", 1);
        return Ok(());
    }

    // Traced run: untraced and traced sessions alternate.
    online::report_setup(r, &setup);
    let (mut plain, mut traced, mut n) = (Outcome::new(), Outcome::new(), 0);
    let counters = interleave(args.seconds, |on| {
        n += 1;
        let dir = args.scratch.join(format!("session-{n}"));
        let o = session(args, model_path, test, WORKLOAD, &dir)?;
        if on {
            traced.absorb(o)
        } else {
            plain.absorb(o)
        }
        Ok(())
    })?;
    crate::trace::mark_probes();
    plain.report_checks(r);
    traced.report_checks(r);
    report_layers(r, &traced);
    let verdicts = plain.verdict_us.len();
    r.layer(
        "tail.latency_p99_us",
        stats::median(&plain.segment_p99_us),
        verdicts,
    );
    r.attempted = plain.pushes + traced.pushes;
    r.failed = plain.shed + traced.shed;
    // Sessions repeat the same work, so the replayed streams refit the
    // same number of times in each.
    let sessions = traced.segment_p50_us.len();
    r.layer(
        "evt.spot_refits",
        (traced.refits / sessions as u64) as f64,
        sessions,
    );
    r.layer(
        "trace.overhead",
        stats::median(&plain.capacity) / stats::median(&traced.capacity) - 1.0,
        traced.capacity.len(),
    );
    let shape = probes::ModelShape::of(model.model.config(), model.model.dims(), WORKLOAD.streams);
    probes::report(r, shape, &counters, plain.rows as usize);
    // The layers this workload does not exercise, probed at its shapes.
    online::quality_pass(r, model, test, &setup.truth)?;
    online::split_probe(r, model, test)?;
    crate::offline::score_probe(r, model, test)?;
    Ok(())
}
