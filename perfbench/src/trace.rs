//! Benchmark-side spans. The traced run wraps each public call into a
//! workspace crate in a span (name, layer, start, end, parent span and
//! request id); spans stay in memory and are written out when the run
//! ends. Nothing here reaches inside the program: a layer's time is the
//! time of the public calls the benchmark makes into it.

use crate::stats;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The workspace crates a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Data,
    Tensor,
    Nn,
    Tranad,
    Evt,
    Serve,
    Obs,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Data,
        Layer::Tensor,
        Layer::Nn,
        Layer::Tranad,
        Layer::Evt,
        Layer::Serve,
        Layer::Obs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Data => "data",
            Layer::Tensor => "tensor",
            Layer::Nn => "nn",
            Layer::Tranad => "tranad",
            Layer::Evt => "evt",
            Layer::Serve => "serve",
            Layer::Obs => "obs",
        }
    }
}

pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    probes_from: Option<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
        probes_from: None,
    });
}

/// Starts or stops recording on this thread (all benchmark calls run on
/// the main thread).
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Starts a new request: later spans carry the next request id.
pub fn next_request() {
    TRACER.with(|t| t.borrow_mut().request += 1);
}

/// Runs `f`, recording it as a span of `layer` when tracing is on.
pub fn span<R>(name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        let idx = t.spans.len();
        let (parent, request) = (t.open.last().copied(), t.request);
        t.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        t.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[idx].end_ns = t.origin.elapsed().as_nanos() as u64;
            t.open.pop();
        });
    }
    out
}

/// Marks the end of the workload's own spans: later spans come from the
/// probes of layers the workload does not exercise.
pub fn mark_probes() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.probes_from = Some(t.spans.len());
    });
}

/// Takes every recorded span, leaving the recorder empty, and the index
/// where the probes' spans begin.
pub fn take() -> (Vec<Span>, usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let spans = std::mem::take(&mut t.spans);
        let from = t.probes_from.take().unwrap_or(spans.len());
        (spans, from)
    })
}

/// Each span's self time: its duration minus the time its children cover.
/// Children are nested inside their parent on one thread, so their
/// intervals never overlap one another.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// The per-crate self-time table: span count, total and self time, and
/// the p50/p99 span duration of each crate that has spans.
pub fn layer_table(all: &[Span], range: std::ops::Range<usize>) -> String {
    let own = &self_times(all)[range.clone()];
    let spans = &all[range];
    let mut out = String::new();
    writeln!(
        out,
        "  {:<8} {:>9} {:>11} {:>11} {:>10} {:>10}",
        "crate", "spans", "total_ms", "self_ms", "p50_us", "p99_us"
    )
    .unwrap();
    for layer in Layer::ALL {
        let durs: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        if durs.is_empty() {
            writeln!(
                out,
                "  {:<8} {:>9} {:>11} {:>11} {:>10} {:>10}",
                layer.name(),
                0,
                "-",
                "-",
                "-",
                "-"
            )
            .unwrap();
            continue;
        }
        let self_ns: u64 = spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &o)| o)
            .sum();
        writeln!(
            out,
            "  {:<8} {:>9} {:>11.3} {:>11.3} {:>10.1} {:>10.1}",
            layer.name(),
            durs.len(),
            durs.iter().sum::<f64>() / 1e3,
            self_ns as f64 / 1e6,
            stats::quantile(&durs, 0.5),
            stats::quantile(&durs, 0.99),
        )
        .unwrap();
    }
    out
}

/// Writes spans as JSON lines, one span per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.request
        )
        .unwrap();
    }
    std::fs::write(path, out)
}
