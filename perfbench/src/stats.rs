//! Order statistics over timing samples.

/// The `q`-quantile (`0 <= q <= 1`) of `xs` by linear interpolation between
/// closest ranks; NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs`: the fastest interval of a run, which host
/// interference (it only ever adds time) spared the most.
pub fn min(xs: &[f64]) -> f64 {
    quantile(xs, 0.0)
}

/// The largest of `xs`: the highest rate of a run.
pub fn max(xs: &[f64]) -> f64 {
    quantile(xs, 1.0)
}

/// The tail quantile reported for `n` samples: the highest percentile
/// that still has at least ten samples beyond it. Below 20 samples no
/// percentile above the median qualifies, and the maximum is reported
/// instead.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 1.0;
    }
    1.0 - 10.0 / n as f64
}

/// A label for `tail_quantile(n)`: `p99`, `p98.7` or `max`.
pub fn tail_label(n: usize) -> String {
    let q = tail_quantile(n);
    if q >= 1.0 {
        "max".to_string()
    } else {
        format!("p{}", (q * 10_000.0).floor() / 100.0)
    }
}

/// The tail quantile of `xs` as `tail_quantile` picks it.
pub fn tail(xs: &[f64]) -> f64 {
    quantile(xs, tail_quantile(xs.len()))
}

/// The p99 of `xs`, or `tail` where fewer than 1,000 samples cannot
/// support it.
pub fn p99(xs: &[f64]) -> f64 {
    quantile(xs, tail_quantile(xs.len()).min(0.99))
}
