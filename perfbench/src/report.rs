//! Metric lines and the final JSON result line.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` and `METRICS.md`.
    pub name: &'static str,
    /// The measured (or computed) value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Prints one human-readable line per metric, the failed/attempted
/// count, and — as the last line of standard output — the JSON result.
pub fn print(metrics: &[Metric], attempted: usize, failed: usize) {
    for m in metrics {
        println!(
            "{:<38} {:>14.6e} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("requests: {failed} failed of {attempted} attempted");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
}
