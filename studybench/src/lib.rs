//! # studybench
//!
//! The repository benchmark. `studybench` times the programs users run —
//! the `repro` binary and the `serve` daemon, each in its own process —
//! and checks their output; `studybench-trace` is the traced run, which
//! drives one study through the layers' public functions with a span
//! around each call and reports exclusive self time per layer. See
//! `README.md` in this directory for the workloads and metrics.

pub mod load;
pub mod procs;
pub mod spans;
pub mod stats;
pub mod study;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: String,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    /// `metric name value unit`, the line format `studybench-trace`
    /// hands its layer metrics over in.
    pub fn to_line(&self) -> String {
        format!("metric {} {} {}", self.name, self.value, self.unit)
    }

    /// Parses [`Metric::to_line`] output; `None` for any other line.
    pub fn from_line(line: &str) -> Option<Metric> {
        let mut words = line.strip_prefix("metric ")?.split(' ');
        let (name, value, unit) = (words.next()?, words.next()?, words.next()?);
        Some(Metric::new(name, value.parse().ok()?, unit))
    }
}

/// The result line the benchmark prints last: a JSON object with the
/// run's verdict, operation counts and metrics. Values print with every
/// digit `f64` holds; a value that is not finite prints as 0.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// 64-bit FNV-1a, the digest wide-web's report is checked against.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::new("capture.crawl_ms", 1234.5678, "ms");
        assert_eq!(Metric::from_line(&m.to_line()), Some(m));
        assert_eq!(Metric::from_line("layer bench.study 1 2 3"), None);
    }

    #[test]
    fn the_result_line_is_json_with_full_digits() {
        let metrics = [
            Metric::new("study_s", 4.123456789, "s"),
            Metric::new("x", f64::NAN, "ms"),
        ];
        assert_eq!(
            result_json(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"study_s\": {\"value\": 4.123456789, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        let tiny = result_json(true, 1, 0, &[Metric::new("t", 1e-7, "s")]);
        assert!(
            tiny.contains("0.0000001"),
            "never exponent notation: {tiny}"
        );
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
