//! The result line and the provenance line a run prints.

use bgp_sim::json::escape;

use crate::Tally;

/// Named metrics with units, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// `(name, value, unit)` in measurement order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Whether `s` is a valid metric or workload name: a letter or digit, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
/// A run is correct when no op failed and every metric is a finite number
/// (a non-finite one is written as `null`).
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                escape(name),
                escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// A `{"provenance": {...}}` line from string pairs.
pub fn provenance_line(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", escape(k), escape(v)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_naming_rule() {
        for ok in ["svc_small", "lat_p50_us", "server.svc_mixed.jain", "a-b.9"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "svc/small", ".x", "has space", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_parses_and_flags_failures() {
        let mut m = Metrics::default();
        m.push("ops_per_s", 1234.5678, "1/s");
        m.push("setup_s", 0.25, "s");
        let line = result_line(
            Tally {
                attempted: 10,
                failed: 0,
            },
            &m,
        );
        let v = bgp_sim::json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&bgp_sim::json::Json::Bool(true)));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(10.0));
        let ops = v.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));

        let line = result_line(
            Tally {
                attempted: 10,
                failed: 1,
            },
            &m,
        );
        let v = bgp_sim::json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&bgp_sim::json::Json::Bool(false)));
        m.push("broken", f64::NAN, "s");
        let v = bgp_sim::json::parse(&result_line(
            Tally {
                attempted: 1,
                failed: 0,
            },
            &m,
        ))
        .unwrap();
        assert_eq!(v.get("correct"), Some(&bgp_sim::json::Json::Bool(false)));
    }
}
