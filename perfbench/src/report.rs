//! The result of one benchmark run: named metrics with units and sample
//! counts, the pass/fail tally of the correctness checks, output
//! digests, and run metadata. Rendered as a table on stderr, a metadata
//! line on stdout, and the one-line JSON result as the last stdout line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Longest metric name accepted.
pub const MAX_NAME_LEN: usize = 64;

/// Whether `name` is a valid metric or workload name: starts with an
/// ASCII letter or digit, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= MAX_NAME_LEN
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit string (`ms`, `1/s`, `count`, `%`…).
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Measurements behind the value (1 for a single reading or count).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    /// Correctness checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the stderr report.
    failures: Vec<String>,
    /// Per-workload output digests (a changed result changes the digest).
    pub digests: BTreeMap<String, String>,
    /// Free-form notes (the percentile a tail was taken at, …).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric. Panics on an invalid name or unit, or a name used
    /// twice: both are bugs in the benchmark itself.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        let previous = self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// Count one correctness check; a failing one is remembered.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Count `n` operations that all passed (bulk form of [`Report::check`]).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table of every metric with unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::from("| metric | value | unit | samples |\n|---|---:|---|---:|\n");
        for (name, m) in &self.metrics {
            let _ = writeln!(out, "| {name} | {} | {} | {} |", m.value, m.unit, m.samples);
        }
        out
    }

    /// Sample count of every metric, as a JSON object body.
    pub fn samples_json(&self) -> String {
        let parts: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| format!("\"{name}\": {}", m.samples))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// A finite number in full round-trip precision; non-finite values are
/// rendered as `null`, which the result reader rejects.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// 64-bit FNV-1a, the digest used for outputs and the source tree.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "matcher.predict_us_per_pair.logistic",
            "suite.experiment_s.T1",
            "serve.explain_tail_ms.r40",
            "0abc",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a:b",
            "é",
            "a{b}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "share"] {
            assert!(valid_unit(ok));
        }
        for bad in ["", "m s", "ms,", &"u".repeat(17)] {
            assert!(!valid_unit(bad));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.25, "ms", 10);
        r.check(true, String::new);
        let line = r.result_json();
        let doc = em_serve::parse_json(&line).unwrap();
        let em_serve::Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.passed(3);
        r.check(false, || "boom".to_string());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (4, 1));
        assert_eq!(r.failures(), ["boom"]);
        // A run that checked nothing is not correct either.
        assert!(!Report::default().correct());
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_is_a_bug() {
        let mut r = Report::default();
        r.metric("a", 1.0, "s", 1);
        r.metric("a", 2.0, "s", 1);
    }
}
