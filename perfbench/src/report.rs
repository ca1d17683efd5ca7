//! Metrics and the result line: names, units, values, and the JSON object
//! the benchmark prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit, e.g. `s`, `1/s`, `ratio`.
    pub unit: &'static str,
    /// The value as measured, never rounded.
    pub value: f64,
}

/// A metric constructor, for terse metric lists.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Whether `name` is a valid metric name: 1 to 64 letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Result {
    /// Whether every output check passed.
    pub correct: bool,
    /// Simulated accesses attempted over all runs.
    pub attempted: u64,
    /// Accesses in runs that failed an output check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Result {
    /// Renders the one-line JSON object. Values print in Rust's shortest
    /// round-trip form, so no digit is lost; a value that is not finite has
    /// no JSON form and prints as `null`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            let sep = if i == 0 { "" } else { ", " };
            // Names and units are restricted to characters JSON needs no
            // escape for.
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A `kB` field of `/proc/self/status`, e.g. `VmHWM` (peak resident set)
/// or `VmRSS` (current resident set).
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// CPU time this process has used so far, over all its threads, live or
/// ended. Unlike wall time it leaves out the time the process waited for a
/// CPU.
pub fn process_cpu_time() -> Duration {
    cpu_time(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu_time() -> Duration {
    cpu_time(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_time(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec; both clock ids are
    // constants every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(t.sec as u64, t.nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parser for exactly the JSON [`Result::json`] writes.
    struct Parser<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, tok: &str) {
            self.ws();
            assert!(
                self.s[self.at..].starts_with(tok.as_bytes()),
                "expected {tok:?} at byte {}",
                self.at
            );
            self.at += tok.len();
        }

        fn string(&mut self) -> String {
            self.eat("\"");
            let end = self.at + self.s[self.at..].iter().position(|&b| b == b'"').unwrap();
            let out = String::from_utf8(self.s[self.at..end].to_vec()).unwrap();
            self.at = end + 1;
            out
        }

        fn token(&mut self) -> &str {
            self.ws();
            let end = self.at
                + self.s[self.at..]
                    .iter()
                    .position(|&b| b == b',' || b == b'}')
                    .unwrap();
            let out = std::str::from_utf8(&self.s[self.at..end]).unwrap().trim();
            self.at = end;
            out
        }

        fn result(&mut self) -> Result {
            self.eat("{");
            assert_eq!(self.string(), "correct");
            self.eat(":");
            let correct = self.token().parse().unwrap();
            self.eat(",");
            assert_eq!(self.string(), "attempted");
            self.eat(":");
            let attempted = self.token().parse().unwrap();
            self.eat(",");
            assert_eq!(self.string(), "failed");
            self.eat(":");
            let failed = self.token().parse().unwrap();
            self.eat(",");
            assert_eq!(self.string(), "metrics");
            self.eat(":");
            self.eat("{");
            let mut metrics = Vec::new();
            loop {
                self.ws();
                if self.s[self.at] == b'}' {
                    break;
                }
                if !metrics.is_empty() {
                    self.eat(",");
                }
                let name = self.string().leak();
                self.eat(":");
                self.eat("{");
                assert_eq!(self.string(), "value");
                self.eat(":");
                let value = self.token().parse().unwrap();
                self.eat(",");
                assert_eq!(self.string(), "unit");
                self.eat(":");
                let unit = self.string().leak();
                self.eat("}");
                metrics.push(Metric { name, unit, value });
            }
            self.eat("}");
            self.eat("}");
            Result {
                correct,
                attempted,
                failed,
                metrics,
            }
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = Result {
            correct: true,
            attempted: 48_123_456,
            failed: 0,
            metrics: vec![
                metric("host_accesses_per_s", "1/s", 9_123_456.789_012_3),
                metric("setup_s", "s", 0.000_123_456_789),
                metric("chrono-core.on_event_s", "s", 1e-9 / 3.0),
            ],
        };
        let line = r.json();
        assert!(!line.contains('\n'));
        let back = Parser {
            s: line.as_bytes(),
            at: 0,
        }
        .result();
        assert_eq!(back, r, "{line}");
    }

    #[test]
    fn names_are_checked() {
        for ok in ["fmar", "tiered-mem.promoted_pages", "9lives", "a.b_c-d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "a\"b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn peak_rss_is_readable() {
        // The high-water mark only grows, so reading it second bounds the
        // resident set read first even while other tests allocate.
        let rss = status_kb("VmRSS").expect("VmRSS in /proc/self/status");
        let hwm = status_kb("VmHWM").expect("VmHWM in /proc/self/status");
        assert!(hwm >= rss && rss > 0);
    }
}
