//! A minimal, dependency-free timing harness for the `benches/` binaries.
//!
//! The workspace builds hermetically offline, so the benches are plain
//! `fn main()` binaries (`harness = false`) timed with [`std::time::Instant`]
//! instead of an external benchmark crate.  Each measurement does one
//! warm-up call, then samples the closure until either `SAMPLES` runs or
//! the time budget is spent, and prints min/median/mean wall times.
//! [`json_number`] reads the committed results files the `--check` gates
//! compare against.

use std::time::{Duration, Instant};

/// Samples collected per measurement (upper bound; see [`BUDGET`]).
pub const SAMPLES: usize = 10;

/// Wall-clock budget per measurement.
pub const BUDGET: Duration = Duration::from_secs(3);

/// Times `f`, printing `name: min …, median …, mean … (n samples)`.
///
/// The closure's result is passed through [`std::hint::black_box`] so the
/// optimizer cannot delete the work.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let _ = std::hint::black_box(f()); // warm-up (fills caches, JITs nothing)
    let start = Instant::now();
    let mut samples: Vec<Duration> = Vec::with_capacity(SAMPLES);
    while samples.len() < SAMPLES && (samples.is_empty() || start.elapsed() < BUDGET) {
        let t0 = Instant::now();
        let _ = std::hint::black_box(f());
        samples.push(t0.elapsed());
    }
    samples.sort();
    let n = samples.len();
    let min = samples[0];
    let median = samples[n / 2];
    let mean = samples.iter().sum::<Duration>() / n as u32;
    println!(
        "bench {name}: min {}, median {}, mean {} ({n} samples)",
        fmt(min),
        fmt(median),
        fmt(mean)
    );
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Pulls `"key": <number>` out of a flat JSON object without a JSON
/// dependency (the results files are machine-written, flat, and ours).
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        // Just exercise the path; timing itself is not asserted.
        bench("noop", || 1 + 1);
    }

    #[test]
    fn durations_format_in_sane_units() {
        assert_eq!(fmt(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt(Duration::from_micros(12)), "12.000 µs");
        assert_eq!(fmt(Duration::from_millis(12)), "12.000 ms");
        assert_eq!(fmt(Duration::from_secs(12)), "12.000 s");
    }

    #[test]
    fn json_number_reads_flat_keys() {
        let text = "{\n  \"schema\": \"v3\",\n  \"a_eps\": 12.5,\n  \"b\" : -3e2,\n  \"n\": 7\n}\n";
        assert_eq!(json_number(text, "a_eps"), Some(12.5));
        assert_eq!(json_number(text, "b"), Some(-300.0));
        assert_eq!(json_number(text, "n"), Some(7.0));
        assert_eq!(json_number(text, "schema"), None, "strings are not numbers");
        assert_eq!(json_number(text, "missing"), None);
    }
}
