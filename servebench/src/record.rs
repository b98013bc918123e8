//! Per-answer records, the failure taxonomy, and the statistics the
//! end-to-end metrics are computed with.

use std::collections::BTreeMap;

/// How one attempted answer ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered within tolerance of the exact value.
    Correct,
    /// The solver reported a singular MNA system.
    Singular,
    /// State iteration ran out of its budget (or a transient never settled).
    Diverged,
    /// Answered, but outside tolerance of the exact value.
    WrongAnswer,
    /// Connection, framing or malformed-response failure.
    Transport,
    /// No answer within the workload's latency limit.
    Timeout,
    /// Any other error the program reported.
    Other,
}

impl Outcome {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Correct => "correct",
            Outcome::Singular => "singular",
            Outcome::Diverged => "diverged",
            Outcome::WrongAnswer => "wrong_answer",
            Outcome::Transport => "transport",
            Outcome::Timeout => "timeout",
            Outcome::Other => "other",
        }
    }

    /// Classifies an error message the program reported.
    pub fn from_error(message: &str) -> Outcome {
        let m = message.to_ascii_lowercase();
        if m.contains("singular") {
            Outcome::Singular
        } else if m.contains("diverged") || m.contains("did not settle") {
            Outcome::Diverged
        } else {
            Outcome::Other
        }
    }
}

/// Relative tolerance of ideal-configuration answers against the exact
/// max flow (the substrate's own error at adequate drive is about 1e-4).
pub const IDEAL_TOLERANCE: f64 = 0.01;

/// Whether `value` is within `tol` of `reference` (relative, with the
/// reference floored at one flow unit so a zero max flow still has a scale).
pub fn within(value: f64, reference: f64, tol: f64) -> bool {
    value.is_finite() && (value - reference).abs() <= tol * reference.abs().max(1.0)
}

/// One attempted answer.
#[derive(Debug, Clone)]
pub struct Record {
    /// Client-side latency (seconds).
    pub latency_s: f64,
    /// Verdict.
    pub outcome: Outcome,
    /// Graph family label (per-shape failure table).
    pub class: &'static str,
    /// State iterations the program reported (0 when none).
    pub iterations: u64,
    /// Whether the answer rode a cached plan.
    pub templated: bool,
    /// The input answered: (caller list or session, position in it).
    pub input: (usize, usize),
    /// Time the exact CPU solver took on the same graph, measured right
    /// after the answer (seconds; NaN where not measured).
    pub baseline_s: f64,
}

impl Record {
    /// An answer that has not arrived (yet): a `transport` failure of the
    /// given latency and graph family.
    pub fn transport(latency_s: f64, class: &'static str) -> Self {
        Record {
            latency_s,
            outcome: Outcome::Transport,
            class,
            iterations: 0,
            templated: false,
            input: (0, 0),
            baseline_s: f64::NAN,
        }
    }
}

/// Every percentile the tail is chosen from.
const TAIL_GRID: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99];

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest grid percentile with at least ten samples beyond it.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_GRID
        .iter()
        .copied()
        .rev()
        .find(|p| (samples as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Failure counts by class and by graph family.
pub fn failure_table(records: &[Record]) -> BTreeMap<(&'static str, &'static str), usize> {
    let mut table = BTreeMap::new();
    for r in records {
        *table.entry((r.class, r.outcome.name())).or_insert(0) += 1;
    }
    table
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Clock ticks per second of `/proc` CPU times (100 on every Linux
/// architecture the workspace targets).
const USER_HZ: f64 = 100.0;

/// The process's resident-memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
