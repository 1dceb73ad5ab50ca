//! The `compare` subcommand: two result files against the bounds and
//! directions fixed in `BENCHMARK.json`, one row per (metric, workload).

use crate::json::Json;
use crate::report::repo_root;
use d4py_sync::stats::median;
use std::path::Path;

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method); `None` below two samples.
fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = (n as f64 + 1.0) * q;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        sorted[j - 1] + (pos - j as f64) * (sorted[j] - sorted[j - 1])
    };
    Some((at(0.25), at(0.75)))
}

/// Interquartile range as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) if median(samples) != 0.0 => (q3 - q1) / median(samples).abs(),
        _ => 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The spread within a run is wider than the bound: the data cannot say.
    Unresolved,
}

/// Judges `b` against `a`. `lower_is_better` orients the change; `bound` is
/// the share of `a` by which the metric may worsen.
pub fn judge(a: (f64, f64), b: (f64, f64), lower_is_better: bool, bound: f64) -> Verdict {
    let ((a, spread_a), (b, spread_b)) = (a, b);
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse_by = if lower_is_better { change } else { -change };
    let noise = spread_a.max(spread_b);
    if noise > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{} is a --quick smoke result (or not a result file): it can never be compared",
            path.display()
        ));
    }
    Ok(doc)
}

/// `(median, spread)` of one metric of one workload in a result file.
fn reading(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = doc
        .get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(workload))?
        .get("end_to_end")?
        .get(metric)?;
    let samples: Vec<f64> = m
        .get("samples")?
        .as_arr()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some((m.get("value")?.as_f64()?, spread(&samples)))
}

/// Prints the comparison; `Ok(false)` when any pair is worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let spec = load_spec()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    let mut any_worse = false;
    for w in spec.get("workloads").map_or(&[][..], Json::as_arr) {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("");
        for m in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(ra), Some(rb)) =
                (reading(&a, workload, metric), reading(&b, workload, metric))
            else {
                continue;
            };
            let verdict = judge(ra, rb, field("better") == "lower", bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<24} {metric:<18} {:>14.4} {:>14.4} {:>+8.1}% {:>7.1}% {:>6.0}%  {}",
                ra.0,
                rb.0,
                (rb.0 - ra.0) / ra.0 * 100.0,
                ra.1.max(rb.1) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within-bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(!any_worse)
}

fn load_spec() -> Result<Json, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(spread(&xs), 1.0);
        assert_eq!(spread(&[4.2]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let quiet = |x: f64| (x, 0.01);
        assert_eq!(judge(quiet(100.0), quiet(120.0), true, 0.1), Verdict::Worse);
        assert_eq!(
            judge(quiet(100.0), quiet(120.0), false, 0.1),
            Verdict::Better
        );
        assert_eq!(
            judge(quiet(100.0), quiet(105.0), true, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(quiet(100.0), quiet(99.5), true, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(judge(quiet(100.0), quiet(80.0), true, 0.1), Verdict::Better);
        assert_eq!(
            judge((100.0, 0.3), quiet(130.0), true, 0.1),
            Verdict::Unresolved
        );
    }
}
