//! `compare A.json B.json`: per workload × end-to-end metric, is B the
//! same as, better or worse than A by the bound `BENCHMARK.json` fixes —
//! or is the run-to-run spread too wide to tell.

use crate::gen::Workload;
use crate::spec::{MetricDef, Spec};
use crate::stats::{median, spread};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The spread of either side exceeds the bound, or the generator ran
    /// late: the numbers cannot carry a verdict.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub base: f64,
    pub new: f64,
    /// Widest interquartile spread of the two sides, as a share of the
    /// median; `None` with fewer than two runs a side.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

pub fn judge(def: &MetricDef, base: &[f64], new: &[f64], generator_late: bool) -> Row {
    let bound = def.bound.expect("end-to-end metrics have a bound");
    let (b, n) = (median(base), median(new));
    let widest = (base.len() >= 2 && new.len() >= 2).then(|| spread(base).max(spread(new)));
    let worse_by = if def.higher_is_better { b - n } else { n - b } / b;
    let verdict = if generator_late || widest.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        base: b,
        new: n,
        spread: widest,
        verdict,
    }
}

/// Metrics of the `paced` phase, which a late generator invalidates.
fn is_paced(name: &str) -> bool {
    name.starts_with("op_p") || name.starts_with("flow_p")
}

fn untraced_runs(doc: &Value, workload: Workload) -> Vec<&Value> {
    doc["runs"]
        .as_array()
        .map(|runs| {
            runs.iter()
                .filter(|r| r["workload"] == workload.name() && r["trace"] == 0)
                .collect()
        })
        .unwrap_or_default()
}

fn values(runs: &[&Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

/// Print the comparison; returns whether any row is `worse`.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> bool {
    let mut any_worse = false;
    println!(
        "{:<15} {:<14} {:>12} {:>12} {:>16} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio (new/base)", "spread", "bound"
    );
    for workload in Workload::ALL {
        let (runs_a, runs_b) = (untraced_runs(a, workload), untraced_runs(b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        let late = runs_a
            .iter()
            .chain(&runs_b)
            .any(|r| r["health"]["paced_unresolved"] == true);
        for def in &spec.end_to_end {
            let (va, vb) = (values(&runs_a, &def.name), values(&runs_b, &def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(def, &va, &vb, late && is_paced(&def.name));
            any_worse |= row.verdict == Verdict::Worse;
            println!(
                "{:<15} {:<14} {:>12.4} {:>12.4} {:>9.3} of {:<4} {:>7} {:>6.0}%  {}",
                workload.name(),
                def.name,
                row.base,
                row.new,
                row.new / row.base,
                def.unit,
                row.spread
                    .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                def.bound.unwrap_or(0.0) * 100.0,
                row.verdict.label(),
            );
        }
    }
    any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = def(false, 0.10);
        let tight = [10.0, 10.1, 9.9, 10.0];
        let v = |new: &[f64]| judge(&lower, &tight, new, false).verdict;
        assert_eq!(v(&[10.5, 10.6, 10.4, 10.5]), Verdict::Same);
        assert_eq!(v(&[11.5, 11.6, 11.4, 11.5]), Verdict::Worse);
        assert_eq!(v(&[8.5, 8.6, 8.4, 8.5]), Verdict::Better);
        // A side whose own runs disagree by more than the bound decides nothing.
        assert_eq!(v(&[8.0, 12.0, 9.0, 13.0]), Verdict::Unresolved);
        // Higher-is-better flips the direction.
        let higher = def(true, 0.10);
        let j = |new: &[f64]| judge(&higher, &tight, new, false).verdict;
        assert_eq!(j(&[11.5, 11.5]), Verdict::Better);
        assert_eq!(j(&[8.5, 8.5]), Verdict::Worse);
        // One run a side: no spread to test, the medians still decide.
        let single = judge(&lower, &[10.0], &[12.0], false);
        assert!(single.spread.is_none());
        assert_eq!(single.verdict, Verdict::Worse);
        // A late generator voids the row whatever the numbers say.
        assert_eq!(
            judge(&lower, &tight, &tight, true).verdict,
            Verdict::Unresolved
        );
    }
}
