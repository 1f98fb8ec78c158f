//! `--compare A.json B.json`: is B (the change, or a second set of runs of
//! the same commit) no worse than A (the parent) on every pairing of
//! workload and end-to-end metric?
//!
//! Both files are results files written by `--all`. Each pairing is judged
//! on its own; there is no combined score.

use crate::json::Value;
use crate::spec::{Better, END_TO_END};
use crate::stats::{median, spread_share};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// settle it either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a_median: f64,
    pub b_median: f64,
    /// Share of A's median by which B is worse; negative when B is better.
    pub worse_by: f64,
    /// The wider of the two sides' interquartile distance over its median;
    /// 0 when a side has a single run.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one pairing from the values of A's runs and B's runs.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (a_median, b_median) = (median(a), median(b));
    let toward_worse = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = toward_worse * (b_median - a_median) / a_median.abs();
    let spread_of = |xs: &[f64]| if xs.len() > 1 { spread_share(xs) } else { 0.0 };
    let spread = spread_of(a).max(spread_of(b));

    // With the spread wider than the bound the medians decide nothing,
    // unless the two sides do not overlap at all.
    let every_b_vs_every_a = |wins: fn(f64, f64) -> bool| {
        b.iter()
            .all(|&y| a.iter().all(|&x| wins(toward_worse * y, toward_worse * x)))
    };
    let verdict = if !worse_by.is_finite() {
        Verdict::Worse
    } else if spread > bound {
        if every_b_vs_every_a(|y, x| y < x) {
            Verdict::Ok
        } else if every_b_vs_every_a(|y, x| y > x) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// The values of one end-to-end metric over a file's runs of one workload.
fn values_of(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn workloads_of(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not a results file: no \"workloads\" array".to_string())
}

/// One row per (workload of A, end-to-end metric). A pairing that B lacks is
/// an error: a metric that stopped being reported is not "no worse".
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in workloads_of(a)? {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let wb = workloads_of(b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("{name}: missing from the second file"))?;
        for m in END_TO_END {
            let side = |w: &Value, which: &str| {
                values_of(w, m.name)
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{name}: {} missing from the {which} file", m.name))
            };
            let (va, vb) = (side(wa, "first")?, side(wb, "second")?);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (worse_by, spread, verdict) = judge(&va, &vb, m.better, bound);
            rows.push(Row {
                workload: name.to_string(),
                metric: m.name,
                unit: m.unit,
                a_median: median(&va),
                b_median: median(&vb),
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:<5} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "unit", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<20} {:<24} {:>14.6} {:>14.6} {:<5} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a_median,
            r.b_median,
            r.unit,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        // lower is better: 4% slower is inside a 10% bound
        assert_eq!(judge(&[1.0], &[1.04], Better::Lower, 0.10).2, Verdict::Ok);
        // higher is better: 4% less throughput is inside the bound too
        assert_eq!(
            judge(&[100.0], &[96.0], Better::Higher, 0.10).2,
            Verdict::Ok
        );
        // better is always ok
        assert_eq!(judge(&[1.0], &[0.5], Better::Lower, 0.10).2, Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[150.0], Better::Higher, 0.10).2,
            Verdict::Ok
        );
    }

    #[test]
    fn past_the_bound_is_worse_and_the_sign_follows_the_direction() {
        let (worse_by, _, verdict) = judge(&[1.0], &[1.2], Better::Lower, 0.10);
        assert!((worse_by - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Worse);
        let (worse_by, _, verdict) = judge(&[100.0], &[80.0], Better::Higher, 0.10);
        assert!((worse_by - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Worse);
        // exact counts: any drift past a tight bound is caught
        assert_eq!(
            judge(&[10.10], &[9.9], Better::Higher, 0.005).2,
            Verdict::Worse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_the_sides_do_not_overlap() {
        let noisy_a = [1.0, 1.3, 0.8, 1.1, 0.9];
        let noisy_b = [1.05, 1.25, 0.85, 1.15, 0.95];
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Lower, 0.10).2,
            Verdict::Unresolved
        );
        // every run of B better than every run of A: ok despite the spread
        let fast_b = [0.5, 0.6, 0.4, 0.55, 0.45];
        assert_eq!(judge(&noisy_a, &fast_b, Better::Lower, 0.10).2, Verdict::Ok);
        // every run of B worse than every run of A, past the bound: worse
        let slow_b = [2.0, 2.6, 1.6, 2.2, 1.8];
        assert_eq!(
            judge(&noisy_a, &slow_b, Better::Lower, 0.10).2,
            Verdict::Worse
        );
    }

    #[test]
    fn a_metric_that_vanished_or_broke_is_not_ok() {
        assert_eq!(
            judge(&[1.0], &[f64::NAN], Better::Lower, 0.10).2,
            Verdict::Worse
        );
    }

    fn results(round_s: &[f64]) -> Value {
        let fields: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let values = if m.name == "round_s" {
                    round_s.to_vec()
                } else {
                    vec![2.0]
                };
                let text: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                format!("\"{}\": {{\"values\": [{}]}}", m.name, text.join(","))
            })
            .collect();
        json::parse(&format!(
            "{{\"workloads\": [{{\"name\": \"server_ingest\", \"end_to_end\": {{{}}}}}]}}",
            fields.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn compare_walks_every_pairing_of_hand_made_files() {
        let rows = compare(&results(&[0.70, 0.71, 0.69]), &results(&[0.90, 0.91, 0.89])).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for r in &rows {
            let expected = if r.metric == "round_s" {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            assert_eq!(r.verdict, expected, "{}", r.metric);
        }
        let same = compare(&results(&[0.70]), &results(&[0.70])).unwrap();
        assert!(same
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
    }

    #[test]
    fn a_pairing_missing_from_the_second_file_is_an_error() {
        let empty = json::parse("{\"workloads\": []}").unwrap();
        assert!(compare(&results(&[0.7]), &empty)
            .unwrap_err()
            .contains("missing"));
        assert!(compare(&empty, &json::parse("{}").unwrap()).is_ok_and(|rows| rows.is_empty()));
        assert!(compare(&json::parse("{}").unwrap(), &empty).is_err());
    }
}
