//! `--compare PARENT CHANGE`: judges a change's runs against its
//! parent's, per (workload, end-to-end metric), with the bounds in
//! `BENCHMARK.json`.
//!
//! Both files hold one result object per line, as `--out` appends them.
//! Runs pair up in file order. A verdict is:
//!
//! - **improved**: the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ, in its favour, by
//!   more than the parent's own spread (its interquartile range);
//! - **unresolved**: the parent's spread is wider than the bound, unless
//!   every change run reads better than every parent run;
//! - **regressed**: the change's median is worse than the parent's by more
//!   than the bound;
//! - **unchanged**: otherwise.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{median, quartiles};

/// One end-to-end metric's contract from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The runs of one side, grouped by workload.
#[derive(Default)]
struct Side {
    runs: BTreeMap<String, Vec<BTreeMap<String, f64>>>,
    attempted: u64,
    failed: u64,
}

fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let Some(Value::Seq(metrics)) = get(&doc, "end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            let name = match get(m, "name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("{path}: end_to_end entry without a name")),
            };
            let lower_is_better = matches!(get(m, "better"), Some(Value::Str(s)) if s == "lower");
            let bound = get(m, "bound")
                .and_then(num)
                .ok_or_else(|| format!("{path}: {name} has no bound"))?;
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let Some(Value::Str(workload)) = get(&run, "workload") else {
            return Err(format!("{path}:{}: no workload", n + 1));
        };
        side.attempted += get(&run, "attempted").and_then(num).unwrap_or(0.0) as u64;
        side.failed += get(&run, "failed").and_then(num).unwrap_or(0.0) as u64;
        let mut values = BTreeMap::new();
        if let Some(Value::Map(metrics)) = get(&run, "metrics") {
            for (name, m) in metrics {
                if let Some(x) = get(m, "value").and_then(num) {
                    values.insert(name.clone(), x);
                }
            }
        }
        side.runs.entry(workload.clone()).or_default().push(values);
    }
    Ok(side)
}

/// The verdict for one metric's runs (see the module docs).
fn verdict(parent: &[f64], change: &[f64], b: &Bound) -> &'static str {
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return "unresolved";
    };
    let better = |a: f64, than: f64| {
        if b.lower_is_better {
            a < than
        } else {
            a > than
        }
    };
    let iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let dominates = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse = if b.lower_is_better { cm - pm } else { pm - cm };
    let worse_share = worse / pm.abs();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > iqr {
        "improved"
    } else if iqr / pm.abs() > b.bound && !dominates {
        "unresolved"
    } else if worse_share > b.bound {
        "regressed"
    } else {
        "unchanged"
    }
}

/// Prints one verdict line per (workload, metric) pair and each side's
/// failure share. Returns whether nothing regressed and the change
/// failed no more operations than the parent.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn run(parent_path: &str, change_path: &str, benchmark: &str) -> Result<bool, String> {
    let bounds = read_bounds(benchmark)?;
    let parent = read_side(parent_path)?;
    let change = read_side(change_path)?;
    let mut ok = true;
    println!("workload metric parent_median change_median change verdict");
    for (workload, p_runs) in &parent.runs {
        let Some(c_runs) = change.runs.get(workload) else {
            continue;
        };
        for b in &bounds {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&b.name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = verdict(&p, &c, b);
            ok &= v != "regressed";
            let (pm, cm) = (median(&p).unwrap_or(0.0), median(&c).unwrap_or(0.0));
            println!(
                "{workload} {} {pm:.6} {cm:.6} {:+.2}% {v}",
                b.name,
                (cm - pm) / pm.abs() * 100.0
            );
        }
    }
    let share = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
    println!(
        "failed/attempted: parent {}/{} ({:.4}), change {}/{} ({:.4})",
        parent.failed,
        parent.attempted,
        share(&parent),
        change.failed,
        change.attempted,
        share(&change)
    );
    Ok(ok && share(&change) <= share(&parent))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "t".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &faster, &lower(0.08)), "improved");
        assert_eq!(verdict(&parent, &slower, &lower(0.08)), "regressed");
        assert_eq!(verdict(&parent, &same, &lower(0.08)), "unchanged");
        let noisy = [5.0, 15.0, 5.0, 15.0, 10.0];
        assert_eq!(verdict(&noisy, &noisy, &lower(0.08)), "unresolved");
    }
}
