//! `perfbench compare <dir A> <dir B> [<BENCHMARK.json>]`: reads two sets of
//! saved runs and prints, for each (workload, metric), each side's median
//! and quartiles. Each run's standard output (its last line is the result)
//! is a file named `<workload>-<anything>.json`; other files are ignored. A metric is flagged only
//! when B's median is worse than A's by more than the metric's `bound` in
//! `BENCHMARK.json` (default path: the working directory). Metrics without a
//! bound (the per-layer ones) are shown, never flagged. Exit code 1 when
//! anything is flagged.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use ph_server::Json;

use crate::stats::quartiles;

/// (workload, metric) → values, plus each metric's unit.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path, units: &mut BTreeMap<String, String>) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let (Some((workload, _)), true) = (name.split_once('-'), name.ends_with(".json")) else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or_default();
        let doc = Json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{name}: no metrics"))?;
        for (metric, v) in metrics {
            let Some(value) = v.get("value").and_then(Json::as_f64) else {
                continue;
            };
            if let Some(unit) = v.get("unit").and_then(Json::as_str) {
                units.insert(metric.clone(), unit.to_string());
            }
            runs.entry((workload.to_string(), metric.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// metric → (bound, lower is better), from `BENCHMARK.json`'s `end_to_end`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let (Some(name), Some(bound), Some(better)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
            m.get("better").and_then(Json::as_str),
        ) else {
            return Err(format!("malformed end_to_end entry in {}", path.display()));
        };
        out.insert(name.to_string(), (bound, better == "lower"));
    }
    Ok(out)
}

pub fn main(args: &[String]) -> ExitCode {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        eprintln!("usage: perfbench compare <dir A> <dir B> [<BENCHMARK.json>]");
        return ExitCode::from(2);
    };
    let bench = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let mut units = BTreeMap::new();
    let loaded = (|| {
        Ok::<_, String>((
            load(Path::new(a), &mut units)?,
            load(Path::new(b), &mut units)?,
            bounds(Path::new(bench))?,
        ))
    })();
    let (runs_a, runs_b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<10} {:<32} {:>6} | {:>12} {:>12} {:>12} {:>7} | {:>12} {:>12} {:>12} {:>7} | {:>8} {:>6}",
        "workload", "metric", "unit", "A q1", "A median", "A q3", "A iqr%", "B q1", "B median", "B q3", "B iqr%",
        "B vs A", "bound"
    );
    let mut flagged = 0;
    for (key, va) in &runs_a {
        let Some(vb) = runs_b.get(key) else { continue };
        let (Some(qa), Some(qb)) = (quartiles(va), quartiles(vb)) else {
            continue;
        };
        let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs() * 100.0;
        let change = (qb.1 - qa.1) / qa.1.abs();
        let (bound, flag) = match bounds.get(&key.1) {
            Some(&(bound, lower_better)) => {
                let worse = if lower_better { change } else { -change };
                (
                    format!("{:.0}%", bound * 100.0),
                    if worse > bound { " WORSE" } else { "" },
                )
            }
            None => ("-".to_string(), ""),
        };
        if !flag.is_empty() {
            flagged += 1;
        }
        println!(
            "{:<10} {:<32} {:>6} | {:>12.5} {:>12.5} {:>12.5} {:>6.1}% | {:>12.5} {:>12.5} {:>12.5} {:>6.1}% | {:>+7.1}% {:>6}{flag}",
            key.0,
            key.1,
            units.get(&key.1).map_or("", String::as_str),
            qa.0,
            qa.1,
            qa.2,
            spread(qa),
            qb.0,
            qb.1,
            qb.2,
            spread(qb),
            change * 100.0,
            bound
        );
    }
    println!("{flagged} metric(s) worse than their bound");
    if flagged > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
