//! `bench-e2e compare SET_A SET_B`: judge set B's untraced runs against set
//! A's, workload by workload and metric by metric.

use crate::json::Json;
use crate::stats::{verdict, Summary};
use std::path::Path;
use std::process::ExitCode;

struct Run {
    file: String,
    workload: String,
    provenance: Json,
    metrics: Json,
}

/// The untraced result files in `dir`.
fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let field = |k: &str| {
            doc.get(k)
                .cloned()
                .ok_or(format!("{}: no {k}", path.display()))
        };
        runs.push(Run {
            file: path.display().to_string(),
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            provenance: field("provenance")?,
            metrics: field("metrics")?,
        });
    }
    if runs.is_empty() {
        return Err(format!("{} holds no untraced result files", dir.display()));
    }
    Ok(runs)
}

/// The first provenance field, other than the commit, in which `a` and `b`
/// differ.
fn provenance_difference(a: &Json, b: &Json) -> Option<String> {
    let (Json::Obj(fa), Json::Obj(fb)) = (a, b) else {
        return (a != b).then(|| "provenance".into());
    };
    let keys = fa.iter().chain(fb).map(|(k, _)| k.as_str());
    keys.filter(|k| *k != "commit")
        .find(|k| a.get(k) != b.get(k))
        .map(str::to_string)
}

pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    let first = &set_a[0];
    for run in set_a.iter().chain(&set_b) {
        if let Some(field) = provenance_difference(&first.provenance, &run.provenance) {
            return Err(format!(
                "refusing to compare: {} and {} differ in provenance field {field}",
                first.file, run.file
            ));
        }
    }
    let (end_to_end, _) = crate::metrics::declared()?;
    println!("workload metric A:median[q1,q3] B:median[q1,q3] change bound verdict");
    for kind in crate::workload::ALL {
        let of = |set: &[Run], metric: &str| -> Vec<f64> {
            set.iter()
                .filter(|r| r.workload == kind.name())
                .filter_map(|r| r.metrics.get(metric)?.get("value")?.as_f64())
                .collect()
        };
        for (name, unit, higher_is_better, bound) in &end_to_end {
            let (va, vb) = (of(&set_a, name), of(&set_b, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = bound.ok_or(format!("{name} has no bound"))?;
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            println!(
                "{} {name} A:{:.4}[{:.4},{:.4}] B:{:.4}[{:.4},{:.4}] {:+.2}% {:.0}% {} ({unit}, runs {}/{})",
                kind.name(),
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                (sb.median / sa.median - 1.0) * 100.0,
                bound * 100.0,
                verdict(&va, &vb, bound, *higher_is_better).name(),
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_may_differ_only_in_the_commit() {
        let p = |commit: &str, seed: f64| {
            Json::obj([
                ("commit", Json::str(commit)),
                ("seed", Json::Num(seed)),
                ("nproc", Json::Num(2.0)),
            ])
        };
        assert_eq!(provenance_difference(&p("a", 1.0), &p("b", 1.0)), None);
        assert_eq!(
            provenance_difference(&p("a", 1.0), &p("a", 2.0)),
            Some("seed".into())
        );
    }
}
