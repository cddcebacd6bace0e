//! Result files and the three reports built from them: `compare`,
//! the calibration table, and the traced run's separation report.
//!
//! A result file holds, per workload and metric, the values of one or
//! more runs (one per seed):
//! `{"label", "seconds", "seeds": [..], "workloads": {name: {"end_to_end": {metric: [..]}, "per_layer": {..}}}}`.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats;
use crate::workload::WORKLOADS;
use std::fmt::Write as _;
use std::path::Path;

/// Values of every run, by workload then metric.
#[derive(Clone, Debug, Default)]
pub struct ResultSet {
    pub label: String,
    pub seconds: u64,
    pub seeds: Vec<u64>,
    /// `(workload, end_to_end, per_layer)`, each a list of
    /// `(metric, values over runs)`.
    pub workloads: Vec<(String, Series, Series)>,
}

pub type Series = Vec<(String, Vec<f64>)>;

fn series_json(s: &Series) -> Json {
    Json::Obj(
        s.iter()
            .map(|(k, v)| (k.clone(), Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())))
            .collect(),
    )
}

fn series_from(j: Option<&Json>) -> Series {
    j.and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| {
            (k.clone(), v.as_arr().unwrap_or_default().iter().filter_map(Json::as_f64).collect())
        })
        .collect()
}

impl ResultSet {
    /// Appends one run's values for `workload`.
    pub fn push(
        &mut self,
        workload: &str,
        end_to_end: &[(String, f64)],
        per_layer: &[(String, f64)],
    ) {
        if !self.workloads.iter().any(|(w, _, _)| w == workload) {
            self.workloads.push((workload.to_string(), Vec::new(), Vec::new()));
        }
        let entry =
            self.workloads.iter_mut().find(|(w, _, _)| w == workload).expect("just inserted");
        for (series, values) in [(&mut entry.1, end_to_end), (&mut entry.2, per_layer)] {
            for (name, v) in values {
                match series.iter_mut().find(|(n, _)| n == name) {
                    Some(slot) => slot.1.push(*v),
                    None => series.push((name.clone(), vec![*v])),
                }
            }
        }
    }

    pub fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.workloads
            .iter()
            .find(|(w, _, _)| w == workload)
            .and_then(|(_, e, p)| e.iter().chain(p.iter()).find(|(n, _)| n == metric))
            .map_or(&[], |(_, v)| v.as_slice())
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let doc = Json::obj([
            ("label", Json::Str(self.label.clone())),
            ("seconds", Json::Num(self.seconds as f64)),
            ("seeds", Json::Arr(self.seeds.iter().map(|&s| Json::Num(s as f64)).collect())),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(w, e, p)| {
                            (
                                w.clone(),
                                Json::obj([
                                    ("end_to_end", series_json(e)),
                                    ("per_layer", series_json(p)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.write() + "\n")
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self {
            label: doc.get("label").and_then(Json::as_str).unwrap_or_default().to_string(),
            seconds: doc.get("seconds").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            seeds: doc
                .get("seeds")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|s| s.as_f64().map(|s| s as u64))
                .collect(),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{}: no \"workloads\"", path.display()))?
                .iter()
                .map(|(w, v)| {
                    (w.clone(), series_from(v.get("end_to_end")), series_from(v.get("per_layer")))
                })
                .collect(),
        })
    }
}

/// The regression bounds `BENCHMARK.json` fixes, by metric name.
pub fn load_bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"end_to_end\"", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread wider than the bound: neither claim holds.
    Unresolved,
}

/// `b` against `a` under the rule of the metrics guide: `b`'s median
/// may not be worse than `a`'s by more than `bound` (a share of
/// `a`'s median); where either side's inter-quartile spread exceeds
/// the bound the pair is unresolved, not unchanged.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let wide = |v: &[f64]| v.len() >= 2 && stats::spread(v) > bound;
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One row per (workload, end-to-end metric). Returns the table and
/// whether any row is worse.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &[(String, f64)]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    writeln!(
        out,
        "{:<16} {:<14} {:>14} {:>14} {:>22} {:>7}  verdict",
        "workload",
        "metric",
        format!("{} (a)", a.label),
        format!("{} (b)", b.label),
        "b/a",
        "bound"
    )
    .expect("write to String");
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let (va, vb) = (a.values(w.name, d.name), b.values(w.name, d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = bounds.iter().find(|(n, _)| n == d.name).map_or(0.0, |(_, b)| *b);
            let verdict = judge(va, vb, d.better, bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(va), stats::median(vb));
            writeln!(
                out,
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>22} {:>6.0}%  {}",
                w.name,
                d.name,
                ma,
                mb,
                format!("{:.3} of {:.4} {}", mb / ma, ma, d.unit),
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            )
            .expect("write to String");
        }
    }
    (out, any_worse)
}

/// Markdown table of every (workload, end-to-end metric): the five
/// numbers, the spread as the driver computes it, and the bound.
pub fn calibration_table(set: &ResultSet, bounds: &[(String, f64)]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "| workload | metric | unit | min | q1 | median | q3 | max | spread (q3-q1)/median | bound | spread/bound |\n|---|---|---|---|---|---|---|---|---|---|---|"
    )
    .expect("write to String");
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let v = set.values(w.name, d.name);
            if v.len() < 2 {
                continue;
            }
            let [q1, _, q3] = stats::quartiles(v);
            let (lo, hi) =
                v.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let bound = bounds.iter().find(|(n, _)| n == d.name).map_or(0.0, |(_, b)| *b);
            let spread = stats::spread(v);
            writeln!(
                out,
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.1} % | {:.0} % | {:.2} |",
                w.name,
                d.name,
                d.unit,
                lo,
                q1,
                stats::median(v),
                q3,
                hi,
                spread * 100.0,
                bound * 100.0,
                spread / bound
            )
            .expect("write to String");
        }
    }
    out
}

/// The traced run's separation report: per workload, who answered,
/// where a query's latency went, what commits cost, and what
/// observing cost — so a reader can confirm each layer dominates one
/// workload and idles in another.
pub fn separation(set: &ResultSet) -> String {
    const COLUMNS: [(&str, &str); 9] = [
        ("cache.hit_ratio", "cache"),
        ("cache.coalesced_ratio", "coalesced"),
        ("index.only_ratio", "index"),
        ("core.engine.answer_share", "engine"),
        ("core.service.submit_share", "t:submit"),
        ("core.service.wait_share", "t:wait"),
        ("core.engine.exec_share", "t:exec"),
        ("core.service.commit_wall_share", "commit/wall"),
        ("core.service.commits", "commits"),
    ];
    let mut out = String::from(
        "separation report (traced run): answered-by shares of completed queries, shares of summed query latency (t:), commit wall share\n",
    );
    write!(out, "{:<16}", "workload").expect("write to String");
    for (_, head) in COLUMNS {
        write!(out, " {head:>11}").expect("write to String");
    }
    writeln!(out, " {:>18}", "obs.overhead_pct").expect("write to String");
    for w in &WORKLOADS {
        write!(out, "{:<16}", w.name).expect("write to String");
        for (metric, _) in COLUMNS {
            match set.values(w.name, metric).last() {
                Some(v) => write!(out, " {v:>11.3}"),
                None => write!(out, " {:>11}", "-"),
            }
            .expect("write to String");
        }
        let (plain, seen) = (set.values(w.name, "qps"), set.values(w.name, "obs.qps_traced"));
        match (plain.last(), seen.last()) {
            (Some(p), Some(t)) => {
                writeln!(out, " {:>7.1} % of {p:.0}/s", (1.0 - t / p) * 100.0)
            }
            _ => writeln!(out, " {:>18}", "-"),
        }
        .expect("write to String");
    }
    out
}

/// `name  value unit` lines for one run.
pub fn metric_lines(values: &[(String, f64)], catalogue: &[MetricDef]) -> String {
    let mut out = String::new();
    for (name, v) in values {
        let unit = catalogue.iter().find(|d| d.name == name).map_or("", |d| d.unit);
        writeln!(out, "  {name:<42} {v:>16.4} {unit}").expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: +5 % inside a 10 % bound, +20 % outside.
        assert_eq!(judge(&steady, &[105.0, 104.0, 106.0], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &[120.0, 121.0, 119.0], Better::Lower, 0.10), Verdict::Worse);
        // An improvement is never worse.
        assert_eq!(judge(&steady, &[50.0, 51.0, 49.0], Better::Lower, 0.10), Verdict::Ok);
        // Higher is better: a 20 % drop is worse, a rise is not.
        assert_eq!(judge(&steady, &[80.0, 81.0, 79.0], Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&steady, &[130.0, 131.0, 129.0], Better::Higher, 0.10), Verdict::Ok);
        // A side whose quartiles sit further apart than the bound
        // resolves nothing.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&steady, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        // Single runs have no spread to object to.
        assert_eq!(judge(&[100.0], &[120.0], Better::Lower, 0.10), Verdict::Worse);
    }

    #[test]
    fn result_sets_round_trip_and_compare_flags_a_regression() {
        let mut a =
            ResultSet { label: "a".into(), seconds: 10, seeds: vec![1, 2], ..Default::default() };
        let mut b = ResultSet { label: "b".into(), ..a.clone() };
        for (set, qps) in [(&mut a, [1000.0, 1010.0]), (&mut b, [700.0, 705.0])] {
            for q in qps {
                set.push(
                    "fr-uniform",
                    &[("qps".into(), q), ("setup_s".into(), 2.0)],
                    &[("cache.hit_ratio".into(), 0.0)],
                );
            }
        }
        let dir =
            std::env::temp_dir().join(format!("cgraph-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        a.save(&path).unwrap();
        let back = ResultSet::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.values("fr-uniform", "qps"), &[1000.0, 1010.0]);
        assert_eq!(back.values("fr-uniform", "cache.hit_ratio"), &[0.0, 0.0]);
        assert_eq!(back.seeds, vec![1, 2]);

        let bounds = vec![("qps".to_string(), 0.10), ("setup_s".to_string(), 0.25)];
        let (table, worse) = compare(&a, &b, &bounds);
        assert!(worse, "{table}");
        assert!(table.contains("worse") && table.contains("0.699 of 1005.0000 1/s"), "{table}");
        let (_, worse) = compare(&a, &a, &bounds);
        assert!(!worse);
    }
}
