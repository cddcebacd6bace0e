//! The metric catalogue: every name the benchmark prints, with its
//! unit and direction. `BENCHMARK.json` lists the same names (a test
//! keeps the two in step); the bounds live only there.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a client of the service sees; defined on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    higher("qps", "1/s"),
    lower("query_mean_ms", "ms"),
    lower("query_p99_ms", "ms"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer numbers of the traced run and the layer probes. The
/// prefix names the module that owns the work. `0` means the layer
/// does not take part in the workload (no index, no updates, ...).
pub const PER_LAYER: [MetricDef; 93] = [
    // core.service — the front-end and the commit path (traced run).
    lower("core.service.submit_stall_us_p99", "us"),
    lower("core.service.admission_wait_ms_mean", "ms"),
    lower("core.service.exec_ms_mean", "ms"),
    lower("core.service.batches", "count"),
    higher("core.service.lanes_per_batch", "count"),
    lower("core.service.retries", "count"),
    lower("core.service.failed", "count"),
    higher("core.service.commits", "count"),
    lower("core.service.folds", "count"),
    higher("core.service.updates_applied", "count"),
    lower("core.service.apply_ms_p50", "ms"),
    lower("core.service.commit_ms_p50", "ms"),
    lower("core.service.commit_ms_p90", "ms"),
    lower("core.service.commit_wall_share", "ratio"),
    lower("core.service.commit_overlap_p99_ms", "ms"),
    lower("core.service.submit_share", "ratio"),
    lower("core.service.wait_share", "ratio"),
    // cache — traced run, then the ResultCache / packer probes.
    higher("cache.hit_ratio", "ratio"),
    higher("cache.coalesced_ratio", "ratio"),
    lower("cache.evictions", "count"),
    lower("cache.resident_bytes", "bytes"),
    lower("cache.get_ns", "ns"),
    lower("cache.insert_ns", "ns"),
    higher("cache.probe_hit_ratio", "ratio"),
    lower("cache.pack_locality_us", "us"),
    // router.
    higher("router.locality_ratio", "ratio"),
    lower("router.heat_steered_ratio", "ratio"),
    higher("router.balance", "ratio"),
    lower("router.route_ns", "ns"),
    // core.engine — run_traversal_batch_on probes, then traced run.
    lower("core.engine.batch_ms_p50.w64", "ms"),
    lower("core.engine.batch_ms_p50.w512", "ms"),
    lower("core.engine.scans_per_query.w64", "count"),
    lower("core.engine.scans_per_query.w512", "count"),
    lower("core.engine.supersteps.w64", "count"),
    higher("core.engine.busy_share.w64", "ratio"),
    lower("core.engine.sim_ms_p50.w64", "ms"),
    lower("core.engine.sparse_batch_ms_p50", "ms"),
    lower("core.engine.supersteps_per_batch", "count"),
    lower("core.engine.exec_share", "ratio"),
    lower("core.engine.answer_share", "ratio"),
    // core.bitfrontier, core.scheduler — probes.
    lower("core.bitfrontier.scan_ns_per_row", "ns"),
    lower("core.bitfrontier.advance_us", "us"),
    higher("core.scheduler.closed_batch_qps", "1/s"),
    // comm.
    lower("comm.bytes_per_query", "bytes"),
    lower("comm.msgs_per_query", "count"),
    lower("comm.barrier_generations_per_batch", "count"),
    lower("comm.wire_bytes_per_query.w64", "bytes"),
    // graph.delta, graph.snapshot — probes.
    lower("graph.delta.overlay_commit_ms", "ms"),
    lower("graph.delta.fold_commit_ms", "ms"),
    lower("graph.delta.overlay_scan_penalty", "ratio"),
    lower("graph.delta.entries_end", "count"),
    lower("graph.snapshot.encode_ms", "ms"),
    lower("graph.snapshot.decode_ms", "ms"),
    lower("graph.snapshot.bytes_per_edge", "bytes"),
    lower("graph.snapshot.wal_encode_ns_per_update", "ns"),
    // core.durability.
    lower("core.durability.restore_engine_ms", "ms"),
    lower("core.durability.wal_bytes_per_update", "bytes"),
    lower("core.durability.snapshots", "count"),
    lower("core.durability.snapshot_bytes", "bytes"),
    lower("core.durability.wal_replayed", "count"),
    lower("core.durability.recover_s", "s"),
    // index.
    lower("index.build_s", "s"),
    lower("index.bytes", "bytes"),
    lower("index.answer_ns", "ns"),
    higher("index.only_ratio", "ratio"),
    lower("index.builds", "count"),
    // core.shard — from the run's own set-ups.
    lower("core.shard.build_s", "s"),
    lower("core.shard.bytes", "bytes"),
    // The open-loop sweep (open-loop workload only).
    lower("open.p50_ms_at_500", "ms"),
    lower("open.p99_ms_at_500", "ms"),
    lower("open.p50_ms_at_1000", "ms"),
    lower("open.p99_ms_at_1000", "ms"),
    lower("open.p50_ms_at_2000", "ms"),
    lower("open.p99_ms_at_2000", "ms"),
    higher("open.max_rate_ok", "1/s"),
    lower("open.p50_ms_at_1000.r2", "ms"),
    lower("open.p99_ms_at_1000.r2", "ms"),
    // The benchmark's own validity and the cost of observing.
    lower("bench.gen_late_p99_ms", "ms"),
    lower("bench.host_slowdown", "ratio"),
    higher("bench.qps_raw", "1/s"),
    lower("bench.query_mean_raw_ms", "ms"),
    lower("bench.query_p99_raw_ms", "ms"),
    lower("bench.setup_raw_s", "s"),
    lower("bench.peak_rss_end_mb", "MiB"),
    lower("bench.query_p50_ms", "ms"),
    higher("obs.qps_traced", "1/s"),
    // Span roll-up of the traced window (bench-side spans).
    lower("span.query.count", "count"),
    lower("span.query.total_s", "s"),
    lower("span.submit.total_s", "s"),
    lower("span.response.total_s", "s"),
    lower("span.apply_updates.total_s", "s"),
    lower("span.commit_epoch.total_s", "s"),
    lower("span.update_cycle.self_s", "s"),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|d| d.name == name)
}

/// Metric values by name, in the order they were set.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name`; the name must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        match self.0.iter_mut().find(|(n, _)| *n == d.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((d.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The contract's `metrics` object: every metric of `catalogue`,
    /// in catalogue order; one this run did not set reads `0`.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> Json {
        Json::Obj(
            catalogue
                .iter()
                .map(|d| {
                    let value = self.get(d.name).unwrap_or(0.0);
                    (
                        d.name.to_string(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
            assert!(all[..i].iter().all(|o| o.name != d.name), "duplicate {}", d.name);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` and the catalogue say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = crate::workload::manifest_path();
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (j, d) in listed.iter().zip(catalogue) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit), "{}", d.name);
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                if key == "end_to_end" {
                    let bound = j.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
                }
            }
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).expect("workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }
    }
}
