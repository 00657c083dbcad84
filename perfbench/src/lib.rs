//! The relcheck benchmark: four workloads driven through the public API
//! of `relcheck-core`, `relcheck-relstore` and `relcheck-bdd`, with an
//! oracle check of every answer. See README.md for the workloads, the
//! metrics and what each should move.

mod batch;
pub mod data;
pub mod layers;
pub mod measure;
mod serve;

use layers::{LayerMetrics, PER_LAYER};
use measure::{json_num, json_str, peak_rss_mb, Samples, Tracer};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The workloads. `BENCHMARK.json` lists `table1-run` and
/// `customer-serve` (see README.md, "Noise").
pub const WORKLOADS: [&str; 4] = [
    "table1-run",
    "customer-lanes",
    "customer-sql",
    "customer-serve",
];

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them. The p90 and the throughput are printed by name but not gated:
/// across two sets of runs they moved with the host's load by more than
/// any allowed bound (see README.md, "Noise").
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 10;

/// Apply-cache slots of a default BDD manager.
pub const APPLY_CACHE_SLOTS: usize = 1 << 18;

/// One invocation's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for index caches and journals.
    pub work: PathBuf,
}

/// What a result is about: seed, true input sizes, and which rung
/// answered each constraint.
#[derive(Debug, Clone)]
pub struct Labels {
    pub workload: String,
    pub seed: u64,
    /// Generated databases the workload runs on (each iteration visits all).
    pub databases: usize,
    /// `(relation, distinct rows after deduplication)`, summed over the
    /// databases.
    pub relations: Vec<(String, usize)>,
    pub index_nodes: usize,
    pub peak_nodes: usize,
    /// `(constraint, methods that answered it across the run)`.
    pub methods: Vec<(String, BTreeSet<&'static str>)>,
    /// Serve sessions only: what the engine's periodic re-advise did to
    /// routing by the end of the session.
    pub routing: Option<Routing>,
}

/// The routing state a serve session ended with. `sql_only` names the
/// relations the checker answers through SQL; the other figures are
/// `ServeEngine::policy_metrics` after the last re-advise pass.
#[derive(Debug, Clone, Default)]
pub struct Routing {
    pub readvises: u64,
    pub advised_sql: u64,
    pub applied_sql_only: u64,
    pub applied_rebuilds: u64,
    pub sql_only: Vec<String>,
}

impl Labels {
    pub fn new(ctx: &Ctx, dbs: impl Iterator<Item = Vec<(String, usize)>>) -> Labels {
        let mut relations: Vec<(String, usize)> = Vec::new();
        let mut databases = 0;
        for db in dbs {
            databases += 1;
            for (name, rows) in db {
                match relations.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += rows,
                    None => relations.push((name, rows)),
                }
            }
        }
        Labels {
            workload: ctx.workload.clone(),
            seed: ctx.seed,
            databases,
            relations,
            index_nodes: 0,
            peak_nodes: 0,
            methods: Vec::new(),
            routing: None,
        }
    }

    pub fn note_methods<'a>(&mut self, it: impl Iterator<Item = (&'a str, &'static str)>) {
        for (name, method) in it {
            match self.methods.iter_mut().find(|(n, _)| n == name) {
                Some((_, set)) => {
                    set.insert(method);
                }
                None => self
                    .methods
                    .push((name.to_owned(), BTreeSet::from([method]))),
            }
        }
    }

    pub fn note_nodes(&mut self, index_nodes: usize, peak_nodes: usize) {
        self.index_nodes = self.index_nodes.max(index_nodes);
        self.peak_nodes = self.peak_nodes.max(peak_nodes);
    }

    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(|(_, n)| n).sum()
    }

    pub fn to_json(&self) -> String {
        let rels: Vec<String> = self
            .relations
            .iter()
            .map(|(n, c)| format!("{}:{c}", json_str(n)))
            .collect();
        let methods: Vec<String> = self
            .methods
            .iter()
            .map(|(n, ms)| {
                let ms: Vec<String> = ms.iter().map(|m| json_str(m)).collect();
                format!("{}:[{}]", json_str(n), ms.join(","))
            })
            .collect();
        let routing = self.routing.as_ref().map_or(String::new(), |r| {
            let rels: Vec<String> = r.sql_only.iter().map(|n| json_str(n)).collect();
            format!(
                ",\"routing\":{{\"readvises\":{},\"advised_sql\":{},\"applied_sql_only\":{},\
                 \"applied_rebuilds\":{},\"sql_only\":[{}]}}",
                r.readvises,
                r.advised_sql,
                r.applied_sql_only,
                r.applied_rebuilds,
                rels.join(",")
            )
        });
        format!(
            "{{\"workload\":{},\"seed\":{},\"databases\":{},\"distinct_rows\":{{{}}},\"index_nodes\":{},\
             \"peak_live_nodes\":{},\"apply_cache_slots\":{},\"methods\":{{{}}}{routing}}}",
            json_str(&self.workload),
            self.seed,
            self.databases,
            rels.join(","),
            self.index_nodes,
            self.peak_nodes,
            APPLY_CACHE_SLOTS,
            methods.join(",")
        )
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub labels: Labels,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric values, in `END_TO_END` order (without
    /// `peak_rss_mb`, which is read when the result is printed).
    pub e2e: Vec<f64>,
    /// The workload's own named figures: `(name, value, unit, samples)`.
    pub named: Vec<(String, f64, &'static str, usize)>,
    pub layers: Option<LayerMetrics>,
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn new(labels: Labels, attempted: u64, failed: u64) -> Outcome {
        Outcome {
            labels,
            attempted,
            failed,
            e2e: Vec::new(),
            named: Vec::new(),
            layers: None,
            spans: None,
        }
    }

    /// The gated end-to-end timings: set-up median and the main
    /// operation's median.
    pub fn end_to_end(&mut self, setup: &Samples, ops: &Samples) {
        self.e2e = vec![setup.median(), ops.median()];
    }

    pub fn report(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.named.push((name.to_owned(), value, unit, samples));
    }

    /// The human-readable lines, the labels line, and (traced) the
    /// self-time table. Everything but the result line.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (name, v, unit, n) in &self.named {
            let _ = writeln!(s, "{:<22} {:>12.4} {:<6} (n={n})", name, v, unit);
        }
        let frac = measure::ratio(self.failed as f64, self.attempted as f64);
        let _ = writeln!(
            s,
            "{:<22} {:>12.4} {:<6} ({} of {} operations)",
            "failed_frac", frac, "ratio", self.failed, self.attempted
        );
        let _ = writeln!(
            s,
            "{:<22} {:>12.4} {:<6}",
            "peak_rss_mb",
            peak_rss_mb(),
            "MiB"
        );
        let _ = writeln!(s, "labels {}", self.labels.to_json());
        if let (Some(tr), true) = (&self.spans, self.layers.is_some()) {
            let _ = writeln!(s, "self time per span (ms):");
            for (name, count, total, own) in tr.self_times() {
                let _ = writeln!(
                    s,
                    "  {name:<28} n={count:<6} total={total:>10.2} self={own:>10.2}"
                );
            }
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// (end-to-end untraced, per-layer traced).
    pub fn result_line(&self) -> String {
        let mut metrics = Vec::new();
        match &self.layers {
            None => {
                let mut values = self.e2e.clone();
                values.push(peak_rss_mb());
                for ((name, unit), v) in END_TO_END.iter().zip(values) {
                    metrics.push(metric_json(name, v, unit));
                }
            }
            Some(m) => {
                for ((name, unit, _), v) in PER_LAYER.iter().zip(&m.values) {
                    metrics.push(metric_json(name, *v, unit));
                }
            }
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The trace summary document: labels, per-layer metrics and self
    /// time per span name, with the tracing overhead and its base.
    pub fn trace_summary(&self) -> String {
        let mut s = format!("{{\"labels\":{},\"per_layer\":{{", self.labels.to_json());
        if let Some(m) = &self.layers {
            let items: Vec<String> = PER_LAYER
                .iter()
                .zip(&m.values)
                .map(|((n, _, _), v)| format!("{}:{}", json_str(n), json_num(*v)))
                .collect();
            s.push_str(&items.join(","));
        }
        s.push_str("},\"self_time_ms\":{");
        if let Some(tr) = &self.spans {
            let items: Vec<String> = tr
                .self_times()
                .into_iter()
                .map(|(n, c, t, own)| {
                    format!(
                        "{}:{{\"count\":{c},\"total\":{},\"self\":{}}}",
                        json_str(n),
                        json_num(t),
                        json_num(own)
                    )
                })
                .collect();
            s.push_str(&items.join(","));
        }
        let (ratio, base) = self.layers.as_ref().map_or((0.0, 0.0), |m| {
            (m.get("trace.overhead_ratio"), m.get("trace.base_ms"))
        });
        let _ = write!(
            s,
            "}},\"tracing_overhead\":{{\"ratio\":{},\"base_ms\":{}}}}}",
            json_num(ratio),
            json_num(base)
        );
        s
    }
}

fn metric_json(name: &str, v: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_str(name),
        json_num(v),
        json_str(unit)
    )
}

/// Run one workload at the given sizes.
pub fn run_workload(ctx: &Ctx, sizes: data::Sizes) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "table1-run" => batch::run(batch::Batch::Table1, ctx, sizes),
        "customer-lanes" => batch::run(batch::Batch::Lanes, ctx, sizes),
        "customer-sql" => batch::run(batch::Batch::Sql, ctx, sizes),
        "customer-serve" => serve::run(ctx, sizes),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
