//! Per-layer counters, read from the layers' public accessors after a
//! timed iteration, and the per-layer metric table of the traced run.

use crate::measure::{ratio, Samples, Tracer};
use relcheck_bdd::{ManagerStats, OpKind, StatsDelta};
use relcheck_core::checker::{CheckReport, Checker, Method, Verdict};
use relcheck_core::registry::ConstraintRegistry;
use relcheck_core::store::IndexStore;
use relcheck_core::telemetry::FleetTelemetry;

/// Counts read from one iteration (or one traced serve pass).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub bdd: StatsDelta,
    pub peak_nodes: usize,
    pub index_nodes: usize,
    /// Shared-subgraph atom cache `(hits, misses)`.
    pub atom: (u64, u64),
    /// Index store `(hits, misses)` of the warm start.
    pub store: (u64, u64),
    /// Registry plan cache `(hits, misses)`.
    pub plan: (u64, u64),
    /// Sums over the checks' telemetry traces, in ms.
    pub check_ms: f64,
    pub index_ms: f64,
    pub eval_ms: f64,
    /// Checks decided on each rung: bdd, sql, brute force, aborted.
    pub rungs: [u64; 4],
    /// Checks whose ladder tried the BDD rung, and those it decided.
    pub bdd_attempts: u64,
    pub bdd_decided: u64,
    pub undecided: u64,
    pub drill_rows: u64,
    /// Registry: constraints re-checked and answered from cache.
    pub checked: u64,
    pub skipped: u64,
    /// Per lane `(created nodes, peak nodes)`.
    pub lanes: Vec<(u64, usize)>,
}

impl Counters {
    /// Counters of one batch iteration on a fresh checker.
    pub fn batch(
        ck: &Checker,
        reports: &[(String, CheckReport)],
        store: Option<&IndexStore>,
        registry: Option<&ConstraintRegistry>,
        fleet: Option<&FleetTelemetry>,
    ) -> Counters {
        let stats = ck.logical_db().manager().stats();
        let mut c = Counters {
            bdd: stats.delta_since(&ManagerStats::default()),
            peak_nodes: stats.peak_nodes,
            index_nodes: ck.logical_db().index_size(),
            atom: ck.logical_db().atom_cache_stats(),
            ..Default::default()
        };
        if let Some(s) = store {
            c.store = (s.stats.hits, s.stats.misses);
        }
        if let Some(r) = registry {
            let p = r.plan_cache_stats();
            c.plan = (p.hits, p.misses);
            c.checked = reports.len() as u64;
        }
        if let Some(f) = fleet {
            c.bdd += f.total;
            for w in &f.workers {
                c.peak_nodes = c.peak_nodes.max(w.peak_nodes);
                c.lanes.push((w.bdd.created_nodes, w.peak_nodes));
            }
        }
        c.note_reports(reports.iter().map(|(_, r)| r));
        c
    }

    /// Fold another database's counters of the same iteration in.
    pub fn add(&mut self, o: &Counters) {
        self.bdd += o.bdd;
        self.peak_nodes = self.peak_nodes.max(o.peak_nodes);
        self.index_nodes += o.index_nodes;
        for (a, b) in [
            (&mut self.atom, o.atom),
            (&mut self.store, o.store),
            (&mut self.plan, o.plan),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.check_ms += o.check_ms;
        self.index_ms += o.index_ms;
        self.eval_ms += o.eval_ms;
        for (a, b) in self.rungs.iter_mut().zip(o.rungs) {
            *a += b;
        }
        self.bdd_attempts += o.bdd_attempts;
        self.bdd_decided += o.bdd_decided;
        self.undecided += o.undecided;
        self.drill_rows += o.drill_rows;
        self.checked += o.checked;
        self.skipped += o.skipped;
        self.lanes.extend_from_slice(&o.lanes);
    }

    pub fn note_reports<'a>(&mut self, reports: impl Iterator<Item = &'a CheckReport>) {
        for r in reports {
            let rung = match r.method {
                Method::Bdd => 0,
                Method::SqlFallback => 1,
                Method::BruteForce => 2,
                Method::Aborted => 3,
            };
            self.rungs[rung] += 1;
            if !r.verdict.is_decided() {
                self.undecided += 1;
            }
            if let Some(t) = &r.metrics {
                self.check_ms += t.timings.total.as_secs_f64() * 1e3;
                self.index_ms += t.timings.index.as_secs_f64() * 1e3;
                self.eval_ms += t.timings.eval.as_secs_f64() * 1e3;
                if t.ladder.contains(&"bdd") {
                    self.bdd_attempts += 1;
                    if r.method == Method::Bdd && r.verdict != Verdict::Degraded {
                        self.bdd_decided += 1;
                    }
                }
            }
        }
    }
}

/// `(name, unit, better)` of every per-layer metric, in output order.
/// `BENCHMARK.json` lists the same table. A metric that does not apply to
/// a workload reads 0 there (see README.md).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("store.warm_start_ms", "ms", "lower"),
    ("store.write_back_ms", "ms", "lower"),
    ("store.hit_frac", "ratio", "higher"),
    ("store.cache_bytes_per_row", "B/row", "lower"),
    ("store.journal_bytes_per_delta", "B/delta", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("index.nodes", "count", "lower"),
    ("index.atom_hit_frac", "ratio", "higher"),
    ("plan.ms", "ms", "lower"),
    ("plan.cache_hit_frac", "ratio", "higher"),
    ("checker.check_ms", "ms", "lower"),
    ("checker.index_ms", "ms", "lower"),
    ("checker.eval_ms", "ms", "lower"),
    ("checker.rung_bdd", "count", "higher"),
    ("checker.rung_sql", "count", "lower"),
    ("checker.rung_brute", "count", "lower"),
    ("checker.rung_aborted", "count", "lower"),
    ("checker.bdd_useful_frac", "ratio", "higher"),
    ("checker.undecided", "count", "lower"),
    ("bdd.calls.apply", "count", "lower"),
    ("bdd.calls.not", "count", "lower"),
    ("bdd.calls.ite", "count", "lower"),
    ("bdd.calls.exists", "count", "lower"),
    ("bdd.calls.forall", "count", "lower"),
    ("bdd.calls.appex", "count", "lower"),
    ("bdd.calls.appall", "count", "lower"),
    ("bdd.calls.replace", "count", "lower"),
    ("bdd.calls.restrict", "count", "lower"),
    ("bdd.calls.constrain", "count", "lower"),
    ("bdd.cache_hit_frac", "ratio", "higher"),
    ("bdd.created_nodes", "count", "lower"),
    ("bdd.peak_nodes", "count", "lower"),
    ("bdd.gc_runs", "count", "lower"),
    ("sql.check_ms", "ms", "lower"),
    ("drill.ms", "ms", "lower"),
    ("drill.rows", "count", "lower"),
    ("registry.validate_ms", "ms", "lower"),
    ("registry.skip_frac", "ratio", "higher"),
    ("parallel.check_ms", "ms", "lower"),
    ("parallel.serial_ms", "ms", "lower"),
    ("parallel.speedup", "ratio", "higher"),
    ("parallel.lane_created_max_frac", "ratio", "lower"),
    ("parallel.lane_peak_nodes_max", "count", "lower"),
    ("serve.engine_delta_ms", "ms", "lower"),
    ("serve.engine_check_ms", "ms", "lower"),
    ("serve.actor_overhead_ms", "ms", "lower"),
    ("serve.dirty_mean", "count", "lower"),
    ("serve.incremental_vs_full", "ratio", "lower"),
    ("overload.shed", "count", "lower"),
    ("overload.rejected", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.base_ms", "ms", "lower"),
];

/// BDD op kinds in the order of the `bdd.calls.*` metrics.
const OP_METRICS: [(OpKind, &str); 10] = [
    (OpKind::Apply, "bdd.calls.apply"),
    (OpKind::Not, "bdd.calls.not"),
    (OpKind::Ite, "bdd.calls.ite"),
    (OpKind::Exists, "bdd.calls.exists"),
    (OpKind::Forall, "bdd.calls.forall"),
    (OpKind::AppExists, "bdd.calls.appex"),
    (OpKind::AppForall, "bdd.calls.appall"),
    (OpKind::Replace, "bdd.calls.replace"),
    (OpKind::Restrict, "bdd.calls.restrict"),
    (OpKind::Constrain, "bdd.calls.constrain"),
];

/// The per-layer metric values of one traced run.
#[derive(Debug, Clone)]
pub struct LayerMetrics {
    pub values: Vec<f64>,
}

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl LayerMetrics {
    pub fn set(&mut self, name: &str, v: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.values[i] = v;
    }

    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .map_or(0.0, |i| self.values[i])
    }

    /// The count metrics, from one iteration's counters. These repeat
    /// exactly for a given seed.
    pub fn counts(&mut self, c: &Counters) {
        for (kind, name) in OP_METRICS {
            self.set(name, c.bdd.ops[kind.index()].calls as f64);
        }
        let probes = (c.bdd.cache_hits + c.bdd.cache_misses) as f64;
        self.set("bdd.cache_hit_frac", ratio(c.bdd.cache_hits as f64, probes));
        self.set("bdd.created_nodes", c.bdd.created_nodes as f64);
        self.set("bdd.peak_nodes", c.peak_nodes as f64);
        self.set("bdd.gc_runs", c.bdd.gc_runs as f64);
        self.set("index.nodes", c.index_nodes as f64);
        self.set(
            "index.atom_hit_frac",
            ratio(c.atom.0 as f64, (c.atom.0 + c.atom.1) as f64),
        );
        self.set(
            "store.hit_frac",
            ratio(c.store.0 as f64, (c.store.0 + c.store.1) as f64),
        );
        self.set(
            "plan.cache_hit_frac",
            ratio(c.plan.0 as f64, (c.plan.0 + c.plan.1) as f64),
        );
        for (i, name) in [
            "checker.rung_bdd",
            "checker.rung_sql",
            "checker.rung_brute",
            "checker.rung_aborted",
        ]
        .into_iter()
        .enumerate()
        {
            self.set(name, c.rungs[i] as f64);
        }
        self.set(
            "checker.bdd_useful_frac",
            ratio(c.bdd_decided as f64, c.bdd_attempts as f64),
        );
        self.set("checker.undecided", c.undecided as f64);
        self.set("drill.rows", c.drill_rows as f64);
        self.set(
            "registry.skip_frac",
            ratio(c.skipped as f64, (c.checked + c.skipped) as f64),
        );
        self.lanes(c);
    }

    /// The lane metrics, from counters that carry lanes.
    pub fn lanes(&mut self, c: &Counters) {
        let lane_total: u64 = c.lanes.iter().map(|l| l.0).sum();
        if let Some(max) = c.lanes.iter().map(|l| l.0).max() {
            self.set(
                "parallel.lane_created_max_frac",
                ratio(max as f64, lane_total as f64),
            );
        }
        if let Some(max) = c.lanes.iter().map(|l| l.1).max() {
            self.set("parallel.lane_peak_nodes_max", max as f64);
        }
    }

    /// Timings of the traced batch iterations: medians over the
    /// `iteration` roots of the spans around each layer call, and over
    /// the checks' own telemetry.
    pub fn timings(&mut self, tr: &Tracer, counters: &[&Counters]) {
        for (metric, span) in [
            ("store.warm_start_ms", "store.warm_start"),
            ("store.write_back_ms", "store.write_back"),
            ("registry.validate_ms", "registry.validate_all"),
            ("parallel.check_ms", "parallel.check_all"),
            ("sql.check_ms", "sql.check"),
            ("drill.ms", "drill"),
        ] {
            self.set(metric, tr.per_root("iteration", span).median());
        }
        let med =
            |f: fn(&Counters) -> f64| Samples(counters.iter().map(|c| f(c)).collect()).median();
        self.set("checker.check_ms", med(|c| c.check_ms));
        self.set("checker.index_ms", med(|c| c.index_ms));
        self.set("checker.eval_ms", med(|c| c.eval_ms));
    }
}
