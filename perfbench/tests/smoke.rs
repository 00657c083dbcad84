//! The benchmark's own tests: every workload at smoke size, traced and
//! untraced, passes its correctness gate; one seed gives identical count
//! metrics twice; a second seed passes too.

use relcheck_datagen::customer::{self, CustomerConfig};
use relcheck_perfbench::data::{self, Sizes};
use relcheck_perfbench::layers::PER_LAYER;
use relcheck_perfbench::{run_workload, Ctx, Outcome, END_TO_END, WORKLOADS};
use relcheck_relstore::Database;
use std::path::PathBuf;

/// Count metrics that must repeat exactly for a given seed.
const COUNTS: [&str; 19] = [
    "bdd.calls.apply",
    "bdd.calls.not",
    "bdd.calls.ite",
    "bdd.calls.exists",
    "bdd.calls.forall",
    "bdd.calls.appex",
    "bdd.calls.appall",
    "bdd.calls.replace",
    "bdd.calls.restrict",
    "bdd.calls.constrain",
    "checker.rung_bdd",
    "checker.rung_sql",
    "checker.rung_brute",
    "checker.rung_aborted",
    "drill.rows",
    "store.hit_frac",
    "registry.skip_frac",
    "bdd.created_nodes",
    "index.nodes",
];

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-{seed}-{trace}"));
    let ctx = Ctx {
        workload: workload.to_owned(),
        seed,
        seconds: 0.3,
        trace,
        work: work.clone(),
    };
    let out = run_workload(&ctx, Sizes::smoke())
        .unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"));
    let _ = std::fs::remove_dir_all(work);
    out
}

fn values(line: &str) -> Vec<(String, f64)> {
    // The metrics object is `"name": {"value": V, "unit": "U"}, …`.
    let body = line.split_once("\"metrics\": {").unwrap().1;
    body.split("}, ")
        .map(|item| {
            let (name, rest) = item.split_once(": {\"value\": ").unwrap();
            let v = rest.split(',').next().unwrap().parse().unwrap();
            (name.trim_matches('"').to_owned(), v)
        })
        .collect()
}

#[test]
fn untraced_runs_pass_the_gate_and_report_every_end_to_end_metric() {
    for w in WORKLOADS {
        let out = run(w, 7, false);
        let line = out.result_line();
        assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");
        assert_eq!(out.failed, 0, "{w}");
        let got = values(&line);
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{w}");
        assert!(
            got.iter().all(|(_, v)| *v > 0.0),
            "{w}: a zero metric in {line}"
        );
    }
}

#[test]
fn traced_counts_repeat_for_a_seed_and_a_second_seed_passes() {
    for w in WORKLOADS {
        let a = run(w, 11, true);
        let b = run(w, 11, true);
        let (ma, mb) = (a.layers.as_ref().unwrap(), b.layers.as_ref().unwrap());
        for name in COUNTS {
            assert_eq!(
                ma.get(name),
                mb.get(name),
                "{w}: {name} differs between runs of one seed"
            );
        }
        let names: Vec<String> = values(&a.result_line())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, want, "{w}");
        assert!(ma.get("trace.overhead_ratio") > 0.0, "{w}");
        let c = run(w, 12, true);
        assert_eq!(c.failed, 0, "{w} seed 12");
    }
}

#[test]
fn counts_move_on_the_layers_each_workload_exercises() {
    let sql = run("customer-sql", 5, true);
    let m = sql.layers.unwrap();
    assert_eq!(
        m.get("bdd.created_nodes"),
        0.0,
        "the SQL workload builds no BDD"
    );
    assert_eq!(m.get("checker.rung_sql"), 5.0);
    let lanes = run("customer-lanes", 5, true).layers.unwrap();
    assert_eq!(lanes.get("checker.rung_bdd"), 5.0);
    assert!(lanes.get("parallel.serial_ms") > 0.0);
    // table1-run measures the parallel and SQL layers beside its
    // iterations, so they stay covered by a gated workload.
    let table1 = run("table1-run", 5, true).layers.unwrap();
    for name in [
        "parallel.check_ms",
        "parallel.serial_ms",
        "parallel.lane_peak_nodes_max",
        "sql.check_ms",
        "drill.ms",
    ] {
        assert!(table1.get(name) > 0.0, "table1-run {name}");
    }
    let serve = run("customer-serve", 5, true).layers.unwrap();
    assert!(
        serve.get("registry.skip_frac") > 0.0,
        "CITY_STATE-only checks skip"
    );
    assert!(serve.get("store.journal_bytes_per_delta") > 0.0);
    assert_eq!(
        serve.get("store.hit_frac"),
        1.0,
        "set-up warm-starts from the cache"
    );
}

#[test]
fn table1_databases_share_the_bench_crate_schema_and_one_shape_across_seeds() {
    let theirs = relcheck_bench::queries::build(3_000, 4);
    let a = data::load_table1(&data::table1_inputs(3_000, 4));
    let b = data::load_table1(&data::table1_inputs(3_000, 5));
    let schema = |db: &Database, name: &str| -> Vec<(String, String)> {
        let rel = db.relation(name).unwrap();
        rel.schema()
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.class.clone()))
            .collect()
    };
    for name in ["R1", "R2", "STUDENT", "COURSE", "TAKES"] {
        assert_eq!(schema(&a, name), schema(&theirs, name), "{name}");
    }
    let (ra, rb) = (a.relation("R1").unwrap(), b.relation("R1").unwrap());
    assert_eq!(ra.len(), rb.len(), "the product shape is seed-independent");
    assert_ne!(
        ra.rows().collect::<Vec<_>>(),
        rb.rows().collect::<Vec<_>>(),
        "the seed draws the tuples"
    );
}

#[test]
fn customer_inputs_take_the_generators_model_and_draw_rows_by_seed() {
    let doms = data::SERVE_DOMS;
    let model = customer::generate(&CustomerConfig {
        rows: 0,
        dom_sizes: doms,
        violation_rate: 0.0,
        seed: data::STRUCTURE_SEED,
    });
    let a = data::customer_inputs(2_000, doms, 4);
    let b = data::customer_inputs(2_000, doms, 5);
    assert_eq!(a.city_state, b.city_state, "one model for every seed");
    for [areacode, city, state] in &a.cust {
        assert!(
            model.state_areacodes[*state as usize].contains(areacode),
            "area code {areacode} is not one of state {state}'s"
        );
        assert!(*city < doms[2] as u32);
    }
    assert_ne!(a.cust, b.cust, "the seed draws the rows");
}
