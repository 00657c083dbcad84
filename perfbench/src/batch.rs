//! The three batch workloads. Each timed iteration is what one
//! `relcheck run` invocation does after loading its spec:
//!
//! - `table1-run`: `relcheck run --index-cache DIR` — warm start from
//!   the cache, validate every constraint through a fresh registry, write
//!   the cache back, then list violating tuples;
//! - `customer-lanes`: `relcheck run --threads 2` — a fresh checker, a
//!   cold index build, the parallel lanes, then the drill-down;
//! - `customer-sql`: `relcheck run --sql` — the SQL rung on every
//!   constraint, then the drill-down.

use crate::data::{self, Sizes};
use crate::layers::{Counters, LayerMetrics};
use crate::measure::{ratio, Samples, Tracer};
use crate::{Ctx, Labels, Outcome, SETUPS};
use relcheck_core::checker::{CheckReport, Checker, CheckerOptions, Method, Verdict};
use relcheck_core::registry::ConstraintRegistry;
use relcheck_core::store::IndexStore;
use relcheck_logic::Formula;
use relcheck_relstore::{Database, Relation};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Lanes for `customer-lanes` (the host has two cores).
pub const LANES: usize = 2;
/// Violating tuples listed per violated constraint (`--limit`).
pub const LIST_LIMIT: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    Table1,
    Lanes,
    Sql,
}

/// What the drill-down found for one violated constraint: the number of
/// violating tuples and a hash of them, or `None` when the constraint has
/// no relational violation plan.
type Drill = Option<(usize, u64)>;

/// The oracle's answer for one constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expected {
    holds: bool,
    drill: Drill,
}

/// One timed iteration: its latency, what it answered, and the layer
/// counters read after the timer stopped.
struct Iteration {
    ms: f64,
    decide_ms: f64,
    reports: Vec<(String, CheckReport)>,
    drill: Vec<Drill>,
    counters: Counters,
}

fn options(telemetry: bool) -> CheckerOptions {
    CheckerOptions {
        telemetry,
        ..Default::default()
    }
}

fn hash_rows(rel: &Relation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rel.rows() {
        for v in row {
            h = (h ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn drill_one(ck: &mut Checker, f: &Formula) -> (Drill, Option<Relation>) {
    match ck.find_violations(f) {
        Ok((rows, _cols)) => {
            // What `relcheck run` prints: the first `--limit` tuples, decoded.
            for i in 0..rows.len().min(LIST_LIMIT) {
                std::hint::black_box(ck.logical_db().db().decode_row(&rows, &rows.row(i)));
            }
            (Some((rows.len(), 0)), Some(rows))
        }
        Err(_) => (None, None),
    }
}

/// The number of violating tuples of a constraint, counted straight from
/// the columns with no checker, planner or SQL: the figure the oracle's
/// verdict and drill-down are checked against. The tuples are those
/// `Checker::find_violations` lists: the premise variables' tuples, and
/// for a functional dependency the rows of every group that breaks it.
/// `None` for Q5, whose string constants need the dictionary.
pub(crate) fn naive_count(name: &str, db: &Database) -> Option<usize> {
    let col = |r: &str, i: usize| -> Vec<u32> {
        db.relation(r).map_or(Vec::new(), |rel| rel.col(i).to_vec())
    };
    // Rows whose `key` group holds more than one distinct `val`.
    let fd_rows = |key: &[u32], val: &[u32]| -> usize {
        let mut groups: HashMap<u32, (usize, HashSet<u32>)> = HashMap::new();
        for (k, v) in key.iter().zip(val) {
            let g = groups.entry(*k).or_default();
            g.0 += 1;
            g.1.insert(*v);
        }
        groups
            .values()
            .filter(|(_, vals)| vals.len() > 1)
            .map(|(n, _)| n)
            .sum()
    };
    let states_of = || -> HashMap<u32, Vec<u32>> {
        let mut m: HashMap<u32, Vec<u32>> = HashMap::new();
        for (c, s) in col("CITY_STATE", 0).into_iter().zip(col("CITY_STATE", 1)) {
            m.entry(c).or_default().push(s);
        }
        m
    };
    Some(match name {
        "Q1" => col("R1", 0)
            .iter()
            .zip(&col("R1", 1))
            .filter(|&(&v0, &v1)| v0 < 8 && v1 >= 16)
            .count(),
        "Q2" => col("R1", 0)
            .iter()
            .zip(&col("R1", 2))
            .filter(|&(&v0, &v2)| v0 == 1 && v2 != 1)
            .count(),
        "Q3" => fd_rows(&col("R1", 0), &col("R1", 1)),
        "Q4" => {
            let r2: HashSet<(u32, u32)> = col("R2", 0).into_iter().zip(col("R2", 1)).collect();
            col("R1", 0)
                .into_iter()
                .zip(col("R1", 1))
                .filter(|p| !r2.contains(p))
                .count()
        }
        "reference-agrees" => {
            let states = states_of();
            col("CUST", 1)
                .iter()
                .zip(&col("CUST", 2))
                .map(|(c, s)| {
                    states
                        .get(c)
                        .map_or(0, |ss| ss.iter().filter(|&x| x != s).count())
                })
                .sum()
        }
        "city-determines-state" => fd_rows(&col("CUST", 1), &col("CUST", 2)),
        "areacode-determines-state" => fd_rows(&col("CUST", 0), &col("CUST", 2)),
        "cities-are-known" => {
            let states = states_of();
            col("CUST", 1)
                .iter()
                .filter(|c| !states.contains_key(c))
                .count()
        }
        "reference-is-functional" => fd_rows(&col("CITY_STATE", 0), &col("CITY_STATE", 1)),
        _ => return None,
    })
}

/// The SQL rung's answer for every constraint, computed once per run
/// outside every timer, and checked against the naive count where there
/// is one.
fn oracle(base: &Database, constraints: &[(String, Formula)]) -> Result<Vec<Expected>, String> {
    let mut ck = Checker::new(base.clone(), options(false));
    let mut out = Vec::new();
    for (name, f) in constraints {
        let r = ck
            .check_sql(f)
            .map_err(|e| format!("oracle: {name}: {e}"))?;
        let drill = if r.holds {
            Some((0, 0))
        } else {
            match drill_one(&mut ck, f) {
                (Some((n, _)), Some(rows)) => Some((n, hash_rows(&rows))),
                _ => None,
            }
        };
        if let Some(want) = naive_count(name, base) {
            let got = drill.map(|(n, _)| n);
            if r.holds != (want == 0) || got != Some(want) {
                return Err(format!(
                    "oracle: {name}: the SQL rung says holds={} with {got:?} violating tuples, \
                     a naive count over the rows finds {want}",
                    r.holds
                ));
            }
        }
        out.push(Expected {
            holds: r.holds,
            drill,
        });
    }
    Ok(out)
}

fn relations_of(kind: Batch) -> &'static [&'static str] {
    match kind {
        Batch::Table1 => &["COURSE", "R1", "R2", "STUDENT", "TAKES"],
        Batch::Lanes | Batch::Sql => &["CITY_STATE", "CUST"],
    }
}

enum Inputs {
    Table1(data::Table1Inputs),
    Customer(data::CustomerInputs),
}

impl Inputs {
    fn load(&self) -> Database {
        match self {
            Inputs::Table1(i) => data::load_table1(i),
            Inputs::Customer(i) => data::load_customer(i),
        }
    }
}

/// One set-up of one database: load the generated rows, hand them to a
/// checker, build every index cold, and (for `table1-run`) write the
/// index cache. Runs inside the caller's `setup` span. Returns the time
/// and, when `keep` is set, a copy of the loaded database made after the
/// timer stopped.
fn setup_once(
    kind: Batch,
    inputs: &Inputs,
    cache: &Path,
    keep: bool,
    tr: &mut Tracer,
) -> Result<(f64, Option<Database>), String> {
    if kind == Batch::Table1 {
        let _ = std::fs::remove_dir_all(cache);
    }
    let t0 = Instant::now();
    tr.begin("relstore.load");
    let db = inputs.load();
    tr.end();
    let mut ck = Checker::new(db, options(false));
    match kind {
        Batch::Table1 => {
            tr.begin("store.open");
            let mut store = IndexStore::open(cache).map_err(|e| format!("open cache: {e}"))?;
            tr.end();
            tr.begin("store.warm_start");
            store
                .warm_start(&mut ck)
                .map_err(|e| format!("warm start: {e}"))?;
            tr.end();
            tr.begin("store.write_back");
            store
                .write_back(&mut ck)
                .map_err(|e| format!("write back: {e}"))?;
            tr.end();
        }
        Batch::Lanes => {
            tr.begin("index.build");
            for rel in relations_of(kind) {
                ck.ensure_index(rel)
                    .map_err(|e| format!("index {rel}: {e}"))?;
            }
            tr.end();
        }
        Batch::Sql => {}
    }
    let s = t0.elapsed().as_secs_f64();
    Ok((s, keep.then(|| ck.logical_db().db().clone())))
}

/// One timed `relcheck run`. `base` is cloned before the timer starts.
fn iterate(
    kind: Batch,
    base: &Database,
    constraints: &[(String, Formula)],
    cache: &Path,
    tr: &mut Tracer,
) -> Result<Iteration, String> {
    let db = base.clone();
    let telemetry = tr.on();
    let t0 = Instant::now();
    tr.begin("run");
    let mut ck = Checker::new(db, options(telemetry));
    let mut store = None;
    let mut registry = None;
    let mut fleet = None;
    let decide_t0 = Instant::now();
    let reports = match kind {
        Batch::Table1 => {
            tr.begin("store.open");
            let mut s = IndexStore::open(cache).map_err(|e| format!("open cache: {e}"))?;
            tr.end();
            tr.begin("store.warm_start");
            s.warm_start(&mut ck)
                .map_err(|e| format!("warm start: {e}"))?;
            tr.end();
            let mut reg = ConstraintRegistry::new();
            for (name, f) in constraints {
                reg.register(name, f.clone());
            }
            tr.begin("registry.validate_all");
            let reports = reg
                .validate_all(&mut ck)
                .map_err(|e| format!("validate: {e}"))?;
            tr.end();
            tr.begin("store.write_back");
            s.write_back(&mut ck)
                .map_err(|e| format!("write back: {e}"))?;
            tr.end();
            store = Some(s);
            registry = Some(reg);
            reports
        }
        Batch::Lanes => {
            tr.begin("index.build");
            for rel in relations_of(kind) {
                ck.ensure_index(rel)
                    .map_err(|e| format!("index {rel}: {e}"))?;
            }
            tr.end();
            tr.begin("parallel.check_all");
            let (reports, f) = ck
                .check_all_parallel_telemetry(constraints, LANES)
                .map_err(|e| format!("parallel check: {e}"))?;
            tr.end();
            fleet = Some(f);
            reports
        }
        Batch::Sql => {
            let mut reports = Vec::new();
            for (name, f) in constraints {
                tr.begin("sql.check");
                let r = ck.check_sql(f).map_err(|e| format!("sql {name}: {e}"))?;
                tr.end();
                reports.push((name.clone(), r));
            }
            reports
        }
    };
    let decide_ms = decide_t0.elapsed().as_secs_f64() * 1e3;
    let mut drill = Vec::new();
    let mut listed = Vec::new();
    for ((_, f), (_, r)) in constraints.iter().zip(&reports) {
        if r.verdict == Verdict::Violated {
            tr.begin("drill");
            let (d, rows) = drill_one(&mut ck, f);
            tr.end();
            drill.push(d);
            listed.push(rows);
        } else {
            drill.push(Some((0, 0)));
            listed.push(None);
        }
    }
    tr.end();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    // Everything below runs after the timer stopped.
    for (d, rows) in drill.iter_mut().zip(&listed) {
        if let (Some((_, h)), Some(rows)) = (d.as_mut(), rows) {
            *h = hash_rows(rows);
        }
    }
    let mut counters = Counters::batch(
        &ck,
        &reports,
        store.as_ref(),
        registry.as_ref(),
        fleet.as_ref(),
    );
    counters.drill_rows = drill.iter().flatten().map(|(n, _)| *n as u64).sum();
    Ok(Iteration {
        ms,
        decide_ms,
        reports,
        drill,
        counters,
    })
}

/// Check one iteration against the oracle: a wrong verdict or a wrong
/// drill-down is an error; an undecided verdict counts as failed.
fn verify(it: &Iteration, expected: &[Expected]) -> Result<u64, String> {
    let mut failed = 0;
    for (((name, r), d), e) in it.reports.iter().zip(&it.drill).zip(expected) {
        if !r.verdict.is_decided() {
            failed += 1;
            continue;
        }
        if r.holds != e.holds {
            return Err(format!(
                "{name}: verdict {} but the SQL oracle says {}",
                r.verdict.name(),
                if e.holds { "holds" } else { "violated" }
            ));
        }
        if *d != e.drill {
            return Err(format!(
                "{name}: drill-down {d:?} but the SQL oracle found {:?}",
                e.drill
            ));
        }
    }
    Ok(failed)
}

pub fn method_name(m: Method) -> &'static str {
    match m {
        Method::Bdd => "bdd",
        Method::SqlFallback => "sql",
        Method::BruteForce => "brute",
        Method::Aborted => "aborted",
    }
}

/// One generated database of a workload: its inputs, the loaded copy
/// iterations clone, its index cache, and the oracle's answers.
struct Db {
    inputs: Inputs,
    base: Database,
    cache: PathBuf,
    /// Where the set-ups after the first write their cache.
    scratch: PathBuf,
    expected: Vec<Expected>,
}

/// Set up every database of the workload once; returns the summed time.
/// The first set-up writes the cache the iterations read, and its loaded
/// database becomes the one they clone: two loads of the same rows may
/// order `TAKES` differently (the curriculum generator enrolls from a
/// `HashSet`), and a cache written from another load fails the
/// fingerprint check. Later set-ups write a scratch cache.
fn setup_all(kind: Batch, dbs: &mut [Db], first: bool, tr: &mut Tracer) -> Result<f64, String> {
    tr.begin("setup");
    let mut s = 0.0;
    for db in dbs.iter_mut() {
        let cache = if first { &db.cache } else { &db.scratch };
        let (secs, loaded) = setup_once(kind, &db.inputs, cache, first, tr)?;
        s += secs;
        if let Some(loaded) = loaded {
            db.base = loaded;
        }
    }
    tr.end();
    Ok(s)
}

/// Run one batch workload for `ctx.seconds` and report it.
pub fn run(kind: Batch, ctx: &Ctx, sizes: Sizes) -> Result<Outcome, String> {
    let (count, constraints) = match kind {
        Batch::Table1 => (sizes.table1_dbs, data::table1_constraints()),
        Batch::Lanes | Batch::Sql => (1, data::customer_constraints()),
    };
    let mut dbs = Vec::new();
    for j in 0..count {
        // Disjoint sub-seeds: seed s draws databases s·count … s·count+count−1.
        let seed = ctx.seed.wrapping_mul(count as u64).wrapping_add(j as u64);
        let inputs = match kind {
            Batch::Table1 => Inputs::Table1(data::table1_inputs(sizes.table1_tuples, seed)),
            Batch::Lanes | Batch::Sql => Inputs::Customer(data::customer_inputs(
                sizes.customer_rows,
                sizes.customer_doms,
                seed,
            )),
        };
        dbs.push(Db {
            inputs,
            base: Database::new(),
            cache: ctx.work.join(format!("index-cache-{j}")),
            scratch: ctx.work.join(format!("index-cache-{j}-setup")),
            expected: Vec::new(),
        });
    }
    let mut tr = Tracer::new(ctx.trace);
    let mut setup = Samples::default();
    setup.0.push(setup_all(kind, &mut dbs, true, &mut tr)?);
    for db in &mut dbs {
        db.expected = oracle(&db.base, &constraints)?;
    }
    let mut labels = Labels::new(ctx, dbs.iter().map(|d| data::relation_sizes(&d.base)));

    let mut runs = Samples::default();
    let mut decide = Samples::default();
    let mut traced: Vec<Counters> = Vec::new();
    let mut traced_runs = Samples::default();
    let mut side = Side::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut i = 0u64;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        // Set-ups are spread over the run, the first before any iteration,
        // so they sample the same machine conditions as the iterations.
        if setup.len() < SETUPS && elapsed >= setup.len() as f64 * ctx.seconds / SETUPS as f64 {
            tr.set_on(ctx.trace);
            setup.0.push(setup_all(kind, &mut dbs, false, &mut tr)?);
            continue;
        }
        if elapsed >= ctx.seconds && runs.len() + traced.len() >= 5 {
            break;
        }
        // The traced run alternates traced and untraced iterations so
        // the tracing overhead is measured under the same conditions.
        let traced_turn = ctx.trace && i % 2 == 1;
        tr.set_on(traced_turn);
        tr.begin("iteration");
        let (mut ms, mut decide_ms) = (0.0, 0.0);
        let mut counters = Counters::default();
        for db in &dbs {
            let it = iterate(kind, &db.base, &constraints, &db.cache, &mut tr)?;
            failed += verify(&it, &db.expected)?;
            attempted += it.reports.len() as u64;
            labels.note_methods(
                it.reports
                    .iter()
                    .map(|(n, r)| (n.as_str(), method_name(r.method))),
            );
            ms += it.ms;
            decide_ms += it.decide_ms;
            counters.add(&it.counters);
        }
        tr.end();
        labels.note_nodes(counters.index_nodes, counters.peak_nodes);
        if traced_turn {
            traced_runs.0.push(ms);
            side_measurements(kind, &dbs[0].base, &constraints, &mut tr, &mut side)?;
            traced.push(counters);
        } else {
            runs.0.push(ms);
            decide.0.push(decide_ms);
        }
        i += 1;
    }
    tr.set_on(ctx.trace);

    let mut out = Outcome::new(labels, attempted, failed);
    out.end_to_end(&setup, &runs);
    out.report("setup_s", setup.median(), "s", setup.len());
    out.report("run_p50_ms", runs.median(), "ms", runs.len());
    out.report("run_p90_ms", runs.pct(0.9), "ms", runs.len());
    out.report("decide_p50_ms", decide.median(), "ms", decide.len());
    out.report(
        "runs_per_s",
        1e3 * runs.len() as f64 / runs.0.iter().sum::<f64>(),
        "1/s",
        runs.len(),
    );
    if ctx.trace {
        let first = traced
            .first()
            .ok_or("the traced run made no traced iteration")?;
        let mut m = LayerMetrics::default();
        m.counts(first);
        m.timings(&tr, &traced.iter().collect::<Vec<_>>());
        if kind == Batch::Table1 {
            let bytes: u64 = dbs.iter().map(|d| dir_bytes(&d.cache, false)).sum();
            m.set(
                "store.cache_bytes_per_row",
                ratio(bytes as f64, out.labels.total_rows() as f64),
            );
        }
        if kind != Batch::Sql {
            // The lanes time their parallel pass in the iteration itself;
            // table1-run times one on its first database beside it.
            let par = match kind {
                Batch::Lanes => tr.per_root("iteration", "parallel.check_all"),
                _ => tr.per_root("side", "parallel.check_all"),
            };
            m.set("parallel.check_ms", par.median());
            m.set("parallel.serial_ms", side.serial.median());
            m.set(
                "parallel.speedup",
                ratio(side.serial.median(), par.median()),
            );
            m.set("sql.check_ms", tr.per_root("side", "sql.check").median());
        }
        if let Some(lanes) = &side.lanes {
            m.lanes(lanes);
        }
        m.set("plan.ms", side.plan.median());
        m.set("index.build_ms", index_build_ms(kind, &tr, &dbs)?);
        m.set(
            "trace.overhead_ratio",
            ratio(traced_runs.median(), runs.median()),
        );
        m.set("trace.base_ms", runs.median());
        out.layers = Some(m);
    }
    out.spans = Some(tr);
    for db in &dbs {
        let _ = std::fs::remove_dir_all(&db.cache);
        let _ = std::fs::remove_dir_all(&db.scratch);
    }
    Ok(out)
}

/// What the side measurements of a traced run collected.
#[derive(Default)]
struct Side {
    plan: Samples,
    serial: Samples,
    /// Lane counters of the first side parallel pass.
    lanes: Option<Counters>,
}

/// Side measurements of a traced iteration, outside its `iteration`
/// span, on one database: planning every constraint, the constraints
/// through the serial `Checker::check_all` and through the SQL rung
/// (`Checker::check_sql`), and for `table1-run` also through two
/// parallel lanes (the lanes workload times those in the iteration).
fn side_measurements(
    kind: Batch,
    base: &Database,
    constraints: &[(String, Formula)],
    tr: &mut Tracer,
    side: &mut Side,
) -> Result<(), String> {
    if kind == Batch::Sql {
        return Ok(());
    }
    let fresh = || -> Result<Checker, String> {
        let mut ck = Checker::new(base.clone(), options(false));
        for rel in relations_of(kind) {
            ck.ensure_index(rel)
                .map_err(|e| format!("index {rel}: {e}"))?;
        }
        Ok(ck)
    };
    let mut ck = fresh()?;
    let mut lanes_ck = if kind == Batch::Table1 {
        Some(fresh()?)
    } else {
        None
    };
    tr.begin("side");
    tr.begin("plan");
    let t0 = Instant::now();
    for (name, f) in constraints {
        ck.plan(f).map_err(|e| format!("plan {name}: {e}"))?;
    }
    side.plan.push_ms(t0);
    tr.end();
    tr.begin("parallel.serial_check_all");
    let t0 = Instant::now();
    ck.check_all(constraints)
        .map_err(|e| format!("serial check: {e}"))?;
    side.serial.push_ms(t0);
    tr.end();
    for (name, f) in constraints {
        tr.begin("sql.check");
        ck.check_sql(f).map_err(|e| format!("sql {name}: {e}"))?;
        tr.end();
    }
    if let Some(pck) = lanes_ck.as_mut() {
        tr.begin("parallel.check_all");
        let (_, fleet) = pck
            .check_all_parallel_telemetry(constraints, LANES)
            .map_err(|e| format!("parallel check: {e}"))?;
        tr.end();
        if side.lanes.is_none() {
            side.lanes = Some(Counters::batch(pck, &[], None, None, Some(&fleet)));
        }
    }
    tr.end();
    Ok(())
}

/// Cold index build of every relation: the lanes do it in every
/// iteration; for `table1-run` it is measured once per database on a
/// fresh checker (its iterations import the cached indices instead).
fn index_build_ms(kind: Batch, tr: &Tracer, dbs: &[Db]) -> Result<f64, String> {
    match kind {
        Batch::Lanes => Ok(tr.per_root("iteration", "index.build").median()),
        Batch::Sql => Ok(0.0),
        Batch::Table1 => {
            let mut ms = 0.0;
            for db in dbs {
                let mut ck = Checker::new(db.base.clone(), options(false));
                let t0 = Instant::now();
                for rel in relations_of(kind) {
                    ck.ensure_index(rel)
                        .map_err(|e| format!("index {rel}: {e}"))?;
                }
                ms += t0.elapsed().as_secs_f64() * 1e3;
            }
            Ok(ms)
        }
    }
}

/// Bytes of the files in a cache directory; journals only when asked.
pub fn dir_bytes(dir: &Path, journals: bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| {
                    let is_journal = e.path().extension().is_some_and(|x| x == "jnl");
                    is_journal == journals
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn report(verdict: Verdict) -> CheckReport {
        CheckReport {
            holds: verdict != Verdict::Violated,
            verdict,
            error: None,
            method: Method::Bdd,
            elapsed: Duration::ZERO,
            live_nodes: 0,
            metrics: None,
        }
    }

    fn iteration(verdict: Verdict, drill: Drill) -> Iteration {
        Iteration {
            ms: 1.0,
            decide_ms: 1.0,
            reports: vec![("c".to_owned(), report(verdict))],
            drill: vec![drill],
            counters: Counters::default(),
        }
    }

    #[test]
    fn the_gate_rejects_wrong_answers_and_counts_undecided_ones() {
        let violated = [Expected {
            holds: false,
            drill: Some((3, 42)),
        }];
        assert_eq!(
            verify(&iteration(Verdict::Violated, Some((3, 42))), &violated),
            Ok(0)
        );
        assert!(verify(&iteration(Verdict::Holds, Some((0, 0))), &violated).is_err());
        assert!(verify(&iteration(Verdict::Violated, Some((2, 42))), &violated).is_err());
        assert!(verify(&iteration(Verdict::Violated, Some((3, 7))), &violated).is_err());
        assert_eq!(
            verify(&iteration(Verdict::Degraded, None), &violated),
            Ok(1)
        );
    }

    #[test]
    fn the_naive_count_agrees_with_the_sql_rung_on_a_hand_built_database() {
        // City 1 has two states (rows 0 and 1 break city → state); area
        // code 0 spans states 1 and 2; city 2 is missing from CITY_STATE;
        // the reference itself maps city 1 to state 1 only.
        let cust = [[0, 1, 1], [0, 1, 2], [1, 2, 3]];
        let cs = [[1, 1], [3, 0]];
        let db = data::customer_db([2, 1, 4, 4, 1], &cust, &cs);
        let want = [
            ("reference-agrees", 1),
            ("city-determines-state", 2),
            ("areacode-determines-state", 2),
            ("cities-are-known", 1),
            ("reference-is-functional", 0),
        ];
        for (name, n) in want {
            assert_eq!(naive_count(name, &db), Some(n), "{name}");
        }
        let expected = oracle(&db, &data::customer_constraints()).unwrap();
        let counts: Vec<usize> = expected.iter().map(|e| e.drill.unwrap().0).collect();
        assert_eq!(counts, [1, 2, 2, 1, 0]);
    }
}
