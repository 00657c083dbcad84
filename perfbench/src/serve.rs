//! `customer-serve`: a durable serve session driven by one closed-loop
//! client. Each round is nine tuple deltas then one `check`.

use crate::batch::{dir_bytes, method_name, naive_count};
use crate::data::{self, Sizes};
use crate::layers::{Counters, LayerMetrics};
use crate::measure::{ratio, Samples, Tracer};
use crate::{Ctx, Labels, Outcome, Routing, SETUPS};
use relcheck_bdd::ManagerStats;
use relcheck_core::checker::{Checker, CheckerOptions};
use relcheck_core::serve::{Reply, ServeActor, ServeConfig, ServeEngine, Submission};
use relcheck_core::store::{journal_header, IndexStore};
use relcheck_core::telemetry::{OverloadMetrics, ServeMetrics};
use relcheck_datagen::SplitMix64;
use relcheck_logic::Formula;
use relcheck_relstore::Database;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Deltas sent before each `check`.
pub const DELTAS_PER_CHECK: usize = 9;
/// Rounds per pass of the traced run; its counts come from the first pass.
const TRACE_PASS_ROUNDS: usize = 20;
/// Script-inserted rows kept alive, per relation. The script inserts
/// until the pool is full, then deletes one of its rows whenever it is
/// full, so after a short ramp the session's data, and the cost of a
/// check, stay level instead of wandering with a random walk.
const POOL: [usize; 2] = [16, 4];

/// One tuple delta of the script.
#[derive(Debug, Clone)]
enum Row {
    Cust([u32; 3]),
    CityState([u32; 2]),
}

/// The seeded delta script plus the shadow row sets it is checked
/// against. In-domain `CUST` inserts and deletes of earlier inserts, with
/// about one delta in ten touching `CITY_STATE`.
pub struct Script {
    rng: SplitMix64,
    doms: [u64; 5],
    pub cust: BTreeSet<[u32; 3]>,
    pub city_state: BTreeSet<[u32; 2]>,
    inserted_cust: Vec<[u32; 3]>,
    inserted_cs: Vec<[u32; 2]>,
}

/// A delta waiting for its acknowledgement.
struct Pending {
    line: String,
    row: Row,
    insert: bool,
}

impl Script {
    pub fn new(seed: u64, inputs: &data::CustomerInputs) -> Script {
        Script {
            rng: SplitMix64::seed_from_u64(seed ^ 0x5e7e_5e7e),
            doms: inputs.doms,
            cust: inputs.cust.iter().copied().collect(),
            city_state: inputs.city_state.iter().copied().collect(),
            inserted_cust: Vec::new(),
            inserted_cs: Vec::new(),
        }
    }

    fn next_delta(&mut self) -> Pending {
        let cs = self.rng.gen_range(0..100u64) < 10;
        let pool = if cs {
            (self.inserted_cs.len(), POOL[1])
        } else {
            (self.inserted_cust.len(), POOL[0])
        };
        let delete = pool.0 >= pool.1;
        let pick = |rng: &mut SplitMix64, n: usize| rng.gen_range(0..n as u64) as usize;
        if cs {
            if delete {
                let i = pick(&mut self.rng, self.inserted_cs.len());
                let r = self.inserted_cs.swap_remove(i);
                return Pending::new(Row::CityState(r), false);
            }
            let r = [
                self.rng.gen_range(0..self.doms[2]) as u32,
                self.rng.gen_range(0..self.doms[3]) as u32,
            ];
            return Pending::new(Row::CityState(r), true);
        }
        if delete {
            let i = pick(&mut self.rng, self.inserted_cust.len());
            let r = self.inserted_cust.swap_remove(i);
            return Pending::new(Row::Cust(r), false);
        }
        let r = [
            self.rng.gen_range(0..self.doms[0]) as u32,
            self.rng.gen_range(0..self.doms[2]) as u32,
            self.rng.gen_range(0..self.doms[3]) as u32,
        ];
        Pending::new(Row::Cust(r), true)
    }

    /// Whether the shadow state says the delta changes the relation.
    fn expect_change(&self, p: &Pending) -> bool {
        let present = match &p.row {
            Row::Cust(r) => self.cust.contains(r),
            Row::CityState(r) => self.city_state.contains(r),
        };
        present != p.insert
    }

    /// Fold an acknowledged delta into the shadow state.
    fn acknowledge(&mut self, p: &Pending) {
        let changed = self.expect_change(p);
        match (&p.row, p.insert) {
            (Row::Cust(r), true) => {
                if changed {
                    self.inserted_cust.push(*r);
                }
                self.cust.insert(*r);
            }
            (Row::Cust(r), false) => {
                self.cust.remove(r);
            }
            (Row::CityState(r), true) => {
                if changed {
                    self.inserted_cs.push(*r);
                }
                self.city_state.insert(*r);
            }
            (Row::CityState(r), false) => {
                self.city_state.remove(r);
            }
        }
    }

    /// A delta the server refused goes back into the pool.
    fn refuse(&mut self, p: &Pending) {
        match (&p.row, p.insert) {
            (Row::Cust(r), false) => self.inserted_cust.push(*r),
            (Row::CityState(r), false) => self.inserted_cs.push(*r),
            _ => {}
        }
    }
}

impl Pending {
    fn new(row: Row, insert: bool) -> Pending {
        let sign = if insert { '+' } else { '-' };
        let line = match &row {
            Row::Cust([a, c, s]) => format!("{sign}CUST:{a},{c},{s}"),
            Row::CityState([c, s]) => format!("{sign}CITY_STATE:{c},{s}"),
        };
        Pending { line, row, insert }
    }

    fn relation(&self) -> &'static str {
        match self.row {
            Row::Cust(_) => "CUST",
            Row::CityState(_) => "CITY_STATE",
        }
    }
}

/// Latencies and failures of a stretch of the session.
#[derive(Default)]
struct Session {
    delta: Samples,
    check: Samples,
    failed: u64,
    attempted: u64,
}

/// How requests reach the engine: through the actor and a client, or by
/// calling `handle_line` directly (with spans when the tracer is on).
enum Driver<'a> {
    Client(&'a relcheck_core::serve::ServeClient),
    Direct(&'a mut ServeEngine, &'a mut Tracer),
}

impl Driver<'_> {
    fn send(&mut self, line: &str, span: &'static str) -> Option<Reply> {
        match self {
            Driver::Client(c) => match c.submit(line) {
                Submission::Reply(r) => Some(r),
                Submission::Busy { .. } | Submission::Closed => None,
            },
            Driver::Direct(engine, tr) => {
                tr.begin(span);
                let r = engine.handle_line(line);
                tr.end();
                Some(r)
            }
        }
    }
}

/// Run `rounds` rounds (or until `deadline`) of the script, calling
/// `between` with the seconds since the start after every round.
fn drive(
    driver: &mut Driver,
    script: &mut Script,
    rounds: Option<usize>,
    deadline: Option<(Instant, f64)>,
    s: &mut Session,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut done = 0;
    loop {
        if rounds.is_some_and(|r| done >= r)
            || deadline.is_some_and(|(t, secs)| t.elapsed().as_secs_f64() >= secs && done >= 1)
        {
            return Ok(());
        }
        for _ in 0..DELTAS_PER_CHECK {
            let p = script.next_delta();
            let expect = script.expect_change(&p);
            let t0 = Instant::now();
            let reply = driver.send(&p.line, "serve.delta");
            s.delta.push_ms(t0);
            s.attempted += 1;
            let Some(reply) = reply else {
                s.failed += 1;
                script.refuse(&p);
                continue;
            };
            let line = reply.lines.first().map_or("", String::as_str);
            let sign = if p.insert { '+' } else { '-' };
            let want = format!("ok delta {sign}{} applied={expect} ", p.relation());
            if line.starts_with("err") {
                s.failed += 1;
                script.refuse(&p);
                continue;
            }
            if !line.starts_with(&want) || line.contains("durable=false") {
                return Err(format!(
                    "delta {:?} answered {line:?}, expected {want:?}…",
                    p.line
                ));
            }
            script.acknowledge(&p);
        }
        let t0 = Instant::now();
        let reply = driver.send("check", "serve.check");
        s.check.push_ms(t0);
        s.attempted += 1;
        match reply {
            Some(r) if r.lines.iter().all(|l| !l.starts_with("err")) => {}
            _ => s.failed += 1,
        }
        done += 1;
        between(started.elapsed().as_secs_f64())?;
    }
}

fn options(telemetry: bool) -> CheckerOptions {
    CheckerOptions {
        telemetry,
        ..Default::default()
    }
}

/// Populate the index cache once, outside every timer.
fn populate_cache(base: &Database, cache: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(cache);
    let mut ck = Checker::new(base.clone(), options(false));
    let mut store = IndexStore::open(cache).map_err(|e| format!("open cache: {e}"))?;
    store
        .warm_start(&mut ck)
        .map_err(|e| format!("populate cache: {e}"))?;
    store
        .write_back(&mut ck)
        .map_err(|e| format!("populate cache: {e}"))?;
    Ok(())
}

/// A set-up's engine, the method that answered each constraint of its
/// priming validation, and the set-up time in seconds.
type SetUp = (ServeEngine, Vec<(String, &'static str)>, f64);

/// One set-up: warm start from the cache, then the engine's priming
/// validation.
fn setup_once(
    base: &Database,
    constraints: &[(String, Formula)],
    cache: &Path,
    telemetry: bool,
    tr: &mut Tracer,
) -> Result<SetUp, String> {
    let db = base.clone();
    let t0 = Instant::now();
    tr.begin("setup");
    let mut ck = Checker::new(db, options(telemetry));
    tr.begin("store.open");
    let mut store = IndexStore::open(cache).map_err(|e| format!("open cache: {e}"))?;
    tr.end();
    tr.begin("store.warm_start");
    store
        .warm_start(&mut ck)
        .map_err(|e| format!("warm start: {e}"))?;
    tr.end();
    tr.begin("serve.engine_new");
    let (engine, reports) =
        ServeEngine::new(ck, constraints, Some(store)).map_err(|e| format!("engine: {e}"))?;
    tr.end();
    tr.end();
    let s = t0.elapsed().as_secs_f64();
    let methods = reports
        .iter()
        .map(|(n, r)| (n.clone(), method_name(r.method)))
        .collect();
    Ok((engine, methods, s))
}

/// Label the routing the session ended with. The methods of the priming
/// validation say which rung answered at set-up; a relation the periodic
/// re-advise (every `READVISE_INTERVAL` deltas) routed to SQL since then
/// adds `sql` to every constraint that reads it.
fn note_routing(labels: &mut Labels, engine: &ServeEngine) {
    let p = engine.policy_metrics().unwrap_or_default();
    let sql_only: Vec<String> = ["CITY_STATE", "CUST"]
        .into_iter()
        .filter(|r| engine.checker().is_sql_only(r))
        .map(str::to_owned)
        .collect();
    let registry = engine.registry();
    let rerouted: Vec<&str> = registry
        .names()
        .into_iter()
        .filter(|n| {
            registry
                .read_set(n)
                .is_some_and(|reads| sql_only.iter().any(|r| reads.contains(r)))
        })
        .collect();
    labels.note_methods(rerouted.into_iter().map(|n| (n, "sql")));
    labels.routing = Some(Routing {
        readvises: p.readvises,
        advised_sql: p.advised_sql,
        applied_sql_only: p.applied_sql_only,
        applied_rebuilds: p.applied_rebuilds,
        sql_only,
    });
}

/// Cold `Checker::check_all` over the script's final rows, checked
/// against a naive count of the violating tuples.
fn oracle(
    doms: [u64; 5],
    script: &Script,
    constraints: &[(String, Formula)],
) -> Result<Vec<bool>, String> {
    let db = data::customer_db(doms, &script.cust, &script.city_state);
    let mut ck = Checker::new(db.clone(), options(false));
    let reports = ck
        .check_all(constraints)
        .map_err(|e| format!("oracle: {e}"))?;
    reports
        .iter()
        .map(|(n, r)| {
            if !r.verdict.is_decided() {
                return Err(format!("oracle could not decide {n}"));
            }
            match naive_count(n, &db) {
                Some(v) if r.holds != (v == 0) => Err(format!(
                    "oracle: {n}: cold check says holds={}, a naive count finds {v} violations",
                    r.holds
                )),
                _ => Ok(r.holds),
            }
        })
        .collect()
}

/// The session's final verdicts must equal the oracle's; undecided ones
/// count as failed.
fn compare_final(
    engine: &ServeEngine,
    constraints: &[(String, Formula)],
    expected: &[bool],
) -> Result<u64, String> {
    let cached = engine.registry().cached();
    let mut undecided = 0;
    for ((name, _), want) in constraints.iter().zip(expected) {
        match cached.get(name).copied().flatten() {
            None => undecided += 1,
            Some(got) if got == *want => {}
            Some(got) => {
                return Err(format!(
                    "{name}: session says holds={got}, cold check says holds={want}"
                ))
            }
        }
    }
    Ok(undecided)
}

/// Durability: a reopened store warm-started over the base data must
/// reproduce the acknowledged rows and the oracle's verdicts.
fn check_durability(
    base: &Database,
    cache: &Path,
    script: &Script,
    constraints: &[(String, Formula)],
    expected: &[bool],
) -> Result<(), String> {
    let mut ck = Checker::new(base.clone(), options(false));
    let mut store = IndexStore::open(cache).map_err(|e| format!("reopen: {e}"))?;
    store
        .warm_start(&mut ck)
        .map_err(|e| format!("reopen warm start: {e}"))?;
    if !store.stats.recoveries.is_empty() {
        return Err(format!(
            "reopen needed recovery: {:?}",
            store.stats.recoveries
        ));
    }
    let db = ck.logical_db().db();
    let rows = |name: &str| -> BTreeSet<Vec<u32>> {
        db.relation(name)
            .map(|r| r.rows().collect())
            .unwrap_or_default()
    };
    let cust: BTreeSet<Vec<u32>> = script.cust.iter().map(|r| r.to_vec()).collect();
    let cs: BTreeSet<Vec<u32>> = script.city_state.iter().map(|r| r.to_vec()).collect();
    if rows("CUST") != cust || rows("CITY_STATE") != cs {
        return Err("reopened store does not hold the acknowledged rows".to_owned());
    }
    let reports = ck
        .check_all(constraints)
        .map_err(|e| format!("reopened check: {e}"))?;
    for ((name, r), want) in reports.iter().zip(expected) {
        if r.verdict.is_decided() && r.holds != *want {
            return Err(format!(
                "{name}: reopened store says holds={}, expected {want}",
                r.holds
            ));
        }
    }
    Ok(())
}

fn spawn_client_session(
    engine: ServeEngine,
    script: &mut Script,
    rounds: Option<usize>,
    seconds: Option<f64>,
    s: &mut Session,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<(ServeEngine, OverloadMetrics, f64), String> {
    let actor = ServeActor::spawn(engine, ServeConfig::default());
    let client = actor.client();
    let t0 = Instant::now();
    let driven = drive(
        &mut Driver::Client(&client),
        script,
        rounds,
        seconds.map(|secs| (t0, secs)),
        s,
        between,
    );
    let wall = t0.elapsed().as_secs_f64();
    let bye = match client.submit("quit") {
        Submission::Reply(r) => r.quit,
        _ => false,
    };
    // Every client handle must be gone before shutdown joins the actor.
    drop(client);
    let (engine, overload) = actor.shutdown();
    driven?;
    if !bye {
        return Err("the session did not acknowledge quit".to_owned());
    }
    Ok((engine, overload, wall))
}

pub fn run(ctx: &Ctx, sizes: Sizes) -> Result<Outcome, String> {
    let inputs = data::customer_inputs(sizes.serve_rows, sizes.serve_doms, ctx.seed);
    let constraints = data::customer_constraints();
    let base = data::load_customer(&inputs);
    let cache = ctx.work.join("index-cache");
    let mut tr = Tracer::new(ctx.trace);
    populate_cache(&base, &cache)?;

    // The session's engine comes from the first set-up. In the untraced
    // run the other set-ups are spread over the session, on a twin of the
    // cache the session does not write to, so they sample the same
    // machine conditions as the requests.
    let twin = ctx.work.join("index-cache-setup");
    let upfront = if ctx.trace { SETUPS } else { 1 };
    let mut setup = Samples::default();
    let mut engine = None;
    let mut methods = Vec::new();
    for _ in 0..upfront {
        drop(engine.take());
        let (e, m, s) = setup_once(&base, &constraints, &cache, ctx.trace, &mut tr)?;
        setup.0.push(s);
        engine = Some(e);
        methods = m;
    }
    let mut engine = engine.ok_or("no set-up ran")?;
    let mut labels = Labels::new(ctx, std::iter::once(data::relation_sizes(&base)));
    labels.note_methods(methods.iter().map(|(n, m)| (n.as_str(), *m)));
    let stats = engine.checker().logical_db().manager().stats();
    labels.note_nodes(engine.checker().logical_db().index_size(), stats.peak_nodes);
    let cache_bytes = dir_bytes(&cache, false);
    let mut script = Script::new(ctx.seed, &inputs);
    drop(inputs);

    let mut out;
    if !ctx.trace {
        populate_cache(&base, &twin)?;
        let mut s = Session::default();
        let mut setup_secs = 0.0;
        let mut between = |elapsed: f64| -> Result<(), String> {
            let due = setup.len() as f64 * ctx.seconds / SETUPS as f64;
            if setup.len() < SETUPS && elapsed >= due {
                let (_, _, secs) = setup_once(&base, &constraints, &twin, false, &mut tr)?;
                setup.0.push(secs);
                setup_secs += secs;
            }
            Ok(())
        };
        let (e, overload, wall) = spawn_client_session(
            engine,
            &mut script,
            None,
            Some(ctx.seconds),
            &mut s,
            &mut between,
        )?;
        let wall = wall - setup_secs;
        engine = e;
        note_routing(&mut labels, &engine);
        let expected = oracle(sizes.serve_doms, &script, &constraints)?;
        let undecided = compare_final(&engine, &constraints, &expected)?;
        let peak = engine.checker().logical_db().manager().stats().peak_nodes;
        drop(engine);
        // No write-back: the reopen must replay the acknowledged deltas
        // from the journal, as after a killed session.
        check_durability(&base, &cache, &script, &constraints, &expected)?;
        labels.note_nodes(0, peak);
        out = Outcome::new(labels, s.attempted, s.failed + undecided);
        let requests = s.delta.len() + s.check.len();
        out.end_to_end(&setup, &s.check);
        out.report("setup_s", setup.median(), "s", setup.len());
        out.report("delta_p50_ms", s.delta.median(), "ms", s.delta.len());
        out.report("delta_p99_ms", s.delta.pct(0.99), "ms", s.delta.len());
        out.report("check_p50_ms", s.check.median(), "ms", s.check.len());
        out.report("check_p90_ms", s.check.pct(0.9), "ms", s.check.len());
        out.report("requests_per_s", requests as f64 / wall, "1/s", requests);
        out.report("shed", overload.shed as f64, "count", requests);
        out.report("rejected", overload.rejected as f64, "count", requests);
    } else {
        let (o, e) = traced(
            ctx,
            engine,
            &mut script,
            &constraints,
            &mut tr,
            &setup,
            labels,
            &cache,
            cache_bytes,
        )?;
        out = o;
        engine = e;
        note_routing(&mut out.labels, &engine);
        let expected = oracle(sizes.serve_doms, &script, &constraints)?;
        out.failed += compare_final(&engine, &constraints, &expected)?;
        tr.begin("finish");
        tr.begin("store.write_back");
        engine.finish().map_err(|e| format!("finish: {e}"))?;
        tr.end();
        tr.end();
        drop(engine);
        check_durability(&base, &cache, &script, &constraints, &expected)?;
        let wb = tr.per_root("finish", "store.write_back").median();
        if let Some(m) = out.layers.as_mut() {
            m.set("store.write_back_ms", wb);
        }
    }
    out.spans = Some(tr);
    let _ = std::fs::remove_dir_all(&cache);
    Ok(out)
}

/// The traced run: passes of traced direct calls (D), untraced direct
/// calls (U) and untraced actor requests (A), until time is up. Counts
/// come from the first D pass; `serve.actor_overhead_ms` is A minus U.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    mut engine: ServeEngine,
    script: &mut Script,
    constraints: &[(String, Formula)],
    tr: &mut Tracer,
    setup: &Samples,
    labels: Labels,
    cache: &Path,
    cache_bytes: u64,
) -> Result<(Outcome, ServeEngine), String> {
    let mut m = LayerMetrics::default();
    // Side measurements: a cold index build on a fresh checker, and
    // planning every constraint on the session's checker.
    {
        let mut ck = Checker::new(engine.checker().logical_db().db().clone(), options(false));
        tr.begin("side");
        tr.begin("index.build");
        for rel in ["CITY_STATE", "CUST"] {
            ck.ensure_index(rel)
                .map_err(|e| format!("index {rel}: {e}"))?;
        }
        tr.end();
        tr.begin("plan");
        for (name, f) in constraints {
            engine
                .checker_mut()
                .plan(f)
                .map_err(|e| format!("plan {name}: {e}"))?;
        }
        tr.end();
        tr.end();
    }
    m.set(
        "index.build_ms",
        tr.per_root("side", "index.build").median(),
    );
    m.set("plan.ms", tr.per_root("side", "plan").median());
    m.set(
        "index.nodes",
        engine.checker().logical_db().index_size() as f64,
    );
    m.set(
        "store.warm_start_ms",
        tr.per_root("setup", "store.warm_start").median(),
    );
    m.set(
        "store.cache_bytes_per_row",
        ratio(cache_bytes as f64, labels.total_rows() as f64),
    );
    m.set("registry.validate_ms", engine.stats().full_ns as f64 / 1e6);

    let (mut d, mut u, mut a) = (Session::default(), Session::default(), Session::default());
    let mut overload = OverloadMetrics::default();
    let started = Instant::now();
    let mut pass = 0;
    while pass == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        // D: traced direct calls.
        tr.set_on(true);
        let before = snapshot(&engine);
        drive(
            &mut Driver::Direct(&mut engine, tr),
            script,
            Some(TRACE_PASS_ROUNDS),
            None,
            &mut d,
            &mut |_| Ok(()),
        )?;
        if pass == 0 {
            let c = pass_counters(&engine, &before);
            m.counts(&c);
            let st = engine.stats();
            let checks = (st.checks - before.serve.checks) as f64;
            m.set(
                "serve.dirty_mean",
                ratio((st.dirty_total - before.serve.dirty_total) as f64, checks),
            );
            m.set(
                "serve.incremental_vs_full",
                ratio(
                    (st.incremental_ns - before.serve.incremental_ns) as f64 / checks.max(1.0),
                    st.full_ns as f64,
                ),
            );
            m.set(
                "checker.check_ms",
                ratio(
                    (st.incremental_ns - before.serve.incremental_ns) as f64 / 1e6,
                    checks,
                ),
            );
        }
        // U: the same calls untraced.
        tr.set_on(false);
        drive(
            &mut Driver::Direct(&mut engine, tr),
            script,
            Some(TRACE_PASS_ROUNDS),
            None,
            &mut u,
            &mut |_| Ok(()),
        )?;
        // A: through the actor and one client.
        let (e, o, _) = spawn_client_session(
            engine,
            script,
            Some(TRACE_PASS_ROUNDS),
            None,
            &mut a,
            &mut |_| Ok(()),
        )?;
        engine = e;
        overload.shed += o.shed;
        overload.rejected += o.rejected;
        pass += 1;
    }
    tr.set_on(true);
    let deltas_acked = engine.stats().deltas;
    let journal_header_bytes: u64 = ["CITY_STATE", "CUST"]
        .iter()
        .map(|r| journal_header(r).len() as u64)
        .sum();
    m.set(
        "store.journal_bytes_per_delta",
        ratio(
            dir_bytes(cache, true).saturating_sub(journal_header_bytes) as f64,
            deltas_acked as f64,
        ),
    );
    let engine_delta = Samples(
        tr.spans
            .iter()
            .filter(|s| s.name == "serve.delta")
            .map(|s| s.ms())
            .collect(),
    );
    let engine_check = Samples(
        tr.spans
            .iter()
            .filter(|s| s.name == "serve.check")
            .map(|s| s.ms())
            .collect(),
    );
    m.set("serve.engine_delta_ms", engine_delta.median());
    m.set("serve.engine_check_ms", engine_check.median());
    m.set(
        "serve.actor_overhead_ms",
        a.delta.median() - u.delta.median(),
    );
    m.set("overload.shed", overload.shed as f64);
    m.set("overload.rejected", overload.rejected as f64);
    let all = |s: &Session| Samples(s.delta.0.iter().chain(&s.check.0).copied().collect());
    m.set(
        "trace.overhead_ratio",
        ratio(all(&d).mean(), all(&u).mean()),
    );
    m.set("trace.base_ms", all(&u).mean());

    let attempted = d.attempted + u.attempted + a.attempted;
    let failed = d.failed + u.failed + a.failed;
    let mut out = Outcome::new(labels, attempted, failed);
    out.end_to_end(setup, &a.check);
    out.report("setup_s", setup.median(), "s", setup.len());
    out.report(
        "engine_delta_p50_ms",
        engine_delta.median(),
        "ms",
        engine_delta.len(),
    );
    out.report(
        "engine_check_p50_ms",
        engine_check.median(),
        "ms",
        engine_check.len(),
    );
    out.report("actor_delta_p50_ms", a.delta.median(), "ms", a.delta.len());
    out.report("direct_delta_p50_ms", u.delta.median(), "ms", u.delta.len());
    out.layers = Some(m);
    Ok((out, engine))
}

/// Counter snapshot at the start of a pass.
struct Snapshot {
    bdd: ManagerStats,
    atom: (u64, u64),
    plan: (u64, u64),
    serve: ServeMetrics,
}

fn snapshot(engine: &ServeEngine) -> Snapshot {
    let p = engine.plan_cache_stats();
    Snapshot {
        bdd: engine.checker().logical_db().manager().stats(),
        atom: engine.checker().logical_db().atom_cache_stats(),
        plan: (p.hits, p.misses),
        serve: engine.stats(),
    }
}

/// Counters of one pass: deltas of every counter since `before`.
fn pass_counters(engine: &ServeEngine, before: &Snapshot) -> Counters {
    let ldb = engine.checker().logical_db();
    let stats = ldb.manager().stats();
    let atom = ldb.atom_cache_stats();
    let p = engine.plan_cache_stats();
    let st = engine.stats();
    Counters {
        bdd: stats.delta_since(&before.bdd),
        peak_nodes: stats.peak_nodes,
        index_nodes: ldb.index_size(),
        atom: (atom.0 - before.atom.0, atom.1 - before.atom.1),
        store: engine
            .store()
            .map_or((0, 0), |s| (s.stats.hits, s.stats.misses)),
        plan: (p.hits - before.plan.0, p.misses - before.plan.1),
        checked: st.constraints_checked - before.serve.constraints_checked,
        skipped: st.constraints_skipped - before.serve.constraints_skipped,
        undecided: engine
            .registry()
            .cached()
            .values()
            .filter(|v| v.is_none())
            .count() as u64,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_relation_routed_to_sql_shows_in_the_labels() {
        let sizes = Sizes::smoke();
        let inputs = data::customer_inputs(sizes.serve_rows, sizes.serve_doms, 1);
        let constraints = data::customer_constraints();
        let ck = Checker::new(data::load_customer(&inputs), options(false));
        let (mut engine, _) = ServeEngine::new(ck, &constraints, None).unwrap();
        let ctx = Ctx {
            workload: "customer-serve".to_owned(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            work: std::path::PathBuf::new(),
        };
        let mut labels = Labels::new(&ctx, std::iter::empty());
        note_routing(&mut labels, &engine);
        assert!(labels.routing.as_ref().unwrap().sql_only.is_empty());
        assert!(labels.methods.is_empty());

        engine.checker_mut().mark_sql_only("CITY_STATE");
        note_routing(&mut labels, &engine);
        assert_eq!(labels.routing.unwrap().sql_only, ["CITY_STATE"]);
        let rerouted: Vec<&str> = labels.methods.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            rerouted,
            [
                "reference-agrees",
                "cities-are-known",
                "reference-is-functional"
            ]
        );
    }
}
