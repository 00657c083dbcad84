//! Acceptance tests for the CheckPlan IR: golden plan snapshots, the
//! plan-vs-legacy differential gate, plan-cache hit/miss accounting, and
//! staleness regressions (a cached plan must never execute against a
//! mutated database or a changed checker configuration).

use relcheck_core::checker::{Checker, CheckerOptions, Method, Verdict};
use relcheck_core::registry::ConstraintRegistry;
use relcheck_core::telemetry::{validate_metrics_json, RunMetrics};
use relcheck_core::PlanOptions;
use relcheck_logic::eval::eval_sentence;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};

fn customer_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "CUST",
        &[
            ("city", "city"),
            ("areacode", "areacode"),
            ("state", "state"),
        ],
        vec![
            vec![Raw::str("Toronto"), Raw::Int(416), Raw::str("ON")],
            vec![Raw::str("Toronto"), Raw::Int(647), Raw::str("ON")],
            vec![Raw::str("Oshawa"), Raw::Int(905), Raw::str("ON")],
            vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NJ")],
            vec![Raw::str("Newark"), Raw::Int(212), Raw::str("NY")],
        ],
    )
    .unwrap();
    db.create_relation(
        "ALLOWED",
        &[("city", "city"), ("areacode", "areacode")],
        vec![
            vec![Raw::str("Toronto"), Raw::Int(416)],
            vec![Raw::str("Toronto"), Raw::Int(647)],
            vec![Raw::str("Oshawa"), Raw::Int(905)],
            vec![Raw::str("Newark"), Raw::Int(973)],
        ],
    )
    .unwrap();
    db
}

const FD: &str = "forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2";
const INCLUSION: &str = "forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)";
const EQUI_JOIN: &str = "forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)";

fn corpus() -> Vec<(&'static str, Formula)> {
    [
        ("fd-city-state", FD),
        ("inclusion", INCLUSION),
        ("allowed-served", EQUI_JOIN),
        ("nonempty", "exists c, a, s. CUST(c, a, s)"),
        (
            "toronto-codes",
            r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416, 647}"#,
        ),
        (
            "no-ny-allowed",
            r#"!(exists c, a, s. CUST(c, a, s) & ALLOWED(c, a) & s = "NY")"#,
        ),
        (
            "state-vocabulary",
            r#"forall c, a, s. CUST(c, a, s) -> s = "ON" | s = "NJ" | s = "NY""#,
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n, parse(s).unwrap()))
    .collect()
}

/// A plan's rendered text minus the fingerprint line (fingerprints are
/// deterministic but recomputed from upstream details — ordering hashes,
/// option bits — that would make the golden needlessly brittle; the
/// determinism test below covers them byte-for-byte).
fn render_sans_fingerprint(ck: &mut Checker, src: &str) -> String {
    let plan = ck.plan(&parse(src).unwrap()).unwrap();
    plan.render()
        .lines()
        .filter(|l| !l.trim_start().starts_with("fingerprint:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Golden snapshot: the FD's five-variable ∀-block strips entirely (R1×5
/// after R3×5), the refutation body is the classic premise ∧ ¬conclusion,
/// and R4 finds nothing to distribute (a single conjunction, no residual
/// block).
#[test]
fn golden_plan_fd() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let expected = "\
plan for: forall c, a1, s1, a2, s2. ((CUST(c, a1, s1) & CUST(c, a2, s2)) -> s1 = s2)
  options: prenex=on strip-leading=on forall-pushdown=on gate=on join-rename=on fused-quant=on
  passes:
    1. prenex-pullup [R3] fired=5 gated=0
       before: forall c, a1, s1, a2, s2. ((CUST(c, a1, s1) & CUST(c, a2, s2)) -> s1 = s2)
       after:  forall c. forall a1. forall s1. forall a2. forall s2. ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
    2. strip-leading-block [R1] fired=5 gated=0
       before: forall c. forall a1. forall s1. forall a2. forall s2. ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
       after:  ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
    3. refutation-nnf [--] fired=1 gated=0
       before: ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
       after:  (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
    4. forall-pushdown [R4] fired=0 gated=0
       before: (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
       after:  (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
  bdd step: test=violations-empty stripped=[c, a1, s1, a2, s2] join-rename=on fused-quant=on
    body: (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
  sql step: shape=violations columns=[city, areacode, state]
  ladder: bdd -> sql -> brute_force";
    assert_eq!(render_sans_fingerprint(&mut ck, FD), expected);
}

/// Golden snapshot: the inclusion dependency's refutation body is the
/// textbook anti-join `CUST ∧ ¬ALLOWED`.
#[test]
fn golden_plan_inclusion_dependency() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let expected = "\
plan for: forall c, a, s. (CUST(c, a, s) -> ALLOWED(c, a))
  options: prenex=on strip-leading=on forall-pushdown=on gate=on join-rename=on fused-quant=on
  passes:
    1. prenex-pullup [R3] fired=3 gated=0
       before: forall c, a, s. (CUST(c, a, s) -> ALLOWED(c, a))
       after:  forall c. forall a. forall s. (!(CUST(c, a, s)) | ALLOWED(c, a))
    2. strip-leading-block [R1] fired=3 gated=0
       before: forall c. forall a. forall s. (!(CUST(c, a, s)) | ALLOWED(c, a))
       after:  (!(CUST(c, a, s)) | ALLOWED(c, a))
    3. refutation-nnf [--] fired=1 gated=0
       before: (!(CUST(c, a, s)) | ALLOWED(c, a))
       after:  (CUST(c, a, s) & !(ALLOWED(c, a)))
    4. forall-pushdown [R4] fired=0 gated=0
       before: (CUST(c, a, s) & !(ALLOWED(c, a)))
       after:  (CUST(c, a, s) & !(ALLOWED(c, a)))
  bdd step: test=violations-empty stripped=[c, a, s] join-rename=on fused-quant=on
    body: (CUST(c, a, s) & !(ALLOWED(c, a)))
  sql step: shape=violations columns=[c, a, s]
  ladder: bdd -> sql -> brute_force";
    assert_eq!(render_sans_fingerprint(&mut ck, INCLUSION), expected);
}

/// Golden snapshot: the ∀∃ equi-join keeps a residual ∀-block after R1
/// (only the outer two strip), the refutation flips it from ∃ to ∀, and
/// the cost gate lets R4 distribute it into the conjunction (the
/// estimated sum 4 + 5 beats the product 4·5 on this fixture).
#[test]
fn golden_plan_equi_join() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let expected = "\
plan for: forall c, a. (ALLOWED(c, a) -> exists s. CUST(c, a, s))
  options: prenex=on strip-leading=on forall-pushdown=on gate=on join-rename=on fused-quant=on
  passes:
    1. prenex-pullup [R3] fired=3 gated=0
       before: forall c, a. (ALLOWED(c, a) -> exists s. CUST(c, a, s))
       after:  forall c. forall a. exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
    2. strip-leading-block [R1] fired=2 gated=0
       before: forall c. forall a. exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
       after:  exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
    3. refutation-nnf [--] fired=1 gated=0
       before: exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
       after:  forall s. (ALLOWED(c, a) & !(CUST(c, a, s)))
    4. forall-pushdown [R4] fired=1 gated=0
       before: forall s. (ALLOWED(c, a) & !(CUST(c, a, s)))
       after:  (ALLOWED(c, a) & forall s. !(CUST(c, a, s)))
  bdd step: test=violations-empty stripped=[c, a] join-rename=on fused-quant=on
    body: (ALLOWED(c, a) & forall s. !(CUST(c, a, s)))
  sql step: shape=violations columns=[c, a]
  ladder: bdd -> sql -> brute_force";
    assert_eq!(render_sans_fingerprint(&mut ck, EQUI_JOIN), expected);
}

/// Two independently-built checkers must produce byte-identical plans,
/// fingerprints included — the property `relcheck plan` and the CI
/// determinism smoke rely on.
#[test]
fn plans_are_deterministic_across_checkers() {
    for (name, f) in corpus() {
        let mut a = Checker::new(customer_db(), CheckerOptions::default());
        let mut b = Checker::new(customer_db(), CheckerOptions::default());
        assert_eq!(
            a.plan(&f).unwrap().render(),
            b.plan(&f).unwrap().render(),
            "{name}: plan text must be deterministic"
        );
    }
}

/// The differential gate from the ISSUE: for every corpus constraint, the
/// plan-based path returns the same four-valued verdict as the legacy
/// two-switch configurations and as brute force — serial and parallel.
#[test]
fn plan_execution_matches_legacy_and_brute_force() {
    let brute = Checker::new(customer_db(), CheckerOptions::default());
    for (name, f) in corpus() {
        let expected = eval_sentence(brute.logical_db().db(), &f).unwrap();
        // Plan path under the default (gated) options plus the two legacy
        // corner configurations.
        for plan in [
            PlanOptions::default(),
            PlanOptions::from_flags(true, true),
            PlanOptions::from_flags(false, false),
        ] {
            let mut ck = Checker::new(
                customer_db(),
                CheckerOptions {
                    plan,
                    ..Default::default()
                },
            );
            let report = ck.check(&f).unwrap();
            assert_eq!(report.method, Method::Bdd, "{name}: decided on rung 1");
            assert_eq!(report.holds, expected, "{name} under {plan:?}");
            assert_eq!(
                report.verdict,
                if expected {
                    Verdict::Holds
                } else {
                    Verdict::Violated
                },
                "{name} under {plan:?}"
            );
        }
    }
    // Parallel front-end over the whole corpus at once.
    let battery: Vec<(String, Formula)> = corpus()
        .into_iter()
        .map(|(n, f)| (n.to_owned(), f))
        .collect();
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    for (name, report) in ck.check_all_parallel(&battery, 3).unwrap() {
        let f = &battery.iter().find(|(n, _)| *n == name).unwrap().1;
        let expected = eval_sentence(&customer_db(), f).unwrap();
        assert_eq!(report.holds, expected, "{name} (parallel)");
    }
}

/// A plan produced by `Checker::plan` and re-submitted through
/// `check_planned` must decide identically to a planless check.
#[test]
fn precomputed_plans_execute_identically() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    for (name, f) in corpus() {
        let plan = ck.plan(&f).unwrap();
        let via_plan = ck.check_planned(&f, Some(&plan)).unwrap().0;
        let direct = ck.check(&f).unwrap();
        assert_eq!(
            (via_plan.holds, via_plan.verdict, via_plan.method),
            (direct.holds, direct.verdict, direct.method),
            "{name}"
        );
    }
}

/// Repeating an identical check through the registry hits the plan cache
/// (the ISSUE's metrics-v4 acceptance criterion), and the counters
/// surface in a schema-valid v4 document.
#[test]
fn repeated_checks_hit_the_plan_cache_and_metrics_v4_records_it() {
    let mut ck = Checker::new(
        customer_db(),
        CheckerOptions {
            telemetry: true,
            ..Default::default()
        },
    );
    let mut reg = ConstraintRegistry::new();
    for (name, f) in corpus() {
        assert!(reg.register(name, f));
    }
    let first = reg.validate_all(&mut ck).unwrap();
    let second = reg.validate_all(&mut ck).unwrap();
    for ((n1, r1), (_, r2)) in first.iter().zip(&second) {
        assert_eq!((r1.holds, r1.verdict), (r2.holds, r2.verdict), "{n1}");
    }
    let stats = reg.plan_cache_stats();
    assert_eq!(
        stats.misses,
        first.len() as u64,
        "first round plans everything"
    );
    assert_eq!(
        stats.hits,
        second.len() as u64,
        "second round reuses every plan"
    );
    let mut metrics = RunMetrics::from_reports(&second, None, 1);
    metrics.plan_cache = Some(stats);
    let doc = metrics.to_json();
    validate_metrics_json(&doc).unwrap();
    assert!(
        doc.contains(&format!(
            "\"plan_cache\":{{\"hits\":{},\"misses\":{}}}",
            stats.hits, stats.misses
        )),
        "v4 document carries the counters: {doc}"
    );
}

/// The staleness regression from the ISSUE: mutate a relation between two
/// checks of the same constraint — the cached plan must be invalidated
/// (a miss, not a hit) and the second verdict must reflect the new data.
#[test]
fn mutating_a_relation_invalidates_cached_plans() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let mut reg = ConstraintRegistry::new();
    let f = parse(INCLUSION).unwrap();
    assert!(reg.register("inclusion", f.clone()));

    // (Newark, 212) is not ALLOWED: violated on the seed data.
    assert!(!reg.check_cached(&mut ck, &f).unwrap().holds);
    // Repair it by inserting the missing ALLOWED row...
    let newark = ck
        .logical_db()
        .db()
        .code("city", &Raw::str("Newark"))
        .unwrap();
    let code212 = ck
        .logical_db()
        .db()
        .code("areacode", &Raw::Int(212))
        .unwrap();
    ck.logical_db_mut()
        .insert_tuple("ALLOWED", &[newark, code212])
        .unwrap();
    // ...and the re-check must see the mutation, not a stale cached plan.
    assert!(reg.check_cached(&mut ck, &f).unwrap().holds);
    let stats = reg.plan_cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 2),
        "the mutation must force a replan"
    );

    // Unchanged data: now it caches.
    assert!(reg.check_cached(&mut ck, &f).unwrap().holds);
    assert_eq!(reg.plan_cache_stats().hits, 1);
}

/// `rebuild_index` and `mark_sql_only` bump the checker's epoch, so plans
/// cached before either call never execute afterwards — even though no
/// tuple changed.
#[test]
fn rebuild_and_sql_only_invalidate_cached_plans() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let mut reg = ConstraintRegistry::new();
    let f = parse(FD).unwrap();
    assert!(reg.register("fd", f.clone()));

    let r1 = reg.check_cached(&mut ck, &f).unwrap();
    assert_eq!(r1.method, Method::Bdd);

    ck.rebuild_index("CUST").unwrap();
    let r2 = reg.check_cached(&mut ck, &f).unwrap();
    assert_eq!((r1.holds, r1.verdict), (r2.holds, r2.verdict));

    ck.mark_sql_only("CUST");
    let r3 = reg.check_cached(&mut ck, &f).unwrap();
    assert_eq!(
        r3.method,
        Method::SqlFallback,
        "the post-flip plan must route around the BDD step"
    );
    assert_eq!((r1.holds, r1.verdict), (r3.holds, r3.verdict));

    let stats = reg.plan_cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 3),
        "every configuration change must miss"
    );
}

/// A constraint referencing a SQL-only relation plans with no BDD step at
/// all, and the plan's declared ladder matches what executing it reports.
#[test]
fn sql_only_plans_skip_the_bdd_rung() {
    let mut ck = Checker::new(
        customer_db(),
        CheckerOptions {
            telemetry: true,
            ..Default::default()
        },
    );
    ck.mark_sql_only("CUST");
    let f = parse(INCLUSION).unwrap();
    let plan = ck.plan(&f).unwrap();
    assert!(plan.bdd.is_none(), "sql-only relation suppresses the step");
    assert_eq!(plan.ladder(), vec!["sql", "brute_force"]);
    let report = ck.check(&f).unwrap();
    assert_eq!(report.method, Method::SqlFallback);
    let trace = report.metrics.expect("telemetry on");
    assert_eq!(trace.ladder, vec!["sql"], "decided on the first rung tried");
    assert!(
        trace.passes.is_empty(),
        "no BDD step planned, so no passes ran"
    );
}

/// Per-pass firing counts surface in the trace (telemetry v4): the
/// pipeline order and the fired counters must match the plan's records.
#[test]
fn traces_carry_per_pass_firing_counts() {
    let mut ck = Checker::new(
        customer_db(),
        CheckerOptions {
            telemetry: true,
            ..Default::default()
        },
    );
    let report = ck.check(&parse(EQUI_JOIN).unwrap()).unwrap();
    let trace = report.metrics.expect("telemetry on");
    let got: Vec<(&str, u64, u64)> = trace
        .passes
        .iter()
        .map(|p| (p.pass, p.fired, p.gated))
        .collect();
    assert_eq!(
        got,
        vec![
            ("prenex-pullup", 3, 0),
            ("strip-leading-block", 2, 0),
            ("refutation-nnf", 1, 0),
            ("forall-pushdown", 1, 0),
        ]
    );
}
