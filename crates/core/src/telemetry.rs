//! End-to-end telemetry: per-constraint traces, lane aggregation, and the
//! stable metrics JSON schema.
//!
//! The paper's argument is that logical indices let the checker *decide*
//! where time goes — BDD vs SQL fallback, which rewrite rules fired, how
//! the ordering strategy shaped node counts. This module makes those
//! decisions observable:
//!
//! * [`CheckTrace`] — what one [`crate::checker::Checker::check`] call did:
//!   phase timings, rewrite-rule firings (R1–R4, in application order),
//!   index build-vs-reuse, the BDD-vs-SQL routing decision with the
//!   node-budget reason on fallback, and the [`StatsDelta`] of BDD work.
//! * [`FleetTelemetry`] — lane-level aggregation across
//!   [`crate::parallel`] workers, merged deterministically (workers in
//!   batch order, constraint indices in input order), with fleet totals
//!   that are exactly the sum of the per-worker counters.
//! * [`RunMetrics`] — the machine-readable report emitted by
//!   `relcheck run --metrics <path.json>` and the bench binaries. The
//!   schema is documented in `DESIGN.md` and validated by
//!   [`validate_metrics_json`] (used by `relcheck metrics-check` and the
//!   CI smoke step). Everything here is std-only: the writer and the
//!   parser are hand-rolled.
//!
//! Overhead discipline: counters are plain integers maintained by
//! `relcheck-bdd` unconditionally; everything that allocates or reads the
//! clock is gated on `CheckerOptions::telemetry`.

use crate::checker::Method;
use relcheck_bdd::{OpKind, StatsDelta};
use std::time::Duration;

/// The rewrite rules of the paper's Section 4 pipeline, numbered as the
/// telemetry schema reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteRule {
    /// R1 — leading-quantifier-block elimination (§4.1): the outer ∀/∃
    /// block is dropped and the check becomes an O(1) validity /
    /// satisfiability test. Count = number of binders stripped.
    R1LeadingBlock,
    /// R2 — rename-based equi-join (§4.2): a relation atom's columns are
    /// renamed into query domains instead of conjoining equality BDDs.
    /// One firing per atom, count = number of non-identity renames.
    R2JoinRename,
    /// R3 — quantifier pull-up / prenex conversion (§4.3, Equations 3–4).
    /// Count = length of the resulting quantifier prefix.
    R3PrenexPullup,
    /// R4 — universal push-down over conjunction (Rule 5): count = number
    /// of ∀ blocks actually distributed across a conjunction.
    R4ForallPushdown,
}

impl RewriteRule {
    /// Stable machine-readable name (`"R1"` … `"R4"`).
    pub fn name(self) -> &'static str {
        match self {
            RewriteRule::R1LeadingBlock => "R1",
            RewriteRule::R2JoinRename => "R2",
            RewriteRule::R3PrenexPullup => "R3",
            RewriteRule::R4ForallPushdown => "R4",
        }
    }
}

/// One rewrite-rule firing, recorded in application order. Only firings
/// with `count > 0` are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleFiring {
    /// Which rule fired.
    pub rule: RewriteRule,
    /// Rule-specific magnitude (see [`RewriteRule`] variants).
    pub count: u64,
}

/// How a referenced relation's index was obtained for this check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexProvenance {
    /// Built during this check (first reference).
    Built,
    /// Already present in the manager; reused.
    Reused,
    /// Over the node budget (now or previously): permanently SQL-only.
    SqlOnly,
}

impl IndexProvenance {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            IndexProvenance::Built => "built",
            IndexProvenance::Reused => "reused",
            IndexProvenance::SqlOnly => "sql_only",
        }
    }
}

/// Index provenance for one relation referenced by a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEvent {
    /// Relation name.
    pub relation: String,
    /// Build vs reuse vs budget-out.
    pub provenance: IndexProvenance,
}

/// Why the BDD path was not (or could not be) taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// BDD construction aborted on the live-node budget (the paper's
    /// size-threshold strategy).
    NodeLimit {
        /// The configured budget.
        limit: usize,
        /// Live nodes at the abort.
        live: usize,
    },
    /// A referenced relation is SQL-only (its index busted the budget).
    UnindexedRelation,
    /// The per-check wall-clock deadline expired mid-recursion
    /// ([`relcheck_bdd::BddError::Deadline`]).
    Deadline,
    /// The node-budget abort survived a GC-and-retry: both BDD attempts
    /// busted the budget, so the ladder left the BDD path for good.
    RetryExhausted {
        /// The configured budget.
        limit: usize,
        /// Live nodes at the second abort.
        live: usize,
    },
    /// The check was killed outright — a caught panic payload or an
    /// injected-fault description (`relcheck run --fail-spec`).
    Panic(String),
    /// The admission governor shed this request: under overload the serve
    /// engine enters the ladder at the SQL rung (still exact, just
    /// cheaper on memory) instead of building BDDs.
    Overload,
}

impl FallbackReason {
    /// Stable machine-readable name, as the metrics schema reports it.
    pub fn name(&self) -> &'static str {
        match self {
            FallbackReason::NodeLimit { .. } => "node_limit",
            FallbackReason::UnindexedRelation => "unindexed_relation",
            FallbackReason::Deadline => "deadline",
            FallbackReason::RetryExhausted { .. } => "retry_exhausted",
            FallbackReason::Panic(_) => "panic",
            FallbackReason::Overload => "overload",
        }
    }
}

/// Wall-clock phase breakdown of one check (captured only with telemetry
/// enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Ensuring every referenced index exists (build or reuse).
    pub index: Duration,
    /// Compile + decide (BDD path and/or SQL fallback).
    pub eval: Duration,
    /// Whole check, including post-check GC.
    pub total: Duration,
}

/// One planner pass, as recorded in a check trace: how often it fired and
/// how often its cost gate declined it. Mirrors
/// [`crate::plan::PassRecord`] minus the before/after formula snapshots
/// (those stay in the plan; the trace carries only the counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStat {
    /// Stable pass name (e.g. `"prenex-pullup"`, `"forall-pushdown"`).
    pub pass: &'static str,
    /// The paper rewrite rule the pass implements, if any.
    pub rule: Option<RewriteRule>,
    /// How many times the pass's rewrite applied.
    pub fired: u64,
    /// How many candidate sites the cost gate declined.
    pub gated: u64,
}

/// Plan-cache counters for a registry-driven run (`plan_cache` in the
/// schema).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheMetrics {
    /// Checks answered by a cached [`crate::plan::CheckPlan`] whose
    /// fingerprints still matched.
    pub hits: u64,
    /// Checks that had to plan from scratch (first sight, or a stale
    /// fingerprint).
    pub misses: u64,
}

/// Workload-driven policy counters (`policy` in the schema): what the
/// [`crate::policy`] advisor recommended and what applying it did.
/// `None` at the [`RunMetrics`] level means the run never consulted the
/// advisor (static routing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyMetrics {
    /// Relations the advisor examined.
    pub relations: u64,
    /// Relations advised to keep (or build) a BDD index.
    pub advised_bdd: u64,
    /// Relations advised to route to the SQL rung.
    pub advised_sql: u64,
    /// Relations newly marked SQL-only when the advice was applied.
    pub applied_sql_only: u64,
    /// Indexed relations rebuilt under a different advised ordering.
    pub applied_rebuilds: u64,
    /// Relations whose recorded weights were re-seeded into the live
    /// workload.
    pub reseeded: u64,
    /// Periodic re-advise passes a serve session ran.
    pub readvises: u64,
    /// The apply-cache slot count the advice recommended.
    pub cache_slots: u64,
    /// Checks in the workload profile the advice was computed from.
    pub profile_checks: u64,
}

/// Structured trace of one `Checker::check` call. Attached to
/// [`crate::checker::CheckReport::metrics`] when
/// `CheckerOptions::telemetry` is set.
#[derive(Debug, Clone)]
pub struct CheckTrace {
    /// The routing decision (mirrors `CheckReport::method`, so the trace
    /// is self-contained).
    pub method: Method,
    /// Rewrite-rule firings in application order (R3 prenex, R1 strip,
    /// R4 push-down, then R2 per compiled atom). Empty on the SQL path.
    pub rules: Vec<RuleFiring>,
    /// Planner passes run for this check, in pipeline order, with fired
    /// and cost-gate-declined counts. Empty when the BDD step was not
    /// planned (SQL-only relations, errored checks).
    pub passes: Vec<PassStat>,
    /// Per-relation index provenance, in reference order.
    pub index_events: Vec<IndexEvent>,
    /// Why the BDD path was abandoned, if it was.
    pub fallback: Option<FallbackReason>,
    /// Degradation-ladder rungs traversed, in order (`"bdd"`,
    /// `"gc_retry"`, `"sql"`, `"brute_force"`, `"degraded"`, or
    /// `"errored"` for a check killed by a panic).
    pub ladder: Vec<&'static str>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// BDD work performed by this check (monotone-counter delta).
    pub bdd: StatsDelta,
}

/// Telemetry for one parallel lane (or the single lane of a serial pass).
#[derive(Debug, Clone)]
pub struct WorkerTelemetry {
    /// Lane number, in deterministic batch order.
    pub worker: usize,
    /// Input indices of the constraints this lane checked, ascending.
    pub constraints: Vec<usize>,
    /// All BDD work in the lane (index import/build + checks).
    pub bdd: StatsDelta,
    /// The lane manager's live-node high-water mark.
    pub peak_nodes: usize,
    /// The lane manager's recursion-depth high-water mark.
    pub depth_hwm: u32,
}

/// Deterministic merged telemetry for a whole `check_all_parallel` run.
#[derive(Debug, Clone)]
pub struct FleetTelemetry {
    /// Per-worker telemetry, in batch order.
    pub workers: Vec<WorkerTelemetry>,
    /// Sum of every worker's [`StatsDelta`] — exactly, by construction.
    pub total: StatsDelta,
}

impl FleetTelemetry {
    /// Assemble a fleet from its lanes, computing the total.
    pub fn from_workers(workers: Vec<WorkerTelemetry>) -> FleetTelemetry {
        let mut total = StatsDelta::default();
        for w in &workers {
            total += w.bdd;
        }
        FleetTelemetry { workers, total }
    }
}

/// Metrics for one named constraint, as serialized.
#[derive(Debug, Clone)]
pub struct ConstraintMetrics {
    /// Constraint name.
    pub name: String,
    /// Verdict.
    pub holds: bool,
    /// What the check established (decided vs degraded vs errored).
    pub verdict: crate::checker::Verdict,
    /// Why the check could not decide, for undecided verdicts.
    pub error: Option<String>,
    /// Decision path.
    pub method: Method,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The structured trace, when telemetry was enabled.
    pub trace: Option<CheckTrace>,
}

/// Run-level degradation summary: how many constraints came back without
/// a decided verdict, plus the fault-injection evidence when failpoints
/// were armed.
#[derive(Debug, Clone, Default)]
pub struct DegradationSummary {
    /// Constraints whose verdict was `degraded`.
    pub degraded: usize,
    /// Constraints whose verdict was `errored`.
    pub errored: usize,
    /// Constraints that left the straight BDD path (trace has a fallback
    /// reason). Zero when telemetry is off.
    pub fallbacks: usize,
    /// Failpoint evidence: `(seed, fired counts per site)`, present iff
    /// the registry was armed when the report was assembled.
    pub failpoints: Option<(u64, Vec<(&'static str, u64)>)>,
}

/// Closed vocabulary of index-store recovery reasons. The metrics
/// validator rejects anything outside this list, so a new failure mode
/// must be named here (and documented in DESIGN.md §5d) before it can
/// ship.
pub mod recovery_reason {
    /// The manifest failed frame or structural validation.
    pub const MANIFEST_CORRUPT: &str = "manifest_corrupt";
    /// A segment file failed its checksum or decode.
    pub const SEGMENT_CORRUPT: &str = "segment_corrupt";
    /// The manifest referenced a segment file that is not on disk.
    pub const SEGMENT_MISSING: &str = "segment_missing";
    /// A journal record in the body of the journal failed its CRC.
    pub const JOURNAL_CORRUPT: &str = "journal_corrupt";
    /// The journal ended in a partial record (torn append); the tail was
    /// discarded. This alone does not force a rebuild.
    pub const JOURNAL_TORN: &str = "journal_torn";
    /// The base CSV (or a sibling sharing an attribute class) changed
    /// since the segment was written.
    pub const STALE_FINGERPRINT: &str = "stale_fingerprint";
    /// Journaled values need a wider BDD block than the segment has.
    pub const DOMAIN_OVERFLOW: &str = "domain_overflow";
    /// Replaying a journal record through incremental maintenance failed.
    pub const REPLAY_FAILED: &str = "replay_failed";
    /// Every legal reason, for validation.
    pub const ALL: [&str; 8] = [
        MANIFEST_CORRUPT,
        SEGMENT_CORRUPT,
        SEGMENT_MISSING,
        JOURNAL_CORRUPT,
        JOURNAL_TORN,
        STALE_FINGERPRINT,
        DOMAIN_OVERFLOW,
        REPLAY_FAILED,
    ];
}

/// One recovery event from the persistent index store: something on disk
/// was unusable, the store said why, and the run carried on correctly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Relation whose cache entry was affected.
    pub relation: String,
    /// One of [`recovery_reason`]'s constants.
    pub reason: &'static str,
    /// Human-readable specifics (decode offset, fingerprints, …).
    pub detail: String,
}

/// Persistent-index-store counters for one run (`index_cache` in the
/// schema). `None` on `RunMetrics` means the run had no `--index-cache`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexCacheMetrics {
    /// Relations warm-started from a valid cached segment.
    pub hits: u64,
    /// Relations with no usable cache entry (built from scratch).
    pub misses: u64,
    /// Relations whose cache entry existed but was unusable — a subset of
    /// the misses, each explained by a [`RecoveryRecord`].
    pub rebuilds: u64,
    /// Journaled tuple deltas replayed through incremental maintenance.
    pub journal_replayed: u64,
    /// Best-effort cache writes that failed (the run continues; the cache
    /// just stays cold for those relations).
    pub write_failures: u64,
    /// Every recovery event, in detection order.
    pub recoveries: Vec<RecoveryRecord>,
}

/// Session counters for a `relcheck serve` run (`serve` in the schema).
/// `None` on `RunMetrics` means the run was a batch job.
///
/// `checks`, `constraints_checked`, `constraints_skipped`, and the
/// dirty-set gauges count only protocol `check` requests; the priming
/// validation that warms the session is accounted separately in
/// `full_ns`, so `incremental_ns` vs `full_ns` compares delta-driven
/// re-checking against the cold full pass on the same session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Protocol commands handled (deltas + checks + stats + quit).
    pub requests: u64,
    /// Tuple deltas applied (acknowledged, i.e. journaled when a store
    /// is attached).
    pub deltas: u64,
    /// `check` requests served.
    pub checks: u64,
    /// Constraints re-checked across all `check` requests (their
    /// read-set intersected the dirty set, or their verdict was stale).
    pub constraints_checked: u64,
    /// Constraints answered from the registry's cached verdict.
    pub constraints_skipped: u64,
    /// Largest dirty-relation set any `check` request saw.
    pub dirty_peak: u64,
    /// Sum of dirty-set sizes over all `check` requests (divide by
    /// `checks` for the mean).
    pub dirty_total: u64,
    /// Wall-clock nanoseconds spent serving `check` requests.
    pub incremental_ns: u64,
    /// Wall-clock nanoseconds of the initial full validation that primed
    /// the verdict cache.
    pub full_ns: u64,
}

/// Certificate audit counters (`audit` in the schema). `None` on
/// [`RunMetrics`] means the run did not emit or verify certificates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditMetrics {
    /// Certificates emitted.
    pub emitted: u64,
    /// Certificates that passed independent re-checking.
    pub verified: u64,
    /// Certificates rejected by the re-checker (tampering or an engine
    /// bug) — any nonzero value here is an incident.
    pub failed: u64,
    /// Witness tuples carried across all emitted certificates (bounded
    /// per certificate by `--witness-limit`).
    pub witnesses: u64,
}

/// Admission-governor counters for a `relcheck serve` run (`overload` in
/// the schema). `None` on [`RunMetrics`] means the run was a batch job.
/// Conservation: `shed <= admitted` and `drained <= admitted`
/// (`metrics-check` enforces both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadMetrics {
    /// Requests accepted onto the engine queue (Normal + Shed tiers).
    pub admitted: u64,
    /// Admitted requests served at the Shed tier: the ladder entered at
    /// the SQL rung ([`FallbackReason::Overload`]) instead of BDD.
    pub shed: u64,
    /// Requests turned away with a `busy <retry-after-ms>` reply because
    /// the bounded queue was full (the engine never saw them).
    pub rejected: u64,
    /// Journal-append retries that eventually succeeded (transient store
    /// faults absorbed before the rows-only degrade would have fired).
    pub retries: u64,
    /// Checks whose service time overran the hard deadline — the armed
    /// watchdog escalated them down the ladder instead of hanging.
    pub watchdog_fires: u64,
    /// Queued requests still served after drain began (`quit`/SIGTERM):
    /// the graceful-drain path finishes in-flight work, never drops it.
    pub drained: u64,
}

/// The top-level machine-readable report (`schema_version` 8). See
/// `DESIGN.md` for field meanings and stability guarantees.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Whether per-check traces were captured.
    pub telemetry_enabled: bool,
    /// Per-constraint metrics, in input order.
    pub constraints: Vec<ConstraintMetrics>,
    /// Lane-level aggregation, when the run went through the parallel
    /// front-end (serial passes report a single lane).
    pub fleet: Option<FleetTelemetry>,
    /// Degraded/errored counts and fault-injection evidence.
    pub degradation: DegradationSummary,
    /// Persistent index store counters; `None` when the run did not use
    /// `--index-cache`. Assembled by the caller after `from_reports`.
    pub index_cache: Option<IndexCacheMetrics>,
    /// Plan-cache counters; `None` when the run did not go through a
    /// [`crate::registry::ConstraintRegistry`]. Assembled by the caller
    /// after `from_reports`.
    pub plan_cache: Option<PlanCacheMetrics>,
    /// Serve-session counters; `None` for batch runs. Assembled by the
    /// caller after `from_reports`.
    pub serve: Option<ServeMetrics>,
    /// Certificate audit counters; `None` when the run did not certify.
    /// Assembled by the caller after `from_reports`.
    pub audit: Option<AuditMetrics>,
    /// Admission-governor counters; `None` for batch runs. Assembled by
    /// the caller after `from_reports`.
    pub overload: Option<OverloadMetrics>,
    /// Workload-driven policy counters; `None` when the run never
    /// consulted the advisor. Assembled by the caller after
    /// `from_reports`.
    pub policy: Option<PolicyMetrics>,
}

impl RunMetrics {
    /// Assemble a report from named check reports (input order preserved).
    /// Captures the failpoint registry's fired counts if it is armed.
    pub fn from_reports(
        reports: &[(String, crate::checker::CheckReport)],
        fleet: Option<FleetTelemetry>,
        threads: usize,
    ) -> RunMetrics {
        use crate::checker::Verdict;
        let telemetry_enabled = reports.iter().any(|(_, r)| r.metrics.is_some());
        let degradation = DegradationSummary {
            degraded: reports
                .iter()
                .filter(|(_, r)| r.verdict == Verdict::Degraded)
                .count(),
            errored: reports
                .iter()
                .filter(|(_, r)| r.verdict == Verdict::Errored)
                .count(),
            fallbacks: reports
                .iter()
                .filter(|(_, r)| r.metrics.as_ref().is_some_and(|t| t.fallback.is_some()))
                .count(),
            failpoints: relcheck_bdd::failpoint::armed_seed()
                .map(|seed| (seed, relcheck_bdd::failpoint::fired_counts())),
        };
        RunMetrics {
            threads,
            telemetry_enabled,
            constraints: reports
                .iter()
                .map(|(name, r)| ConstraintMetrics {
                    name: name.clone(),
                    holds: r.holds,
                    verdict: r.verdict,
                    error: r.error.clone(),
                    method: r.method,
                    elapsed: r.elapsed,
                    trace: r.metrics.clone(),
                })
                .collect(),
            fleet,
            degradation,
            index_cache: None,
            plan_cache: None,
            serve: None,
            audit: None,
            overload: None,
            policy: None,
        }
    }

    /// Render the schema-version-8 JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.field("schema_version", SCHEMA_VERSION);
        w.key("tool");
        w.string("relcheck");
        w.field("threads", self.threads);
        w.field("telemetry_enabled", self.telemetry_enabled);
        w.key("constraints");
        w.arr_open();
        for c in &self.constraints {
            write_constraint(&mut w, c);
        }
        w.arr_close();
        w.key("fleet");
        match &self.fleet {
            None => w.raw("null"),
            Some(fl) => write_fleet(&mut w, fl),
        }
        w.key("degradation");
        write_degradation(&mut w, &self.degradation);
        INDEX_CACHE.write(&mut w, self.index_cache.as_ref(), |w, ic| {
            w.key("recoveries");
            w.arr_open();
            for r in &ic.recoveries {
                w.obj_open();
                w.key("relation");
                w.string(&r.relation);
                w.key("reason");
                w.string(r.reason);
                w.key("detail");
                w.string(&r.detail);
                w.obj_close();
            }
            w.arr_close();
        });
        PLAN_CACHE.write(&mut w, self.plan_cache.as_ref(), |_, _| {});
        SERVE.write(&mut w, self.serve.as_ref(), |_, _| {});
        AUDIT.write(&mut w, self.audit.as_ref(), |_, _| {});
        OVERLOAD.write(&mut w, self.overload.as_ref(), |_, _| {});
        POLICY.write(&mut w, self.policy.as_ref(), |_, _| {});
        w.obj_close();
        w.finish()
    }
}

/// The metrics schema version [`RunMetrics::to_json`] writes and the only
/// one [`validate_metrics_json`] accepts.
const SCHEMA_VERSION: i64 = 8;

/// A conservation law between counters, as data: the sum of the `lhs`
/// operands compared with the `rhs` operand. Operands are `block.field`
/// paths, so a law may span blocks; it applies only when every block it
/// names is present (non-`null`).
struct Law {
    lhs: &'static [&'static str],
    cmp: Cmp,
    rhs: &'static str,
}

#[derive(Clone, Copy)]
enum Cmp {
    /// `Σ lhs <= rhs`.
    Le,
    /// `Σ lhs == rhs`.
    Eq,
    /// `Σ lhs <= rhs`, enforced only when `rhs > 0`.
    LeIfRhsPositive,
}

const fn law(lhs: &'static [&'static str], cmp: Cmp, rhs: &'static str) -> Law {
    Law { lhs, cmp, rhs }
}

impl Law {
    /// Check the law against the counters validated so far.
    fn check(&self, seen: &[(String, i64)]) -> std::result::Result<(), String> {
        let get = |path: &str| seen.iter().find(|(p, _)| p == path).map(|&(_, v)| v);
        let Some(rhs) = get(self.rhs) else {
            return Ok(());
        };
        let mut lhs: i128 = 0;
        for path in self.lhs {
            match get(path) {
                Some(v) => lhs += i128::from(v),
                None => return Ok(()),
            }
        }
        let rhs = i128::from(rhs);
        let broken = match self.cmp {
            Cmp::Eq => lhs != rhs,
            Cmp::Le => lhs > rhs,
            Cmp::LeIfRhsPositive => rhs > 0 && lhs > rhs,
        };
        if !broken {
            return Ok(());
        }
        let relation = if matches!(self.cmp, Cmp::Eq) {
            "but"
        } else {
            "exceeds"
        };
        Err(format!(
            "{} = {lhs} {relation} {} = {rhs}",
            self.lhs.join(" + "),
            self.rhs
        ))
    }
}

/// A flat counter block of the metrics document, as data: its JSON key,
/// its counters in output order, and its conservation laws.
/// [`RunMetrics::to_json`] writes the block by walking `fields`, and
/// [`validate_metrics_json`] checks the same fields (present, integer,
/// ≥ 0) and then `laws` — so the writer and the validator cannot drift,
/// and a new counter is one entry in its block's table.
struct CounterBlock<T: 'static> {
    name: &'static str,
    fields: &'static [Counter<T>],
    laws: &'static [Law],
}

/// One counter of a [`CounterBlock`]: its JSON key and its reader.
type Counter<T> = (&'static str, fn(&T) -> u64);

impl<T> CounterBlock<T> {
    /// Write `"name":{…}`, or `"name":null` for an absent block. `tail`
    /// appends any bespoke members after the counters.
    fn write(&self, w: &mut JsonWriter, value: Option<&T>, tail: fn(&mut JsonWriter, &T)) {
        w.key(self.name);
        let Some(v) = value else {
            return w.raw("null");
        };
        w.obj_open();
        for (field, get) in self.fields {
            w.field(field, get(v));
        }
        tail(w, v);
        w.obj_close();
    }

    /// Validate the block in `doc`: the key must be present (`null` for an
    /// absent block), every counter an integer ≥ 0, and every law must
    /// hold. Records the counters in `seen` as `block.field` for later
    /// blocks' laws. Returns the block when it is not `null`.
    fn validate<'d>(
        &self,
        doc: &'d Json,
        seen: &mut Vec<(String, i64)>,
    ) -> std::result::Result<Option<&'d Json>, String> {
        let name = self.name;
        let block = doc.get(name).ok_or(format!("missing field {name:?}"))?;
        if matches!(block, Json::Null) {
            return Ok(None);
        }
        for (field, _) in self.fields {
            let v = block
                .get(field)
                .and_then(Json::as_int)
                .ok_or(format!("{name}: missing integer field {field:?}"))?;
            if v < 0 {
                return Err(format!("{name}.{field} = {v} < 0"));
            }
            seen.push((format!("{name}.{field}"), v));
        }
        for l in self.laws {
            l.check(seen)?;
        }
        Ok(Some(block))
    }
}

/// `index_cache`: persistent index store counters. Its `recoveries` array
/// and the `rebuilds <= len(recoveries)` law are bespoke (see
/// [`validate_metrics_json`]).
const INDEX_CACHE: CounterBlock<IndexCacheMetrics> = CounterBlock {
    name: "index_cache",
    fields: &[
        ("hits", |m| m.hits),
        ("misses", |m| m.misses),
        ("rebuilds", |m| m.rebuilds),
        ("journal_replayed", |m| m.journal_replayed),
        ("write_failures", |m| m.write_failures),
    ],
    laws: &[],
};

/// `plan_cache`: registry plan-cache counters.
const PLAN_CACHE: CounterBlock<PlanCacheMetrics> = CounterBlock {
    name: "plan_cache",
    fields: &[("hits", |m| m.hits), ("misses", |m| m.misses)],
    laws: &[],
};

/// `serve`: session counters.
const SERVE: CounterBlock<ServeMetrics> = CounterBlock {
    name: "serve",
    fields: &[
        ("requests", |m| m.requests),
        ("deltas", |m| m.deltas),
        ("checks", |m| m.checks),
        ("constraints_checked", |m| m.constraints_checked),
        ("constraints_skipped", |m| m.constraints_skipped),
        ("dirty_peak", |m| m.dirty_peak),
        ("dirty_total", |m| m.dirty_total),
        ("incremental_ns", |m| m.incremental_ns),
        ("full_ns", |m| m.full_ns),
    ],
    laws: &[
        // The peak dirty-set size is one of the sizes summed into the total.
        law(&["serve.dirty_peak"], Cmp::Le, "serve.dirty_total"),
        // Every delta and check is a request.
        law(&["serve.deltas", "serve.checks"], Cmp::Le, "serve.requests"),
    ],
};

/// `audit`: certificate counters.
const AUDIT: CounterBlock<AuditMetrics> = CounterBlock {
    name: "audit",
    fields: &[
        ("emitted", |m| m.emitted),
        ("verified", |m| m.verified),
        ("failed", |m| m.failed),
        ("witnesses", |m| m.witnesses),
    ],
    laws: &[
        // In an emitting run every verification outcome refers to an
        // emitted certificate; a verify-only run reports emitted = 0 and
        // its verified/failed tallies stand alone.
        law(
            &["audit.verified", "audit.failed"],
            Cmp::LeIfRhsPositive,
            "audit.emitted",
        ),
    ],
};

/// `overload`: admission-governor counters.
const OVERLOAD: CounterBlock<OverloadMetrics> = CounterBlock {
    name: "overload",
    fields: &[
        ("admitted", |m| m.admitted),
        ("shed", |m| m.shed),
        ("rejected", |m| m.rejected),
        ("retries", |m| m.retries),
        ("watchdog_fires", |m| m.watchdog_fires),
        ("drained", |m| m.drained),
    ],
    laws: &[
        // Shed requests are a subset of admitted ones (rejected requests
        // never reach the engine), and the drain phase only serves
        // requests that were already admitted.
        law(&["overload.shed"], Cmp::Le, "overload.admitted"),
        law(&["overload.drained"], Cmp::Le, "overload.admitted"),
        // Every engine-visible request was admitted by the governor (the
        // engine skips blank/comment lines, so <=, not ==).
        law(&["serve.requests"], Cmp::Le, "overload.admitted"),
    ],
};

/// `policy`: workload-driven advisor counters.
const POLICY: CounterBlock<PolicyMetrics> = CounterBlock {
    name: "policy",
    fields: &[
        ("relations", |m| m.relations),
        ("advised_bdd", |m| m.advised_bdd),
        ("advised_sql", |m| m.advised_sql),
        ("applied_sql_only", |m| m.applied_sql_only),
        ("applied_rebuilds", |m| m.applied_rebuilds),
        ("reseeded", |m| m.reseeded),
        ("readvises", |m| m.readvises),
        ("cache_slots", |m| m.cache_slots),
        ("profile_checks", |m| m.profile_checks),
    ],
    laws: &[
        // Every examined relation got exactly one route, and only
        // SQL-advised relations can be newly marked SQL-only.
        law(
            &["policy.advised_bdd", "policy.advised_sql"],
            Cmp::Eq,
            "policy.relations",
        ),
        law(&["policy.applied_sql_only"], Cmp::Le, "policy.advised_sql"),
    ],
};

fn method_name(m: Method) -> &'static str {
    match m {
        Method::Bdd => "bdd",
        Method::SqlFallback => "sql_fallback",
        Method::BruteForce => "brute_force",
        Method::Aborted => "aborted",
    }
}

fn write_degradation(w: &mut JsonWriter, d: &DegradationSummary) {
    w.obj_open();
    w.field("degraded", d.degraded);
    w.field("errored", d.errored);
    w.field("fallbacks", d.fallbacks);
    w.key("failpoints");
    match &d.failpoints {
        None => w.raw("null"),
        Some((seed, fired)) => {
            w.obj_open();
            // As a string: u64 seeds can exceed the i64 range our parser
            // (and many consumers) give JSON integers.
            w.key("seed");
            w.string(&seed.to_string());
            w.key("fired");
            w.arr_open();
            for (site, count) in fired {
                w.obj_open();
                w.key("site");
                w.string(site);
                w.field("count", count);
                w.obj_close();
            }
            w.arr_close();
            w.obj_close();
        }
    }
    w.obj_close();
}

fn write_constraint(w: &mut JsonWriter, c: &ConstraintMetrics) {
    w.obj_open();
    w.key("name");
    w.string(&c.name);
    w.field("holds", c.holds);
    w.key("verdict");
    w.string(c.verdict.name());
    w.key("error");
    match &c.error {
        None => w.raw("null"),
        Some(e) => w.string(e),
    }
    w.key("method");
    w.string(method_name(c.method));
    w.field("elapsed_ns", c.elapsed.as_nanos() as u64);
    w.key("trace");
    match &c.trace {
        None => w.raw("null"),
        Some(t) => write_trace(w, t),
    }
    w.obj_close();
}

fn write_trace(w: &mut JsonWriter, t: &CheckTrace) {
    w.obj_open();
    w.key("method");
    w.string(method_name(t.method));
    w.key("rules");
    w.arr_open();
    for r in &t.rules {
        w.obj_open();
        w.key("rule");
        w.string(r.rule.name());
        w.field("count", r.count);
        w.obj_close();
    }
    w.arr_close();
    w.key("passes");
    w.arr_open();
    for p in &t.passes {
        w.obj_open();
        w.key("pass");
        w.string(p.pass);
        w.key("rule");
        match p.rule {
            None => w.raw("null"),
            Some(r) => w.string(r.name()),
        }
        w.field("fired", p.fired);
        w.field("gated", p.gated);
        w.obj_close();
    }
    w.arr_close();
    w.key("index_events");
    w.arr_open();
    for e in &t.index_events {
        w.obj_open();
        w.key("relation");
        w.string(&e.relation);
        w.key("provenance");
        w.string(e.provenance.name());
        w.obj_close();
    }
    w.arr_close();
    w.key("fallback");
    match &t.fallback {
        None => w.raw("null"),
        Some(fb) => {
            w.obj_open();
            w.key("reason");
            w.string(fb.name());
            match fb {
                FallbackReason::NodeLimit { limit, live }
                | FallbackReason::RetryExhausted { limit, live } => {
                    w.field("limit", limit);
                    w.field("live", live);
                }
                FallbackReason::Panic(msg) => {
                    w.key("message");
                    w.string(msg);
                }
                _ => {}
            }
            w.obj_close();
        }
    }
    w.key("ladder");
    w.arr_open();
    for rung in &t.ladder {
        w.string(rung);
    }
    w.arr_close();
    w.key("timings");
    w.obj_open();
    w.field("index_ns", t.timings.index.as_nanos() as u64);
    w.field("eval_ns", t.timings.eval.as_nanos() as u64);
    w.field("total_ns", t.timings.total.as_nanos() as u64);
    w.obj_close();
    w.key("bdd");
    write_delta(w, &t.bdd);
    w.obj_close();
}

fn write_delta(w: &mut JsonWriter, d: &StatsDelta) {
    w.obj_open();
    w.field("created_nodes", d.created_nodes);
    w.field("cache_hits", d.cache_hits);
    w.field("cache_misses", d.cache_misses);
    w.field("gc_runs", d.gc_runs);
    w.key("ops");
    w.arr_open();
    for (i, kind) in OpKind::ALL.iter().enumerate() {
        let s = d.ops[i];
        w.obj_open();
        w.key("op");
        w.string(kind.name());
        w.field("calls", s.calls);
        w.field("cache_hits", s.cache_hits);
        w.field("cache_misses", s.cache_misses);
        w.obj_close();
    }
    w.arr_close();
    w.obj_close();
}

fn write_fleet(w: &mut JsonWriter, fl: &FleetTelemetry) {
    w.obj_open();
    w.key("workers");
    w.arr_open();
    for wk in &fl.workers {
        w.obj_open();
        w.field("worker", wk.worker);
        w.key("constraints");
        w.arr_open();
        for &i in &wk.constraints {
            w.raw(&i.to_string());
        }
        w.arr_close();
        w.field("peak_nodes", wk.peak_nodes);
        w.field("depth_hwm", wk.depth_hwm);
        w.key("bdd");
        write_delta(w, &wk.bdd);
        w.obj_close();
    }
    w.arr_close();
    w.key("total");
    write_delta(w, &fl.total);
    w.obj_close();
}

/// A tiny JSON emitter that tracks commas so callers write keys and values
/// in order without bookkeeping. Shared with the certificate writer
/// (`crate::certify`), which needs the same byte-stable output.
pub(crate) struct JsonWriter {
    out: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    pub(crate) fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            need_comma: vec![false],
        }
    }

    fn pre_value(&mut self) {
        if let Some(top) = self.need_comma.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    pub(crate) fn obj_open(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.need_comma.push(false);
    }

    pub(crate) fn obj_close(&mut self) {
        self.need_comma.pop();
        self.out.push('}');
    }

    pub(crate) fn arr_open(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.need_comma.push(false);
    }

    pub(crate) fn arr_close(&mut self) {
        self.need_comma.pop();
        self.out.push(']');
    }

    pub(crate) fn key(&mut self, k: &str) {
        self.pre_value();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\":");
        // The value that follows must not emit another comma.
        if let Some(top) = self.need_comma.last_mut() {
            *top = false;
        }
    }

    pub(crate) fn string(&mut self, s: &str) {
        self.pre_value();
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    pub(crate) fn raw(&mut self, v: &str) {
        self.pre_value();
        self.out.push_str(v);
    }

    /// A key and a bare number or boolean value.
    pub(crate) fn field(&mut self, k: &str, v: impl std::fmt::Display) {
        self.key(k);
        self.raw(&v.to_string());
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON value — just enough to validate the metrics schema
/// offline (std-only; used by `relcheck metrics-check` and the test
/// suite).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (counters; anything without `.`/`e`).
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (integer or float).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Parse a JSON document (strict enough for round-tripping our own
/// output; rejects trailing garbage).
pub fn parse_json(text: &str) -> std::result::Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> std::result::Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_owned()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character.
                        let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                        let ch = rest.chars().next().unwrap();
                        s.push(ch);
                        *pos += ch.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            if b.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            if s.is_empty() {
                return Err(format!("unexpected character at byte {start}"));
            }
            if s.bytes().all(|c| c.is_ascii_digit() || c == b'-') {
                s.parse::<i64>().map(Json::Int).map_err(|e| e.to_string())
            } else {
                s.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
            }
        }
    }
}

/// Closed vocabularies of the metrics and plan documents. Anything outside
/// these lists is rejected, so a new name must be added here (and
/// documented in DESIGN.md §5d) before it can ship.
const VERDICTS: [&str; 4] = ["holds", "violated", "degraded", "errored"];
const METHODS: [&str; 4] = ["bdd", "sql_fallback", "brute_force", "aborted"];
const RULES: [&str; 4] = ["R1", "R2", "R3", "R4"];
const PASSES: [&str; 4] = [
    "prenex-pullup",
    "strip-leading-block",
    "refutation-nnf",
    "forall-pushdown",
];
const PROVENANCES: [&str; 3] = ["built", "reused", "sql_only"];
const FALLBACK_REASONS: [&str; 6] = [
    "node_limit",
    "unindexed_relation",
    "deadline",
    "retry_exhausted",
    "panic",
    "overload",
];
const LADDER_RUNGS: [&str; 6] = [
    "bdd",
    "gc_retry",
    "sql",
    "brute_force",
    "degraded",
    "errored",
];

type Checked<T> = std::result::Result<T, String>;

fn int_field(v: &Json, at: &str, field: &str) -> Checked<i64> {
    v.get(field)
        .and_then(Json::as_int)
        .ok_or(format!("{at}: missing integer field {field:?}"))
}

/// An integer field that must be `>= 0`.
fn count_field(v: &Json, at: &str, field: &str) -> Checked<i64> {
    let n = int_field(v, at, field)?;
    if n < 0 {
        return Err(format!("{at}: {field:?} must be non-negative, got {n}"));
    }
    Ok(n)
}

fn str_field<'a>(v: &'a Json, at: &str, field: &str) -> Checked<&'a str> {
    v.get(field)
        .and_then(Json::as_str)
        .ok_or(format!("{at}: missing string field {field:?}"))
}

fn arr_field<'a>(v: &'a Json, at: &str, field: &str) -> Checked<&'a [Json]> {
    v.get(field)
        .and_then(Json::as_arr)
        .ok_or(format!("{at}: missing array field {field:?}"))
}

fn known(at: &str, what: &str, name: &str, vocabulary: &[&str]) -> Checked<()> {
    if vocabulary.contains(&name) {
        Ok(())
    } else {
        Err(format!("{at}: unknown {what} {name:?}"))
    }
}

/// A planner-pass entry (shared by traces and `relcheck plan --json`):
/// known pass name, `rule` null or a known rule, `fired`/`gated` >= 0.
fn check_pass(p: &Json, at: &str) -> Checked<()> {
    let name = str_field(p, at, "pass")?;
    known(at, "pass", name, &PASSES)?;
    match p.get("rule") {
        Some(Json::Null) => {}
        Some(Json::Str(r)) if RULES.contains(&r.as_str()) => {}
        other => return Err(format!("{at}: pass {name:?} has bad \"rule\" {other:?}")),
    }
    count_field(p, at, "fired")?;
    count_field(p, at, "gated")?;
    Ok(())
}

fn check_delta_block(v: &Json, at: &str) -> Checked<()> {
    for field in ["created_nodes", "cache_hits", "cache_misses", "gc_runs"] {
        int_field(v, at, field)?;
    }
    let ops = arr_field(v, at, "ops")?;
    if ops.len() != OpKind::ALL.len() {
        return Err(format!(
            "{at}: ops must list all {} kinds, got {}",
            OpKind::ALL.len(),
            ops.len()
        ));
    }
    for (o, want) in ops.iter().zip(OpKind::ALL) {
        let got = str_field(o, at, "op")?;
        if got != want.name() {
            return Err(format!("{at}: expected op {:?}, got {got:?}", want.name()));
        }
        let at = format!("{at}: op {got:?}");
        let calls = int_field(o, &at, "calls")?;
        let hits = int_field(o, &at, "cache_hits")?;
        let misses = int_field(o, &at, "cache_misses")?;
        if calls != hits + misses {
            return Err(format!(
                "{at} violates calls == hits + misses ({calls} != {hits} + {misses})"
            ));
        }
    }
    Ok(())
}

fn delta_field(v: &Json, field: &str) -> i64 {
    v.get(field).and_then(Json::as_int).unwrap_or(0)
}

fn check_trace(t: &Json, at: &str) -> Checked<()> {
    for r in arr_field(t, at, "rules")? {
        let name = str_field(r, at, "rule")?;
        known(at, "rule", name, &RULES)?;
        let count = int_field(r, at, "count")?;
        if count <= 0 {
            return Err(format!("{at}: rule {name:?} has count {count} <= 0"));
        }
    }
    for p in arr_field(t, at, "passes")? {
        check_pass(p, at)?;
    }
    for e in arr_field(t, at, "index_events")? {
        known(
            at,
            "provenance",
            str_field(e, at, "provenance")?,
            &PROVENANCES,
        )?;
    }
    match t.get("fallback") {
        Some(Json::Null) | None => {}
        Some(fb) => {
            let at = format!("{at}.fallback");
            known(
                &at,
                "reason",
                str_field(fb, &at, "reason")?,
                &FALLBACK_REASONS,
            )?;
        }
    }
    if let Some(ladder) = t.get("ladder") {
        let at = format!("{at}.ladder");
        let rungs = ladder
            .as_arr()
            .ok_or(format!("{at}: \"ladder\" must be an array"))?;
        for r in rungs {
            let name = r.as_str().ok_or(format!("{at}: rung must be a string"))?;
            known(&at, "rung", name, &LADDER_RUNGS)?;
        }
    }
    let timings = t
        .get("timings")
        .ok_or(format!("{at}: missing field \"timings\""))?;
    for f in ["index_ns", "eval_ns", "total_ns"] {
        int_field(timings, &format!("{at}.timings"), f)?;
    }
    let bdd = t.get("bdd").ok_or(format!("{at}: missing field \"bdd\""))?;
    check_delta_block(bdd, &format!("{at}.bdd"))
}

fn check_constraint(c: &Json, at: &str) -> Checked<()> {
    str_field(c, at, "name")?;
    if !matches!(c.get("holds"), Some(Json::Bool(_))) {
        return Err(format!("{at}: missing boolean field \"holds\""));
    }
    known(at, "verdict", str_field(c, at, "verdict")?, &VERDICTS)?;
    match c.get("error") {
        Some(Json::Null) | Some(Json::Str(_)) => {}
        other => {
            return Err(format!(
                "{at}: \"error\" must be null or string, got {other:?}"
            ))
        }
    }
    known(at, "method", str_field(c, at, "method")?, &METHODS)?;
    int_field(c, at, "elapsed_ns")?;
    match c.get("trace") {
        Some(Json::Null) | None => Ok(()),
        Some(t) => check_trace(t, &format!("{at}.trace")),
    }
}

/// The fleet totals must be exactly the sum of the per-worker counters,
/// globally and per op kind.
fn check_fleet(fleet: &Json) -> Checked<()> {
    let workers = arr_field(fleet, "fleet", "workers")?;
    let total = fleet.get("total").ok_or("fleet: missing field \"total\"")?;
    check_delta_block(total, "fleet.total")?;
    for (wi, w) in workers.iter().enumerate() {
        let at = format!("fleet.workers[{wi}]");
        let bdd = w.get("bdd").ok_or(format!("{at}: missing field \"bdd\""))?;
        check_delta_block(bdd, &format!("{at}.bdd"))?;
    }
    let worker_sum = |field: &str, op: Option<usize>| -> i64 {
        let bdds = workers.iter().filter_map(|w| w.get("bdd"));
        match op {
            None => bdds.map(|b| delta_field(b, field)).sum(),
            Some(ki) => bdds
                .filter_map(|b| b.get("ops").and_then(Json::as_arr))
                .map(|ops| delta_field(&ops[ki], field))
                .sum(),
        }
    };
    for f in ["created_nodes", "cache_hits", "cache_misses", "gc_runs"] {
        let (t, sum) = (delta_field(total, f), worker_sum(f, None));
        if t != sum {
            return Err(format!("fleet.total.{f} = {t} but per-worker sum is {sum}"));
        }
    }
    let total_ops = total.get("ops").and_then(Json::as_arr).unwrap_or(&[]);
    for (ki, op) in total_ops.iter().enumerate() {
        let name = op.get("op").and_then(Json::as_str).unwrap_or("?");
        for f in ["calls", "cache_hits", "cache_misses"] {
            let (t, sum) = (delta_field(op, f), worker_sum(f, Some(ki)));
            if t != sum {
                return Err(format!(
                    "fleet.total ops[{name}].{f} = {t} but per-worker sum is {sum}"
                ));
            }
        }
    }
    Ok(())
}

/// Degraded/errored counts must agree with the per-constraint verdicts.
fn check_degradation(deg: &Json, constraints: &[Json]) -> Checked<()> {
    for (f, verdict) in [("degraded", "degraded"), ("errored", "errored")] {
        let count = count_field(deg, "degradation", f)?;
        let tally = constraints
            .iter()
            .filter(|c| c.get("verdict").and_then(Json::as_str) == Some(verdict))
            .count() as i64;
        if count != tally {
            return Err(format!(
                "degradation.{f} = {count} but {tally} constraints report verdict {verdict:?}"
            ));
        }
    }
    count_field(deg, "degradation", "fallbacks")?;
    match deg.get("failpoints") {
        Some(Json::Null) | None => Ok(()),
        Some(fp) => {
            let at = "degradation.failpoints";
            str_field(fp, at, "seed")?;
            for (i, s) in arr_field(fp, at, "fired")?.iter().enumerate() {
                let at = format!("{at}.fired[{i}]");
                str_field(s, &at, "site")?;
                count_field(s, &at, "count")?;
            }
            Ok(())
        }
    }
}

/// Every recovery record names a relation, a known reason and a detail,
/// and every rebuild is explained by one (some records — e.g. a salvaged
/// torn journal tail — do not force a rebuild, so ≤ rather than =).
fn check_recoveries(ic: &Json) -> Checked<()> {
    let recoveries = arr_field(ic, "index_cache", "recoveries")?;
    for (i, r) in recoveries.iter().enumerate() {
        let at = format!("index_cache.recoveries[{i}]");
        str_field(r, &at, "relation")?;
        known(
            &at,
            "reason",
            str_field(r, &at, "reason")?,
            &recovery_reason::ALL,
        )?;
        str_field(r, &at, "detail")?;
    }
    let rebuilds = delta_field(ic, "rebuilds");
    if rebuilds > recoveries.len() as i64 {
        return Err(format!(
            "index_cache.rebuilds = {rebuilds} exceeds the {} recovery record(s)",
            recoveries.len()
        ));
    }
    Ok(())
}

/// Validate a metrics document against the schema-v8 layout (the only
/// version accepted): required fields and types, closed vocabularies, the
/// per-op and fleet-total conservation laws, and every counter block's
/// fields and laws from its table ([`CounterBlock`]).
pub fn validate_metrics_json(text: &str) -> std::result::Result<(), String> {
    let doc = parse_json(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_int)
        .ok_or("missing integer field \"schema_version\"")?;
    if version != SCHEMA_VERSION {
        return Err(format!("unsupported schema_version {version}"));
    }
    doc.get("threads")
        .and_then(Json::as_int)
        .ok_or("missing integer field \"threads\"")?;
    let constraints = doc
        .get("constraints")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"constraints\"")?;
    for (i, c) in constraints.iter().enumerate() {
        check_constraint(c, &format!("constraints[{i}]"))?;
    }
    match doc.get("fleet") {
        Some(Json::Null) | None => {}
        Some(fleet) => check_fleet(fleet)?,
    }
    let deg = doc
        .get("degradation")
        .ok_or("missing field \"degradation\"")?;
    check_degradation(deg, constraints)?;
    let mut seen = Vec::new();
    if let Some(ic) = INDEX_CACHE.validate(&doc, &mut seen)? {
        check_recoveries(ic)?;
    }
    PLAN_CACHE.validate(&doc, &mut seen)?;
    SERVE.validate(&doc, &mut seen)?;
    AUDIT.validate(&doc, &mut seen)?;
    OVERLOAD.validate(&doc, &mut seen)?;
    POLICY.validate(&doc, &mut seen)?;
    Ok(())
}

/// Validate a `relcheck plan --json` document (schema version 1, kind
/// `"plan"`): required fields and types, pass/rule/ladder vocabulary,
/// hex-string fingerprints, and that the emitted ladder matches the
/// presence of the bdd/sql steps.
pub fn validate_plan_json(text: &str) -> std::result::Result<(), String> {
    let doc = parse_json(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_int)
        .ok_or("missing integer field \"schema_version\"")?;
    if version != 1 {
        return Err(format!("unsupported plan schema_version {version}"));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string field \"kind\"")?;
    if kind != "plan" {
        return Err(format!("kind must be \"plan\", got {kind:?}"));
    }
    let plans = doc
        .get("plans")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"plans\"")?;
    for (i, p) in plans.iter().enumerate() {
        let at = format!("plans[{i}]");
        str_field(p, &at, "name")?;
        str_field(p, &at, "constraint")?;
        for field in ["constraint_fp", "schema_fp"] {
            let fp = str_field(p, &at, field)?;
            if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("{at}: {field} must be 16 hex digits, got {fp:?}"));
            }
        }
        let opts = p
            .get("options")
            .ok_or(format!("{at}: missing field \"options\""))?;
        for field in [
            "prenex",
            "strip_leading",
            "pushdown",
            "gate_pushdown",
            "join_rename",
            "fused_quant",
        ] {
            if !matches!(opts.get(field), Some(Json::Bool(_))) {
                return Err(format!("{at}.options: missing boolean field {field:?}"));
            }
        }
        for pass in arr_field(p, &at, "passes")? {
            check_pass(pass, &at)?;
            str_field(pass, &at, "before")?;
            str_field(pass, &at, "after")?;
        }
        let bdd = p.get("bdd").ok_or(format!("{at}: missing field \"bdd\""))?;
        let has_bdd = !matches!(bdd, Json::Null);
        if has_bdd {
            let at = format!("{at}.bdd");
            let test = str_field(bdd, &at, "test")?;
            known(&at, "test", test, &["violations-empty", "satisfiable"])?;
            for v in arr_field(bdd, &at, "stripped")? {
                if !matches!(v, Json::Str(_)) {
                    return Err(format!("{at}: stripped entries must be strings"));
                }
            }
            for field in ["join_rename", "fused_quant"] {
                if !matches!(bdd.get(field), Some(Json::Bool(_))) {
                    return Err(format!("{at}: missing boolean field {field:?}"));
                }
            }
        }
        let sql = p.get("sql").ok_or(format!("{at}: missing field \"sql\""))?;
        let has_sql = !matches!(sql, Json::Null);
        if has_sql {
            let at = format!("{at}.sql");
            str_field(sql, &at, "shape")?;
            for c in arr_field(sql, &at, "columns")? {
                if !matches!(c, Json::Str(_)) {
                    return Err(format!("{at}: column entries must be strings"));
                }
            }
        }
        let ladder = arr_field(p, &at, "ladder")?;
        let mut want = Vec::new();
        if has_bdd {
            want.push("bdd");
        }
        if has_sql {
            want.push("sql");
        }
        want.push("brute_force");
        let got: Vec<&str> = ladder.iter().filter_map(Json::as_str).collect();
        if got.len() != ladder.len() {
            return Err(format!("{at}: ladder entries must be strings"));
        }
        if got != want {
            return Err(format!(
                "{at}: ladder {got:?} does not match steps (want {want:?})"
            ));
        }
    }
    Ok(())
}

/// Orderings a BENCH entry may report: a static strategy name, an
/// adaptive pick (`adaptive:<candidate>`), or `n/a` for paths that never
/// touch a BDD (the SQL-recheck row of the dynamic benchmark).
fn valid_bench_ordering(s: &str) -> bool {
    if let Some(pick) = s.strip_prefix("adaptive:") {
        return ["static", "concatenated", "frequency", "interleaved"].contains(&pick);
    }
    [
        "schema",
        "random",
        "max-inf-gain",
        "prob-converge",
        "min-cond-entropy",
        "sifted",
        "adaptive",
        "n/a",
    ]
    .contains(&s)
}

fn bench_str<'a>(v: &'a Json, at: &str, field: &str) -> Checked<&'a str> {
    let s = str_field(v, at, field)?;
    if s.is_empty() {
        return Err(format!("{at}: {field:?} must be non-empty"));
    }
    Ok(s)
}

/// Validate a `BENCH_*.json` benchmark-trajectory document (schema
/// version 1, see `DESIGN.md` §"BENCH schema"): required fields and
/// types, hit rates in `[0, 1]`, known orderings, and — for the `table1`
/// document — at least one before/after comparison, the acceptance
/// anchor of the committed trajectory. Used by `relcheck bench-check`
/// and the CI bench smoke.
pub fn validate_bench_json(text: &str) -> std::result::Result<(), String> {
    let doc = parse_json(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_int)
        .ok_or("missing integer field \"schema_version\"")?;
    if version != 1 {
        return Err(format!("unsupported bench schema_version {version}"));
    }
    if doc.get("kind").and_then(Json::as_str) != Some("bench") {
        return Err("missing field \"kind\": \"bench\"".to_owned());
    }
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field \"bench\"")?;
    if !["table1", "par_scaling", "dynamic"].contains(&bench) {
        return Err(format!("unknown bench {bench:?}"));
    }
    match doc.get("config") {
        Some(Json::Obj(fields)) => {
            for (k, v) in fields {
                if v.as_int().is_none_or(|n| n < 0) {
                    return Err(format!("config.{k}: must be a non-negative integer"));
                }
            }
        }
        _ => return Err("missing object field \"config\"".to_owned()),
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"entries\"")?;
    if entries.is_empty() {
        return Err("\"entries\" must be non-empty".to_owned());
    }
    for (i, e) in entries.iter().enumerate() {
        let at = format!("entries[{i}]");
        bench_str(e, &at, "name")?;
        bench_str(e, &at, "variant")?;
        count_field(e, &at, "wall_ns")?;
        count_field(e, &at, "peak_nodes")?;
        let rate = e
            .get("cache_hit_rate")
            .and_then(Json::as_num)
            .ok_or(format!("{at}: missing numeric field \"cache_hit_rate\""))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("{at}: cache_hit_rate {rate} outside [0, 1]"));
        }
        let ordering = bench_str(e, &at, "ordering")?;
        if !valid_bench_ordering(ordering) {
            return Err(format!("{at}: unknown ordering {ordering:?}"));
        }
    }
    let comparisons = doc
        .get("comparisons")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"comparisons\"")?;
    if bench == "table1" && comparisons.is_empty() {
        return Err("table1 must carry at least one before/after comparison".to_owned());
    }
    for (i, c) in comparisons.iter().enumerate() {
        let at = format!("comparisons[{i}]");
        bench_str(c, &at, "name")?;
        bench_str(c, &at, "baseline")?;
        bench_str(c, &at, "candidate")?;
        for field in [
            "wall_ns_before",
            "wall_ns_after",
            "peak_nodes_before",
            "peak_nodes_after",
        ] {
            count_field(c, &at, field)?;
        }
        if count_field(c, &at, "wall_ns_before")? == 0 || count_field(c, &at, "wall_ns_after")? == 0
        {
            return Err(format!(
                "{at}: a measured comparison cannot have zero wall time"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let text = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -7}}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_int(), Some(-7));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_int(), Some(1));
        assert_eq!(arr[1], Json::Float(2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn json_rejects_trailing_garbage() {
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("[1,").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("k");
        w.string("a\"b\\c\nd");
        w.obj_close();
        let text = w.finish();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    /// A batch run with no constraints and every optional block absent.
    fn bare() -> RunMetrics {
        RunMetrics {
            threads: 1,
            telemetry_enabled: false,
            constraints: Vec::new(),
            fleet: None,
            degradation: DegradationSummary::default(),
            index_cache: None,
            plan_cache: None,
            serve: None,
            audit: None,
            overload: None,
            policy: None,
        }
    }

    fn serve_session() -> ServeMetrics {
        ServeMetrics {
            requests: 5,
            deltas: 2,
            checks: 2,
            constraints_checked: 3,
            constraints_skipped: 5,
            dirty_peak: 2,
            dirty_total: 3,
            incremental_ns: 10,
            full_ns: 20,
        }
    }

    /// `doc` with the `,"key":…` member of a block removed.
    fn without_block(doc: &str, key: &str) -> String {
        let start = doc.find(&format!(",\"{key}\"")).unwrap();
        doc.replace(&doc[start..doc.rfind('}').unwrap()], "")
    }

    #[test]
    fn empty_metrics_document_validates() {
        validate_metrics_json(&bare().to_json()).unwrap();
    }

    #[test]
    fn index_cache_metrics_validate_and_conserve() {
        let mut m = RunMetrics {
            index_cache: Some(IndexCacheMetrics {
                hits: 1,
                misses: 2,
                rebuilds: 1,
                journal_replayed: 5,
                write_failures: 0,
                recoveries: vec![RecoveryRecord {
                    relation: "R".to_owned(),
                    reason: recovery_reason::SEGMENT_CORRUPT,
                    detail: "checksum mismatch at offset 20".to_owned(),
                }],
            }),
            plan_cache: Some(PlanCacheMetrics { hits: 3, misses: 1 }),
            ..bare()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // A rebuild with no recovery record explaining it must fail.
        m.index_cache.as_mut().unwrap().rebuilds = 2;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("rebuilds"), "{err}");
        // An off-vocabulary reason must fail (hand-edit the JSON: the
        // typed constructor cannot produce one).
        m.index_cache.as_mut().unwrap().rebuilds = 1;
        let doc = m.to_json().replace("segment_corrupt", "gremlins");
        let err = validate_metrics_json(&doc).unwrap_err();
        assert!(err.contains("unknown reason"), "{err}");
        // The field is required, even as null.
        let err = validate_metrics_json(&without_block(&m.to_json(), "index_cache")).unwrap_err();
        assert!(err.contains("index_cache"), "{err}");
    }

    #[test]
    fn serve_metrics_validate_and_conserve() {
        let mut m = RunMetrics {
            plan_cache: Some(PlanCacheMetrics { hits: 3, misses: 4 }),
            serve: Some(serve_session()),
            ..bare()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // The peak dirty-set size is one of the summed sizes: peak >
        // total cannot happen in a faithful document.
        m.serve.as_mut().unwrap().dirty_peak = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("dirty_peak"), "{err}");
        m.serve.as_mut().unwrap().dirty_peak = 2;
        // Every delta and check is a request.
        m.serve.as_mut().unwrap().requests = 1;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("requests"), "{err}");
        m.serve.as_mut().unwrap().requests = 5;
        // The field is required, even as null.
        let err = validate_metrics_json(&without_block(&m.to_json(), "serve")).unwrap_err();
        assert!(err.contains("serve"), "{err}");
        // Batch runs carry it as null; that validates.
        m.serve = None;
        validate_metrics_json(&m.to_json()).unwrap();
    }

    #[test]
    fn validator_checks_overload_block() {
        let mut m = RunMetrics {
            serve: Some(serve_session()),
            overload: Some(OverloadMetrics {
                admitted: 6,
                shed: 2,
                rejected: 3,
                retries: 1,
                watchdog_fires: 0,
                drained: 1,
            }),
            ..bare()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // Shed requests are a subset of admitted ones.
        m.overload.as_mut().unwrap().shed = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("overload.shed"), "{err}");
        m.overload.as_mut().unwrap().shed = 2;
        // The drain phase only serves admitted requests.
        m.overload.as_mut().unwrap().drained = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("overload.drained"), "{err}");
        m.overload.as_mut().unwrap().drained = 1;
        // Every engine-visible request went through admission.
        m.serve.as_mut().unwrap().requests = 9;
        m.serve.as_mut().unwrap().constraints_skipped = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("overload.admitted"), "{err}");
        m.serve.as_mut().unwrap().requests = 5;
        // The field is required, even as null; batch runs carry it as
        // null and that validates.
        m.overload = None;
        let doc = m.to_json();
        validate_metrics_json(&doc).unwrap();
        let stripped = doc.replace(",\"overload\":null", "");
        let err = validate_metrics_json(&stripped).unwrap_err();
        assert!(err.contains("overload"), "{err}");
        // Only schema v8 is accepted: a v6 document is rejected outright.
        let v6 = doc.replace("\"schema_version\":8", "\"schema_version\":6");
        let err = validate_metrics_json(&v6).unwrap_err();
        assert!(err.contains("unsupported schema_version 6"), "{err}");
    }

    #[test]
    fn validator_checks_policy_block() {
        let mut m = RunMetrics {
            policy: Some(PolicyMetrics {
                relations: 4,
                advised_bdd: 3,
                advised_sql: 1,
                applied_sql_only: 1,
                applied_rebuilds: 2,
                reseeded: 6,
                readvises: 0,
                cache_slots: 1 << 18,
                profile_checks: 9,
            }),
            ..bare()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // Every advised relation got exactly one route.
        m.policy.as_mut().unwrap().advised_bdd = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("policy.advised"), "{err}");
        m.policy.as_mut().unwrap().advised_bdd = 3;
        // Only SQL-routed relations can be marked sql-only.
        m.policy.as_mut().unwrap().applied_sql_only = 5;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("policy.applied_sql_only"), "{err}");
        m.policy.as_mut().unwrap().applied_sql_only = 1;
        // The field is required, even as null; static runs carry it as
        // null and that validates.
        m.policy = None;
        let doc = m.to_json();
        validate_metrics_json(&doc).unwrap();
        let stripped = doc.replace(",\"policy\":null", "");
        let err = validate_metrics_json(&stripped).unwrap_err();
        assert!(err.contains("policy"), "{err}");
        // Only schema v8 is accepted: a v7 document is rejected outright,
        // with or without the block.
        for doc in [&doc, &stripped] {
            let v7 = doc.replace("\"schema_version\":8", "\"schema_version\":7");
            let err = validate_metrics_json(&v7).unwrap_err();
            assert!(err.contains("unsupported schema_version 7"), "{err}");
        }
    }

    #[test]
    fn validator_checks_audit_block() {
        let mut m = RunMetrics {
            audit: Some(AuditMetrics {
                emitted: 3,
                verified: 3,
                failed: 0,
                witnesses: 7,
            }),
            ..bare()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // Every verification outcome refers to an emitted certificate.
        m.audit.as_mut().unwrap().failed = 2;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("audit.verified"), "{err}");
        // Verify-only runs report emitted = 0; tallies stand alone.
        m.audit = Some(AuditMetrics {
            emitted: 0,
            verified: 4,
            failed: 1,
            witnesses: 0,
        });
        validate_metrics_json(&m.to_json()).unwrap();
        // The field is required, even as null.
        m.audit = None;
        let doc = m.to_json();
        let stripped = doc.replace(",\"audit\":null", "");
        let err = validate_metrics_json(&stripped).unwrap_err();
        assert!(err.contains("audit"), "{err}");
        validate_metrics_json(&doc).unwrap();
    }

    #[test]
    fn validator_rejects_bad_fleet_totals() {
        let wk = WorkerTelemetry {
            worker: 0,
            constraints: vec![0],
            bdd: StatsDelta {
                created_nodes: 5,
                ..Default::default()
            },
            peak_nodes: 10,
            depth_hwm: 3,
        };
        let mut m = RunMetrics {
            threads: 2,
            telemetry_enabled: true,
            fleet: Some(FleetTelemetry::from_workers(vec![wk])),
            ..bare()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        m.fleet.as_mut().unwrap().total.created_nodes += 1;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("created_nodes"), "{err}");
    }

    /// Each counter appears once in its table, and every law operand
    /// names a counter of some table (a misspelt operand would otherwise
    /// never resolve and the law would silently never apply).
    #[test]
    fn block_tables_are_well_formed() {
        fn paths<T>(b: &CounterBlock<T>) -> Vec<String> {
            b.fields
                .iter()
                .map(|(f, _)| format!("{}.{f}", b.name))
                .collect()
        }
        let tables = [
            paths(&INDEX_CACHE),
            paths(&PLAN_CACHE),
            paths(&SERVE),
            paths(&AUDIT),
            paths(&OVERLOAD),
            paths(&POLICY),
        ];
        let all: Vec<&String> = tables.iter().flatten().collect();
        let mut distinct = all.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), all.len(), "a counter is listed twice");
        let laws = [
            INDEX_CACHE.laws,
            PLAN_CACHE.laws,
            SERVE.laws,
            AUDIT.laws,
            OVERLOAD.laws,
            POLICY.laws,
        ];
        for l in laws.into_iter().flatten() {
            for operand in l.lhs.iter().chain([&l.rhs]) {
                assert!(
                    all.iter().any(|p| p == operand),
                    "unknown operand {operand}"
                );
            }
        }
    }
}
