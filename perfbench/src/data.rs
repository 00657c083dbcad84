//! Workload inputs. Generation runs outside every timer; `load_*` turns
//! the generated rows into the relstore `Database` the program receives
//! and is timed as the first step of batch set-up.

use relcheck_bench::queries;
use relcheck_datagen::curriculum::{populate, CurriculumConfig};
use relcheck_datagen::customer::{self, CustomerConfig};
use relcheck_datagen::SplitMix64;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Relation, Schema};
use std::collections::BTreeSet;

/// Input sizes of one workload. `full` is what the benchmark runs;
/// `smoke` is what its own tests run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Table 1: databases per iteration, and tuples generated for each
    /// one's `R1`.
    pub table1_dbs: usize,
    pub table1_tuples: usize,
    /// Batch customer workloads: generated customer rows (pre-dedup) and
    /// active-domain sizes.
    pub customer_rows: usize,
    pub customer_doms: [u64; 5],
    /// customer-serve: generated customer rows (pre-dedup) and domains.
    pub serve_rows: usize,
    pub serve_doms: [u64; 5],
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            table1_dbs: 8,
            table1_tuples: 6_250,
            customer_rows: 406_769,
            customer_doms: CUSTOMER_DOMS,
            serve_rows: 100_000,
            serve_doms: SERVE_DOMS,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            table1_dbs: 2,
            table1_tuples: 3_000,
            customer_rows: 20_000,
            customer_doms: SERVE_DOMS,
            serve_rows: 5_000,
            serve_doms: SERVE_DOMS,
        }
    }
}

/// Active-domain sizes `(areacode, number, city, state, zipcode)` of the
/// batch customer workloads: the paper's 406,769-row AT&T table has
/// `(281, 889, 10894, 50, 17557)`; with 4,000 cities and 6,000 zipcodes
/// one `relcheck run --threads 2` takes about 160 ms instead of 500 ms,
/// so a run collects the hundred samples a p90 needs, while the peak of
/// live nodes still exceeds the 2^18 apply-cache slots.
pub const CUSTOMER_DOMS: [u64; 5] = [281, 889, 4000, 50, 6000];
/// Smaller domains for the serve session, so a `check` stays in the tens
/// of milliseconds and a run sees hundreds of them.
pub const SERVE_DOMS: [u64; 5] = [100, 889, 2000, 40, 3000];
/// Share of generated customers whose state is scrambled.
pub const VIOLATION_RATE: f64 = 0.001;

/// Seed of the fixed structure: the 1-PROD partition and attribute sizes
/// of `R1`, and the customer model (city→state, areacode→state). The run
/// seed draws the contents (the factor tuples, the customer rows and
/// their violations), so every seed measures the same shape of data (see
/// README.md, "Workloads").
pub const STRUCTURE_SEED: u64 = 77;

/// Generated Table 1 rows: the 5-attribute 1-PROD relation `R1` and `R2`
/// are built from. The curriculum relations are generated during load by
/// `populate`, exactly as `relcheck_bench::queries::build` does.
pub struct Table1Inputs {
    tuples: usize,
    r1: Vec<Vec<u32>>,
}

/// A 1-PROD relation as `relcheck_datagen::gen_kprod(5, 100, tuples, 1, _)`
/// draws it (a product of random factor relations over a random partition
/// of the attributes, sizes uniform in `[25, 100]`), except that the
/// partition, sizes and factor cardinalities come from `STRUCTURE_SEED`
/// and only the factor tuples from `seed`.
pub fn table1_inputs(tuples: usize, seed: u64) -> Table1Inputs {
    const ATTRS: usize = 5;
    let mut shape = SplitMix64::seed_from_u64(STRUCTURE_SEED);
    let sizes: Vec<u64> = (0..ATTRS).map(|_| shape.gen_range(25..=100u64)).collect();
    let groups = shape.gen_range(2..=3usize);
    let mut perm: Vec<usize> = (0..ATTRS).collect();
    shape.shuffle(&mut perm);
    let mut cuts: Vec<usize> = (1..ATTRS).collect();
    shape.shuffle(&mut cuts);
    let mut cuts = cuts[..groups - 1].to_vec();
    cuts.sort_unstable();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut rows = vec![vec![0u32; ATTRS]];
    let mut remaining = tuples as f64;
    let mut prev = 0;
    for (gi, &cut) in cuts.iter().chain(std::iter::once(&ATTRS)).enumerate() {
        let part = &perm[prev..cut];
        prev = cut;
        let capacity: f64 = part.iter().map(|&c| sizes[c] as f64).product();
        let want = remaining.powf(1.0 / (groups - gi) as f64).round().max(1.0);
        let size = want.min(capacity) as usize;
        remaining = (remaining / size as f64).max(1.0);
        let mut factor: BTreeSet<Vec<u32>> = BTreeSet::new();
        while factor.len() < size {
            factor.insert(
                part.iter()
                    .map(|&c| rng.gen_range(0..sizes[c]) as u32)
                    .collect(),
            );
        }
        rows = rows
            .iter()
            .flat_map(|row| {
                factor.iter().map(move |t| {
                    let mut r = row.clone();
                    for (&col, &v) in part.iter().zip(t) {
                        r[col] = v;
                    }
                    r
                })
            })
            .collect();
    }
    Table1Inputs { tuples, r1: rows }
}

/// Load the Table 1 database: `R1`, its `(v0, v1)` projection crossed
/// with `u ∈ {0, 1}` as `R2`, and the curriculum relations — the same
/// schema, classes and steps as `relcheck_bench::queries::build`.
pub fn load_table1(inp: &Table1Inputs) -> Database {
    let mut db = Database::new();
    for i in 0..5 {
        db.ensure_class_size(&format!("a{i}"), 100);
    }
    let r1 = Relation::from_rows(
        Schema::new(&[
            ("v0", "a0"),
            ("v1", "a1"),
            ("v2", "a2"),
            ("v3", "a3"),
            ("v4", "a4"),
        ]),
        inp.r1.iter().cloned(),
    )
    .expect("fixed arity");
    db.ensure_class_size("u", 16);
    let r2 = Relation::from_rows(
        Schema::new(&[("v0", "a0"), ("v1", "a1"), ("u", "u")]),
        inp.r1
            .iter()
            .flat_map(|row| (0..2u32).map(move |u| vec![row[0], row[1], u])),
    )
    .expect("fixed arity");
    db.insert_relation("R1", r1).expect("fresh database");
    db.insert_relation("R2", r2).expect("fresh database");
    populate(
        &mut db,
        &CurriculumConfig {
            students: (inp.tuples / 20).max(100),
            violating_students: 3,
            ..Default::default()
        },
    );
    db
}

pub fn table1_constraints() -> Vec<(String, Formula)> {
    queries::queries()
        .into_iter()
        .map(|(n, q)| (n.to_owned(), q))
        .collect()
}

/// Generated customers projected to `(areacode, city, state)` (duplicates
/// kept; the load deduplicates), plus the model's city→state reference.
pub struct CustomerInputs {
    pub doms: [u64; 5],
    pub cust: Vec<[u32; 3]>,
    pub city_state: Vec<[u32; 2]>,
}

/// Customers as `relcheck_datagen::customer::generate` makes them, with
/// its model (which state each city and area code belongs to) from
/// `STRUCTURE_SEED` and the rows from `seed`. The generator draws both
/// from one seed, so the model comes from a row-less call and the rows
/// are drawn here the way it draws them (a zipf-distributed city, a
/// share of scrambled states, an area code of the row's state),
/// restricted to the columns the battery reads.
pub fn customer_inputs(rows: usize, doms: [u64; 5], seed: u64) -> CustomerInputs {
    let model = customer::generate(&CustomerConfig {
        rows: 0,
        dom_sizes: doms,
        violation_rate: VIOLATION_RATE,
        seed: STRUCTURE_SEED,
    });
    let [_, _, n_city, n_state, _] = doms;
    let total: f64 = (0..n_city).map(|i| 1.0 / (i + 1) as f64).sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = (0..n_city)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64 / total;
            acc
        })
        .collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let cust = (0..rows)
        .map(|_| {
            let u = rng.gen_f64();
            let city = cdf.partition_point(|&c| c < u).min(n_city as usize - 1);
            let mut state = model.city_state[city];
            if rng.gen_bool(VIOLATION_RATE) {
                state = rng.gen_range(0..n_state) as u32;
            }
            let acs = &model.state_areacodes[state as usize];
            let areacode = acs[rng.gen_range(0..acs.len() as u64) as usize];
            [areacode, city as u32, state]
        })
        .collect();
    CustomerInputs {
        doms,
        cust,
        city_state: model
            .city_state
            .iter()
            .enumerate()
            .map(|(c, &s)| [c as u32, s])
            .collect(),
    }
}

fn cust_schema() -> Schema {
    Schema::new(&[
        ("areacode", "areacode"),
        ("city", "city"),
        ("state", "state"),
    ])
}

fn city_state_schema() -> Schema {
    Schema::new(&[("city", "city"), ("state", "state")])
}

/// Build the two-relation customer database from row sets. Class sizes
/// are the generator's domains, so a dictionary code equals its value.
pub fn customer_db<'a>(
    doms: [u64; 5],
    cust: impl IntoIterator<Item = &'a [u32; 3]>,
    city_state: impl IntoIterator<Item = &'a [u32; 2]>,
) -> Database {
    let mut db = Database::new();
    db.ensure_class_size("areacode", doms[0]);
    db.ensure_class_size("city", doms[2]);
    db.ensure_class_size("state", doms[3]);
    let cust = Relation::from_rows(cust_schema(), cust.into_iter().map(|r| r.to_vec()))
        .expect("fixed arity");
    let cs = Relation::from_rows(
        city_state_schema(),
        city_state.into_iter().map(|r| r.to_vec()),
    )
    .expect("fixed arity");
    db.insert_relation("CUST", cust).expect("fresh database");
    db.insert_relation("CITY_STATE", cs)
        .expect("fresh database");
    db
}

pub fn load_customer(inp: &CustomerInputs) -> Database {
    customer_db(inp.doms, &inp.cust, &inp.city_state)
}

/// The five constraints of the customer battery (the same battery the
/// parallel-scaling and dynamic benches use).
pub fn customer_constraints() -> Vec<(String, Formula)> {
    [
        (
            "reference-agrees",
            "forall a, c, s, s2. CUST(a, c, s) & CITY_STATE(c, s2) -> s = s2",
        ),
        (
            "city-determines-state",
            "forall a1, c, s1, a2, s2. CUST(a1, c, s1) & CUST(a2, c, s2) -> s1 = s2",
        ),
        (
            "areacode-determines-state",
            "forall a, c1, s1, c2, s2. CUST(a, c1, s1) & CUST(a, c2, s2) -> s1 = s2",
        ),
        (
            "cities-are-known",
            "forall a, c, s. CUST(a, c, s) -> exists s2. CITY_STATE(c, s2)",
        ),
        (
            "reference-is-functional",
            "forall c, s1, s2. CITY_STATE(c, s1) & CITY_STATE(c, s2) -> s1 = s2",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).expect("battery parses")))
    .collect()
}

/// `(relation, distinct rows)` for every relation, sorted by name.
pub fn relation_sizes(db: &Database) -> Vec<(String, usize)> {
    let mut names: Vec<&str> = db.relation_names().collect();
    names.sort_unstable();
    names
        .into_iter()
        .map(|n| (n.to_owned(), db.relation(n).map_or(0, Relation::len)))
        .collect()
}
