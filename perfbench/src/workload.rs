//! The benchmark's workloads and the seeded source data they run on.
//!
//! A source is a company directory split into *tenants* that share no
//! values: every constant of tenant `t` lies in `[t·STRIDE, (t+1)·STRIDE)`
//! and every null is used by one tenant only. A tenant has a tree of
//! departments; each department but the root is led by an employee of its
//! parent department, and some departments have an unknown city (a null).
//! The tree's shape and the department sizes are fixed by the workload, so
//! the work of a job hardly depends on the seed; the seed picks the leads,
//! the log rows and the audited tenants.
//!
//! Because tenants are disjoint and every query is connected, the certain
//! answers of the whole chased target split by tenant, and one tenant's
//! facts form a small database on which the exponential completion sweep
//! stays affordable. The benchmark uses that to audit the engine's answers
//! on a few tenants per job, while the tenant count sets the source size:
//! every workload's source holds at least 10^4 facts, so per-call fixed
//! costs do not dominate any layer.

use std::fmt::Write as _;

/// Width of one tenant's constant range.
pub const STRIDE: i64 = 1_000_000;
const DEPT: i64 = 100_000;
const CITY: i64 = 200_000;
const LOG: i64 = 300_000;

/// Transitive reporting lines.
const REPORTS: &str = "(e, m) :- Reports(e, m)";
/// The city an employee works in.
const SITE: &str = "(e, c) :- Works(e, d), Site(d, c)";
/// The cities of an employee's (transitive) bosses: a three-way join.
const CHAIN: &str = "(e, c) :- Reports(e, m), Works(m, d), Site(d, c)";
/// The bosses of an employee's colleagues: quadratic in department size
/// before projection, linear after.
const MATES: &str = "(e, m) :- Works(e, d), Works(f, d), Reports(f, m)";

/// One workload: the shape of its sources and the queries every job asks.
pub struct Workload {
    pub name: &'static str,
    /// Tenants per source.
    pub tenants: usize,
    /// Employees per tenant (at least `depts`).
    pub employees: usize,
    /// Departments per tenant.
    pub depts: usize,
    /// Child departments per department (1: one chain, so deep reporting
    /// lines).
    pub fanout: usize,
    /// Departments per tenant whose city is unknown (a null).
    pub unknown_cities: usize,
    /// The root department is led by one of its own employees, so no
    /// boss is unknown.
    pub root_lead: bool,
    /// Led departments per audited tenant with a second lead record
    /// naming an unknown employee (a null the chase's egd merges into the
    /// lead). Only audited tenants have them: the certificate checker
    /// replays a merge in time linear in the whole instance.
    pub vague_leads: usize,
    /// Rows per tenant of a `Log` relation that no rule reads: load for
    /// ingest and store only.
    pub log_rows: usize,
    /// Tenants audited (swept, certified, checked) per job.
    pub audited: usize,
    /// The queries, in the `ca-query` text syntax.
    pub queries: &'static [&'static str],
}

/// Every workload. Each one puts most of a job's time in a different
/// part of the pipeline; `why` in BENCHMARK.json says which.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk_load",
        tenants: 12,
        employees: 8,
        depts: 3,
        fanout: 2,
        unknown_cities: 1,
        root_lead: false,
        vague_leads: 1,
        log_rows: 1600,
        audited: 1,
        queries: &[SITE],
    },
    Workload {
        name: "deep_chase",
        tenants: 256,
        employees: 16,
        depts: 16,
        fanout: 1,
        unknown_cities: 0,
        root_lead: false,
        vague_leads: 1,
        log_rows: 0,
        audited: 1,
        queries: &[REPORTS],
    },
    Workload {
        name: "wide_join",
        tenants: 256,
        employees: 40,
        depts: 2,
        fanout: 2,
        unknown_cities: 0,
        root_lead: true,
        vague_leads: 0,
        log_rows: 0,
        audited: 1,
        queries: &[SITE, CHAIN, MATES],
    },
    Workload {
        name: "null_audit",
        tenants: 800,
        employees: 8,
        depts: 3,
        fanout: 2,
        unknown_cities: 2,
        root_lead: false,
        vague_leads: 1,
        log_rows: 0,
        audited: 8,
        queries: &[REPORTS, SITE, CHAIN],
    },
];

/// Distinct sources per run; jobs cycle through them.
pub const SOURCES: u64 = 4;

/// SplitMix64: small, seedable, and the same on every host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded source: the CSV text the pipeline ingests, its fact count,
/// the `Reports` facts each tenant must have after the chase, and the
/// tenants each job audits.
pub struct Source {
    pub csv: String,
    pub facts: u64,
    /// Per tenant: each employee reports to the boss of every department
    /// from its own up to the root.
    pub reports: Vec<usize>,
    pub audited: Vec<i64>,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Source number `index` of the run seeded with `seed`.
    pub fn source(&self, seed: u64, index: u64) -> Source {
        let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ index);
        let mut csv = String::new();
        let mut facts = 0u64;
        let mut next_null = 1u32;
        let mut audited: Vec<i64> = Vec::new();
        while audited.len() < self.audited.min(self.tenants) {
            let t = rng.below(self.tenants) as i64;
            if !audited.contains(&t) {
                audited.push(t);
            }
        }
        let reports = (0..self.tenants as i64)
            .map(|t| {
                let vague = if audited.contains(&t) {
                    self.vague_leads
                } else {
                    0
                };
                self.tenant(&mut rng, t, vague, &mut next_null, &mut csv, &mut facts)
            })
            .collect();
        Source {
            csv,
            facts,
            reports,
            audited,
        }
    }

    fn tenant(
        &self,
        rng: &mut Rng,
        t: i64,
        vague_leads: usize,
        next_null: &mut u32,
        csv: &mut String,
        facts: &mut u64,
    ) -> usize {
        let base = t * STRIDE;
        let d = self.depts;
        let parent = |j: usize| j.saturating_sub(1) / self.fanout;
        // Employees go round-robin, so department sizes do not depend on
        // the seed.
        let mut dept_of = Vec::with_capacity(self.employees);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); d];
        for e in 0..self.employees {
            let dept = e % d;
            members[dept].push(e);
            dept_of.push(dept);
            let _ = writeln!(csv, "Emp,{},{}", base + e as i64, base + DEPT + dept as i64);
        }
        let first = if self.root_lead { 0 } else { 1 };
        // `bosses[j]`: the distinct leads from department `j` up to the
        // root (an unled root counts its one unknown boss).
        let mut bosses: Vec<Vec<Option<usize>>> = Vec::with_capacity(d);
        for j in 0..d {
            let mut chain = if j == 0 {
                Vec::new()
            } else {
                bosses[parent(j)].clone()
            };
            if j < first {
                chain.push(None);
                bosses.push(chain);
                continue;
            }
            let staff = &members[parent(j)];
            let lead = staff[rng.below(staff.len())];
            let _ = writeln!(
                csv,
                "Lead,{},{}",
                base + DEPT + j as i64,
                base + lead as i64
            );
            if (1..=vague_leads).contains(&j) {
                let _ = writeln!(csv, "Lead,{},?{}", base + DEPT + j as i64, *next_null);
                *next_null += 1;
                *facts += 1;
            }
            if !chain.contains(&Some(lead)) {
                chain.push(Some(lead));
            }
            bosses.push(chain);
        }
        let reports = dept_of.iter().map(|&j| bosses[j].len()).sum();
        let cities = (d / 2).max(2);
        for j in 0..d {
            if j < self.unknown_cities {
                let _ = writeln!(csv, "Dept,{},?{}", base + DEPT + j as i64, *next_null);
                *next_null += 1;
            } else {
                let city = base + CITY + (j % cities) as i64;
                let _ = writeln!(csv, "Dept,{},{city}", base + DEPT + j as i64);
            }
        }
        for k in 0..self.log_rows {
            let who = base + rng.below(self.employees) as i64;
            let what = base + LOG + rng.below(1000) as i64;
            let _ = writeln!(csv, "Log,{who},{},{what}", base + LOG + k as i64);
        }
        *facts += (self.employees + 2 * d - first + self.log_rows) as u64;
        reports
    }
}

/// The tenant a constant belongs to.
pub fn tenant_of(v: ca_core::value::Value) -> Option<i64> {
    v.as_const().map(|c| c.div_euclid(STRIDE))
}
