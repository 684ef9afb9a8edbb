//! Reference implementations, kept ~verbatim as differential-testing
//! oracles and benchmark baselines:
//!
//! * [`core_of_gendb`] — the seed-era retract loop behind
//!   [`crate::solution::core_of_gendb`]: every avoid-candidate in every
//!   shrink round rebuilds and re-propagates a fresh `gdm_hom_csp`.
//! * [`chase_with`] — the seed-era chase loop, the oracle that the
//!   chase engine behind [`crate::chase::chase`] is tested against: one
//!   firing per pass, every pass re-matching every rule body against the
//!   whole instance through the CSP matcher. The only departures from the
//!   seed are that the hard-coded 10 000 match cap is a parameter, and
//!   overrunning it is a typed [`ChaseOutcome::Overflow`] instead of a
//!   silent truncation.
//!
//! Deliberately naive. Do not optimize this module; its value is being
//! obviously correct.

use ca_core::value::{Null, NullGen, Value};
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_hom_csp;

use crate::chase::{ChaseOutcome, Egd};
use crate::mapping::Rule;

/// The core of a generalized database: iteratively find a proper
/// endomorphism (one avoiding some node) and restrict to its node image.
/// Exponential in the worst case (as for graphs); the result is the
/// unique-up-to-isomorphism smallest hom-equivalent sub-instance.
pub fn core_of_gendb(d: &GenDb) -> GenDb {
    let mut current = d.clone();
    loop {
        let n = current.n_nodes();
        let mut shrunk = false;
        for avoid in 0..n as u32 {
            let (mut csp, _, _) = gdm_hom_csp(&current, &current);
            // Remove `avoid` from every *node* variable's domain (node
            // variables come first).
            for v in 0..n {
                let dom: Vec<u32> = csp.domains[v]
                    .iter()
                    .copied()
                    .filter(|&x| x != avoid)
                    .collect();
                csp.restrict_domain(v as u32, dom);
            }
            if let Some(sol) = csp.solve() {
                // Restrict to the image nodes.
                let mut keep: Vec<u32> = sol[..n].to_vec();
                keep.sort_unstable();
                keep.dedup();
                current = induced(&current, &keep);
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// The induced sub-database on `keep` (node ids renumbered in order).
fn induced(d: &GenDb, keep: &[u32]) -> GenDb {
    let mut renumber = vec![u32::MAX; d.n_nodes()];
    for (new, &old) in keep.iter().enumerate() {
        renumber[old as usize] = new as u32;
    }
    let mut out = GenDb::new(d.schema.clone());
    for &old in keep {
        out.push_node(d.labels()[old as usize], d.node(old as usize));
    }
    for (rel, t) in &d.tuples {
        if let Some(mapped) = t
            .iter()
            .map(|&x| {
                let r = renumber[x as usize];
                (r != u32::MAX).then_some(r)
            })
            .collect::<Option<Vec<u32>>>()
        {
            out.add_tuple(d.schema.relation_name(*rel), mapped);
        }
    }
    out
}

/// All body matches of `pattern` in `instance`, as null valuations.
/// `None` when the matcher hit `limit` (the enumeration may be
/// incomplete, so the chase must not act on it).
fn matches_of(pattern: &GenDb, instance: &GenDb, limit: usize) -> Option<Vec<Vec<(Null, Value)>>> {
    let (csp, nulls, universe) = gdm_hom_csp(pattern, instance);
    let sols = csp.solve_all(limit).solutions;
    // Conservative at exactly `limit`: the solver stops there, so a full
    // batch cannot be distinguished from a truncated one.
    if sols.len() >= limit {
        return None;
    }
    Some(
        sols.into_iter()
            .map(|sol| {
                let n = pattern.n_nodes();
                nulls
                    .iter()
                    .enumerate()
                    .map(|(i, &nl)| (nl, universe[sol[n + i] as usize]))
                    .collect()
            })
            .collect(),
    )
}

/// Does the head of `rule` have a match in `instance` extending the body
/// valuation on the frontier?
fn head_extends(rule: &Rule, instance: &GenDb, body_val: &[(Null, Value)]) -> bool {
    let frontier = rule.frontier();
    let (mut csp, nulls, universe) = gdm_hom_csp(&rule.head, instance);
    let n = rule.head.n_nodes();
    for (i, nl) in nulls.iter().enumerate() {
        if frontier.contains(nl) {
            let target = body_val
                .iter()
                .find(|(m, _)| m == nl)
                .map(|&(_, v)| v)
                // ca-lint: allow(L002, reason = "frozen oracle, kept as the seed wrote it; a frontier null is by definition a body null")
                .expect("frontier null bound by body");
            match universe.binary_search(&target) {
                Ok(pos) => csp.restrict_domain((n + i) as u32, vec![pos as u32]),
                Err(_) => return false,
            }
        }
    }
    csp.satisfiable()
}

/// Run the standard chase: apply violated tgds (adding head facts with
/// fresh existentials) and egds (merging values) until a fixpoint, a
/// failure, or the step budget runs out. One firing per pass over the
/// rules, exactly as the seed did it.
pub fn chase_with(
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    max_steps: usize,
    match_limit: usize,
) -> ChaseOutcome {
    let mut current = instance.clone();
    let mut gen = NullGen::avoiding(
        current.nulls().into_iter().chain(
            tgds.iter()
                .flat_map(|r| r.body.nulls().into_iter().chain(r.head.nulls())),
        ),
    );
    for _ in 0..max_steps {
        // Egds first (they only shrink the instance).
        let mut fired = false;
        'egds: for egd in egds {
            let Some(ms) = matches_of(&egd.body, &current, match_limit) else {
                return ChaseOutcome::Overflow(Box::new(current.clone()));
            };
            for m in ms {
                let get = |nl: Null| {
                    m.iter()
                        .find(|(x, _)| *x == nl)
                        .map(|&(_, v)| v)
                        // ca-lint: allow(L002, reason = "frozen oracle, kept as the seed wrote it; well-formed egds equate body nulls")
                        .expect("egd nulls occur in its body")
                };
                let (a, b) = (get(egd.equal.0), get(egd.equal.1));
                if a == b {
                    continue;
                }
                match (a, b) {
                    (Value::Const(_), Value::Const(_)) => return ChaseOutcome::Failed,
                    (Value::Null(nl), other) | (other, Value::Null(nl)) => {
                        current =
                            current.map_values(|v| if v == Value::Null(nl) { other } else { v });
                        fired = true;
                        break 'egds;
                    }
                }
            }
        }
        if fired {
            continue;
        }
        // Tgds.
        'tgds: for rule in tgds {
            let Some(ms) = matches_of(&rule.body, &current, match_limit) else {
                return ChaseOutcome::Overflow(Box::new(current.clone()));
            };
            for m in ms {
                if head_extends(rule, &current, &m) {
                    continue;
                }
                // Fire: add the head under the body valuation, fresh
                // existentials.
                let frontier = rule.frontier();
                let mut subst: Vec<(Null, Value)> = Vec::new();
                for nl in rule.head.nulls() {
                    let v = if frontier.contains(&nl) {
                        m.iter()
                            .find(|(x, _)| *x == nl)
                            .map(|&(_, v)| v)
                            // ca-lint: allow(L002, reason = "frozen oracle, kept as the seed wrote it; the frontier is body∩head")
                            .expect("frontier bound")
                    } else {
                        Value::Null(gen.fresh())
                    };
                    subst.push((nl, v));
                }
                let head_inst = rule.head.map_values(|v| match v {
                    Value::Null(nl) => subst
                        .iter()
                        .find(|(x, _)| *x == nl)
                        .map(|&(_, v)| v)
                        .unwrap_or(v),
                    c => c,
                });
                current = current.disjoint_union(&head_inst);
                fired = true;
                break 'tgds;
            }
        }
        if !fired {
            return ChaseOutcome::Done(Box::new(current));
        }
    }
    ChaseOutcome::Aborted
}
