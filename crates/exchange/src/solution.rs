//! Canonical and core universal solutions (Theorem 5).
//!
//! With no restriction on targets, least upper bounds in the information
//! ordering are disjoint unions (after null renaming), so `⊔M(D)` — the
//! *canonical universal solution* of data-exchange practice — is a
//! representative of `∨ M(D)`, and the most compact representative of the
//! equivalence class is its core, the *core solution*.

use ca_gdm::database::GenDb;
use ca_gdm::encode::{self_hom_structure, value_self_hom_structure};
use ca_gdm::hom::{gdm_hom_csp, gdm_leq};
use ca_hom::csp::IncrementalSelfHom;
use ca_hom::retract::retract_core;

use crate::mapping::Mapping;

/// The canonical universal solution `⊔ M(D)`: the disjoint union of all
/// single-rule applications. Returns an empty target when no rule fires
/// (`target_schema` supplies the schema in that case).
pub fn canonical_solution(
    mapping: &Mapping,
    d: &GenDb,
    target_schema: &ca_gdm::schema::GenSchema,
) -> GenDb {
    let apps = mapping.applications(d);
    let mut out = GenDb::new(target_schema.clone());
    for app in apps {
        out = out.disjoint_union(&app);
    }
    out
}

/// The core of a generalized database: the unique-up-to-isomorphism
/// smallest hom-equivalent sub-instance. Exponential in the worst case
/// (as for graphs).
///
/// Routed through the incremental retraction engine
/// ([`ca_hom::retract`]) over the faithful self-homomorphism encoding
/// ([`ca_gdm::encode::self_hom_structure`]): one CSP compile per core,
/// in-place bitset domain restriction across the whole shrink loop,
/// PTIME folding of dominated nodes. The seed-era per-candidate rebuild
/// loop survives verbatim in [`crate::reference`] as the differential
/// oracle. The kept node set (and hence the returned database) is
/// deterministic.
///
/// Purely relational databases (`σ = ∅`, which covers every
/// data-exchange target in this crate) retract over the value-only
/// encoding ([`value_self_hom_structure`]): the CSP has one variable
/// per distinct value instead of nodes + values, and redundant facts
/// become *foldable* (a pendant null moves without dragging a welded
/// node element along), so most shrinkage needs no search at all.
/// Databases with structural tuples use the general node encoding.
pub fn core_of_gendb(d: &GenDb) -> GenDb {
    if d.tuples.is_empty() {
        if d.n_nodes() <= SMALL_CORE_MAX_NODES && !has_foldable_null(d) {
            return small_core(d);
        }
        return value_core(d);
    }
    let (s, _universe) = self_hom_structure(d);
    let probe: Vec<u32> = (0..d.n_nodes() as u32).collect();
    let r = retract_core(&s, &probe);
    induced(d, &r.kept)
}

/// Below this many nodes the retraction engine's setup (encoding, fold
/// prepass, support tables) costs more than the search it saves, and the
/// direct loop in [`small_core`] wins — unless the instance has
/// single-occurrence nulls, which the engine folds away without any
/// search at all (see [`has_foldable_null`]).
const SMALL_CORE_MAX_NODES: usize = 64;

/// Does any null occur in exactly one fact position? Such "pendant"
/// nulls are where the engine's PTIME fold prepass shines (it removes
/// them with no search), so instances with them stay on the engine path
/// at every size.
fn has_foldable_null(d: &GenDb) -> bool {
    let mut counts: std::collections::BTreeMap<ca_core::value::Null, usize> =
        std::collections::BTreeMap::new();
    for nl in d.values().iter().filter_map(|v| v.as_null()) {
        *counts.entry(nl).or_insert(0) += 1;
    }
    counts.values().any(|&c| c == 1)
}

/// Direct core loop for tiny purely relational instances: per shrink
/// round, compile the self-homomorphism CSP **once** into an
/// [`IncrementalSelfHom`] (support tables and all) and run one cheap
/// GAC-prefixed probe per avoid-candidate. The seed-era reference
/// rebuilds and recompiles the whole CSP per candidate; hoisting the
/// compile out of the candidate loop is the entire speedup.
fn small_core(d: &GenDb) -> GenDb {
    let mut current = d.clone();
    loop {
        let n = current.n_nodes();
        let (base, _, _) = gdm_hom_csp(&current, &current);
        // Restrict node variables only (they come first in the encoding);
        // value variables follow and keep their full domains.
        let probe: Vec<u32> = (0..n as u32).collect();
        let inc = IncrementalSelfHom::new(&base, &probe);
        let mut shrunk = false;
        for avoid in 0..n as u32 {
            if let Some(sol) = inc.probe_avoiding(avoid) {
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

/// Core via the value-only encoding (`σ = ∅`). The engine retracts the
/// value universe; the surviving database is the *image* of the facts
/// under the found valuation: map every fact tuple, dedup, and keep the
/// lowest node carrying each image tuple (image tuples are existing
/// facts — that is the homomorphism condition — so this is an induced
/// sub-database and a core).
fn value_core(d: &GenDb) -> GenDb {
    let (s, universe) = value_self_hom_structure(d);
    let probe: Vec<u32> = (0..s.n_elements as u32).collect();
    let r = retract_core(&s, &probe);
    // Image of each fact under the valuation, as (label, mapped tuple).
    let image: Vec<(u32, Vec<u32>)> = d
        .nodes()
        .map(|(label, data)| {
            let mapped: Vec<u32> = data
                .iter()
                .filter_map(|v| universe.binary_search(v).ok())
                .map(|vi| r.map.get(vi).copied().unwrap_or(vi as u32))
                .collect();
            (label.0, mapped)
        })
        .collect();
    // Keep the lowest node whose own tuple equals its image (every image
    // tuple is some fact's tuple; ties collapse duplicates), one per
    // distinct image.
    let mut seen: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut keep: Vec<u32> = Vec::new();
    for img in &image {
        if seen.contains(img) {
            continue;
        }
        // Find the lowest node carrying exactly this image tuple.
        if let Some(carrier) = (0..d.n_nodes()).find(|&m| {
            d.labels()[m].0 == img.0
                && d.node(m)
                    .iter()
                    .map(|v| universe.binary_search(v).ok())
                    .eq(img.1.iter().map(|&x| Some(x as usize)))
        }) {
            seen.push(img.clone());
            keep.push(carrier as u32);
        }
    }
    keep.sort_unstable();
    keep.dedup();
    induced(d, &keep)
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

/// The core solution: `core(⊔ M(D))`.
pub fn core_solution(
    mapping: &Mapping,
    d: &GenDb,
    target_schema: &ca_gdm::schema::GenSchema,
) -> GenDb {
    core_of_gendb(&canonical_solution(mapping, d, target_schema))
}

/// Universality test against a finite family of candidate solutions: `d2`
/// is a solution, and it maps homomorphically into every provided
/// solution. (Theorem 5 characterizes the universal solutions as the
/// lub-class of `M(D)`; against *all* solutions this is only testable on
/// sampled families, which is what experiments do.)
pub fn is_universal_solution(
    mapping: &Mapping,
    d: &GenDb,
    d2: &GenDb,
    other_solutions: &[GenDb],
) -> bool {
    if !mapping.is_solution(d, d2) {
        return false;
    }
    other_solutions.iter().all(|s| {
        debug_assert!(mapping.is_solution(d, s), "candidates must be solutions");
        gdm_leq(d2, s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Mapping, Rule};
    use ca_core::value::Value;
    use ca_gdm::schema::GenSchema;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn paper_setting() -> (Mapping, GenSchema, GenSchema) {
        let src = GenSchema::from_parts(&[("S", 3)], &[]);
        let tgt = GenSchema::from_parts(&[("T", 2)], &[]);
        let mut body = GenDb::new(src.clone());
        body.add_node("S", vec![n(1), n(2), n(3)]);
        let mut head = GenDb::new(tgt.clone());
        head.add_node("T", vec![n(1), n(4)]);
        head.add_node("T", vec![n(4), n(2)]);
        (Mapping::new(vec![Rule { body, head }]), src, tgt)
    }

    #[test]
    fn canonical_solution_is_a_solution() {
        let (mapping, src, tgt) = paper_setting();
        let mut d = GenDb::new(src);
        d.add_node("S", vec![c(1), c(2), c(9)]);
        d.add_node("S", vec![c(2), c(3), c(9)]);
        let canon = canonical_solution(&mapping, &d, &tgt);
        assert_eq!(canon.n_nodes(), 4); // two applications × two facts
        assert!(mapping.is_solution(&d, &canon));
    }

    /// Theorem 5 in action: the canonical solution maps into every
    /// solution (universality) and every application maps into it (upper
    /// bound).
    #[test]
    fn canonical_solution_is_universal() {
        let (mapping, src, tgt) = paper_setting();
        let mut d = GenDb::new(src);
        d.add_node("S", vec![c(1), c(2), c(9)]);
        let canon = canonical_solution(&mapping, &d, &tgt);
        // Upper bound of M(D).
        for app in mapping.applications(&d) {
            assert!(gdm_leq(&app, &canon));
        }
        // Universality against sampled solutions.
        let mut s1 = GenDb::new(tgt.clone());
        s1.add_node("T", vec![c(1), c(5)]);
        s1.add_node("T", vec![c(5), c(2)]);
        let mut s2 = GenDb::new(tgt.clone());
        s2.add_node("T", vec![c(1), c(5)]);
        s2.add_node("T", vec![c(5), c(2)]);
        s2.add_node("T", vec![c(7), c(7)]);
        let mut s3 = canon.clone();
        s3.add_node("T", vec![c(42), c(43)]);
        assert!(is_universal_solution(&mapping, &d, &canon, &[s1, s2, s3]));
    }

    /// A complete solution that is *not* universal: it over-specifies the
    /// existential value.
    #[test]
    fn overspecified_solution_is_not_universal() {
        let (mapping, src, tgt) = paper_setting();
        let mut d = GenDb::new(src);
        d.add_node("S", vec![c(1), c(2), c(9)]);
        // Solution using the constant 5 as the middle value.
        let mut s = GenDb::new(tgt.clone());
        s.add_node("T", vec![c(1), c(5)]);
        s.add_node("T", vec![c(5), c(2)]);
        assert!(mapping.is_solution(&d, &s));
        // Another solution with middle value 6: s does not map into it.
        let mut other = GenDb::new(tgt);
        other.add_node("T", vec![c(1), c(6)]);
        other.add_node("T", vec![c(6), c(2)]);
        assert!(!is_universal_solution(&mapping, &d, &s, &[other]));
    }

    #[test]
    fn core_solution_folds_redundancy() {
        let (mapping, src, tgt) = paper_setting();
        // Two S-facts with the same x, y (different u): the canonical
        // solution has two parallel T-chains; the core keeps one.
        let mut d = GenDb::new(src);
        d.add_node("S", vec![c(1), c(2), c(8)]);
        d.add_node("S", vec![c(1), c(2), c(9)]);
        let canon = canonical_solution(&mapping, &d, &tgt);
        assert_eq!(canon.n_nodes(), 4);
        let core = core_solution(&mapping, &d, &tgt);
        assert_eq!(core.n_nodes(), 2);
        // Core is hom-equivalent to the canonical solution and still a
        // solution.
        assert!(gdm_leq(&core, &canon) && gdm_leq(&canon, &core));
        assert!(mapping.is_solution(&d, &core));
    }

    #[test]
    fn core_of_complete_db_is_itself_modulo_duplicates() {
        let tgt = GenSchema::from_parts(&[("T", 2)], &[]);
        let mut d = GenDb::new(tgt);
        d.add_node("T", vec![c(1), c(2)]);
        d.add_node("T", vec![c(2), c(3)]);
        let core = core_of_gendb(&d);
        assert_eq!(core.n_nodes(), 2);
    }
}
