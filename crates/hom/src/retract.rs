//! The shared retraction engine: cores by incremental self-homomorphism
//! search.
//!
//! A core of a structure `S` is a minimal subset `R` of its elements such
//! that `S` retracts onto `S[R]` (Hell–Nešetřil; unique up to
//! isomorphism). The naive algorithm recompiles and resolves a fresh CSP
//! for every candidate element in every shrink round — `O(n²)` solver
//! *compilations* per core. This engine serves both digraph cores
//! (`ca_graph::core`) and generalized-database cores
//! (`ca_exchange::solution`, via the self-hom encoding
//! `ca_gdm::encode::self_hom_structure`) from one shrink loop built on
//! three observations:
//!
//! 1. **One compile serves the whole loop.** If an endomorphism of `S`
//!    with probe image inside a live set `R` exists, then `S[R]` retracts
//!    onto `S[R] ∖ {v}` **iff** `S` has an endomorphism whose probe
//!    domains are restricted to `R ∖ {v}` (compose with the witness
//!    retraction one way, restrict the other). So the self-homomorphism
//!    CSP of the *original* structure is compiled once
//!    ([`crate::csp::IncrementalSelfHom`]); shrinking only intersects
//!    bitset domains in place and re-propagates.
//! 2. **Failures are monotone.** Restricting domains can only lose
//!    solutions, so a candidate proven unavoidable stays unavoidable for
//!    every later (smaller) live set: each candidate is probed at most
//!    once across the whole loop — `O(n)` probes total, not `O(n²)`.
//! 3. **Most shrinkage needs no search.** A PTIME fold prepass eliminates
//!    dominated elements (an element `u` folds onto `w` when substituting
//!    `u ↦ w` maps every current tuple to a tuple of `S`), and each
//!    solver-found endomorphism is greedily self-composed until its image
//!    stabilizes, shrinking many elements per solve.
//!
//! Remaining candidates are probed in ascending order and the lowest
//! admitting one wins, so the kept element set and the witness map are
//! deterministic.

use crate::csp::IncrementalSelfHom;
use crate::structure::RelStructure;
use ca_cert::{CoreCert, CoreStep};

/// The result of a retraction run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Retraction {
    /// The kept probe elements, ascending, in the *original* numbering:
    /// the core's element set.
    pub kept: Vec<u32>,
    /// A witness endomorphism of the original structure (indexed by
    /// element) mapping every probe element into `kept` — the composition
    /// of every fold and every solver-found endomorphism.
    pub map: Vec<u32>,
}

/// Shrink `s` to a core over the `probe` elements: find a minimal live
/// subset of `probe` such that `s` has an endomorphism mapping every
/// probe element into it (non-probe elements are never candidates for
/// removal and keep their full domains). For digraphs pass every vertex;
/// for encoded generalized databases pass the node-element prefix.
///
/// Deterministic (lowest-candidate-wins).
pub fn retract_core(s: &RelStructure, probe: &[u32]) -> Retraction {
    run_retract(s, probe, None)
}

/// Like [`retract_core`], but also records every fold and every
/// solver-found endomorphism into a replayable [`CoreCert`]. The
/// certificate attests that `map` is an endomorphism built exactly from
/// the recorded chain and retracts `probe` onto `kept`; minimality is
/// not a replayable claim (see [`CoreCert`]).
pub fn retract_core_certified(s: &RelStructure, probe: &[u32]) -> (Retraction, CoreCert) {
    let mut steps: Vec<CoreStep> = Vec::new();
    let r = run_retract(s, probe, Some(&mut steps));
    let mut tuples = s.tuples.clone();
    tuples.sort_unstable();
    tuples.dedup();
    let mut probe_sorted: Vec<u32> = probe
        .iter()
        .copied()
        .filter(|&p| (p as usize) < s.n_elements)
        .collect();
    probe_sorted.sort_unstable();
    probe_sorted.dedup();
    let cert = CoreCert {
        n_elements: s.n_elements as u32,
        tuples,
        probe: probe_sorted,
        steps,
        kept: r.kept.clone(),
        map: r.map.clone(),
    };
    (r, cert)
}

fn run_retract(s: &RelStructure, probe: &[u32], mut rec: Option<&mut Vec<CoreStep>>) -> Retraction {
    let n = s.n_elements;
    let mut map: Vec<u32> = (0..n as u32).collect();
    let mut live: Vec<u32> = probe
        .iter()
        .copied()
        .filter(|&p| (p as usize) < n)
        .collect();
    live.sort_unstable();
    live.dedup();
    let probe = live.clone();

    // Sorted tuple set of the original structure, for fold membership
    // tests (binary search instead of linear scans).
    let mut all_tuples: Vec<(u32, Vec<u32>)> = s.tuples.clone();
    all_tuples.sort_unstable();
    all_tuples.dedup();

    fold_pass(s, &all_tuples, &mut live, &mut map, rec.as_deref_mut());
    if live.len() <= 1 {
        // A single live element cannot be avoided (its probe domain would
        // be empty), so the loop below could only pin it: done already.
        return Retraction { kept: live, map };
    }

    let csp = s.hom_csp(s);
    let mut inc = IncrementalSelfHom::new(&csp, &probe);
    let n_words = n.div_ceil(64).max(1);
    // Probe elements must map into the live (probe) set from the start —
    // without this a probe could escape into a non-probe element and the
    // kept set would leave the probe universe.
    inc.restrict_probes(&live_mask(&live, n_words));

    // Candidates proven unavoidable — permanently, since later live sets
    // only restrict domains further.
    let mut pinned = vec![false; n];
    loop {
        let candidates: Vec<u32> = live
            .iter()
            .copied()
            .filter(|&v| !pinned[v as usize])
            .collect();
        if candidates.is_empty() {
            break;
        }
        let (winner, failed) = inc.probe_lowest(&candidates);
        for v in failed {
            pinned[v as usize] = true;
        }
        let Some((_, h)) = winner else {
            break;
        };
        // Greedy composition: iterate the found endomorphism until its
        // probe image stabilizes (images are nested decreasing, so
        // comparing sizes suffices), then fold it into the accumulated map.
        let mut g = h.clone();
        loop {
            let g2: Vec<u32> = g.iter().map(|&x| h[x as usize]).collect();
            if image_size(&g2, &live) == image_size(&g, &live) {
                break;
            }
            g = g2;
        }
        if let Some(r) = rec.as_deref_mut() {
            r.push(CoreStep::Endo { g: g.clone() });
        }
        for x in map.iter_mut() {
            *x = g[*x as usize];
        }
        let mut new_live: Vec<u32> = live.iter().map(|&u| g[u as usize]).collect();
        new_live.sort_unstable();
        new_live.dedup();
        live = new_live;
        fold_pass(s, &all_tuples, &mut live, &mut map, rec.as_deref_mut());
        let ok = inc.restrict_probes(&live_mask(&live, n_words));
        debug_assert!(ok, "retraction invariant violated: live set unreachable");
        if !ok {
            break;
        }
    }
    Retraction { kept: live, map }
}

/// Bitset of the live element ids.
fn live_mask(live: &[u32], n_words: usize) -> Vec<u64> {
    let mut mask = vec![0u64; n_words];
    for &v in live {
        if let Some(w) = mask.get_mut(v as usize >> 6) {
            *w |= 1u64 << (v & 63);
        }
    }
    mask
}

/// Number of distinct images of `of` under `g` (assumes `of` sorted).
fn image_size(g: &[u32], of: &[u32]) -> usize {
    let mut img: Vec<u32> = of.iter().map(|&u| g[u as usize]).collect();
    img.sort_unstable();
    img.dedup();
    img.len()
}

/// PTIME dominance prepass: repeatedly fold a live element `u` onto
/// another live element `w` whenever the substitution `u ↦ w` maps every
/// current-image tuple containing `u` to a tuple of the original
/// structure (so `id except u ↦ w`, composed with the accumulated map,
/// is still an endomorphism). This removes pendant and dominated
/// elements — most of the shrinkage on product graphs — without any
/// search. Deterministic: lowest `u`, then lowest `w`, wins each round.
fn fold_pass(
    s: &RelStructure,
    all_tuples: &[(u32, Vec<u32>)],
    live: &mut Vec<u32>,
    map: &mut [u32],
    mut rec: Option<&mut Vec<CoreStep>>,
) {
    if live.len() < 2 {
        return;
    }
    loop {
        // Current-image tuples and, per live element, which contain it.
        let mut mapped: Vec<(u32, Vec<u32>)> = s
            .tuples
            .iter()
            .map(|(r, t)| (*r, t.iter().map(|&x| map[x as usize]).collect()))
            .collect();
        mapped.sort_unstable();
        mapped.dedup();
        let mut occ: Vec<Vec<usize>> = vec![Vec::new(); s.n_elements];
        for (ti, (_, t)) in mapped.iter().enumerate() {
            for &x in t {
                if let Some(list) = occ.get_mut(x as usize) {
                    if list.last() != Some(&ti) {
                        list.push(ti);
                    }
                }
            }
        }
        let mut applied = false;
        'scan: for (ui, &u) in live.iter().enumerate() {
            for &w in live.iter() {
                if w == u {
                    continue;
                }
                if fold_ok(all_tuples, &mapped, &occ, u, w) {
                    if let Some(r) = rec.as_deref_mut() {
                        r.push(CoreStep::Fold { u, w });
                    }
                    for x in map.iter_mut() {
                        if *x == u {
                            *x = w;
                        }
                    }
                    live.remove(ui);
                    applied = true;
                    break 'scan;
                }
            }
        }
        if !applied {
            return;
        }
    }
}

/// Is `id except u ↦ w` a homomorphism from the current image into `s`?
fn fold_ok(
    all_tuples: &[(u32, Vec<u32>)],
    mapped: &[(u32, Vec<u32>)],
    occ: &[Vec<usize>],
    u: u32,
    w: u32,
) -> bool {
    let Some(touching) = occ.get(u as usize) else {
        return false;
    };
    let mut probe_tuple: Vec<u32> = Vec::new();
    for &ti in touching {
        let Some((rel, t)) = mapped.get(ti) else {
            return false;
        };
        probe_tuple.clear();
        probe_tuple.extend(t.iter().map(|&x| if x == u { w } else { x }));
        if all_tuples
            .binary_search_by(|(r, cand)| r.cmp(rel).then_with(|| cand[..].cmp(&probe_tuple)))
            .is_err()
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph(n: usize, edges: &[(u32, u32)]) -> RelStructure {
        let mut s = RelStructure::new(n);
        for &(u, v) in edges {
            s.add_tuple(0, vec![u, v]);
        }
        s
    }

    fn dicycle(n: u32) -> RelStructure {
        digraph(
            n as usize,
            &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>(),
        )
    }

    fn all_probe(s: &RelStructure) -> Vec<u32> {
        (0..s.n_elements as u32).collect()
    }

    /// The witness map must be an endomorphism mapping kept into kept.
    fn check_witness(s: &RelStructure, r: &Retraction) {
        for (rel, t) in &s.tuples {
            let image: Vec<u32> = t.iter().map(|&x| r.map[x as usize]).collect();
            let found = s
                .tuples
                .iter()
                .any(|(cr, cand)| cr == rel && *cand == image);
            assert!(found, "witness map breaks tuple {t:?} -> {image:?}");
        }
        for v in 0..s.n_elements as u32 {
            assert!(
                r.kept.binary_search(&r.map[v as usize]).is_ok(),
                "map sends {v} outside the kept set"
            );
        }
    }

    #[test]
    fn cycles_are_cores() {
        for n in 2..=7 {
            let s = dicycle(n);
            let r = retract_core(&s, &all_probe(&s));
            assert_eq!(r.kept.len(), n as usize, "C{n} must not shrink");
        }
    }

    #[test]
    fn even_cycle_union_c2_retracts_to_c2() {
        let s = dicycle(8).disjoint_union(&dicycle(2));
        let r = retract_core(&s, &all_probe(&s));
        assert_eq!(r.kept.len(), 2);
        check_witness(&s, &r);
    }

    #[test]
    fn incomparable_cycles_stay() {
        // C3 ⊔ C4: neither maps into the other.
        let s = dicycle(3).disjoint_union(&dicycle(4));
        let r = retract_core(&s, &all_probe(&s));
        assert_eq!(r.kept.len(), 7);
    }

    #[test]
    fn pendant_vertex_folds_without_search() {
        // Path 0→1→2 plus pendant 3→1: vertices 0 and 3 are symmetric
        // in-neighbors of 1, so one folds onto the other. Deterministic
        // scan order (lowest u, lowest w) folds 0 onto 3.
        let s = digraph(4, &[(0, 1), (1, 2), (3, 1)]);
        let mut live: Vec<u32> = vec![0, 1, 2, 3];
        let mut map: Vec<u32> = (0..4).collect();
        let mut all = s.tuples.clone();
        all.sort_unstable();
        let mut steps = Vec::new();
        fold_pass(&s, &all, &mut live, &mut map, Some(&mut steps));
        assert_eq!(live, vec![1, 2, 3]);
        assert_eq!(map[0], 3);
        assert_eq!(steps, vec![ca_cert::CoreStep::Fold { u: 0, w: 3 }]);
    }

    #[test]
    fn certified_retractions_replay_through_checker() {
        // Fold-only shrinkage (pendant vertex), solver-driven shrinkage
        // (C8 ⊔ C2), and a no-shrink core (C3 ⊔ C4) all round-trip.
        let cases = [
            digraph(4, &[(0, 1), (1, 2), (3, 1)]),
            dicycle(8).disjoint_union(&dicycle(2)),
            dicycle(3).disjoint_union(&dicycle(4)),
        ];
        for s in &cases {
            let (r, cert) = retract_core_certified(s, &all_probe(s));
            assert_eq!(r, retract_core(s, &all_probe(s)));
            assert_eq!(ca_cert::check_core(&cert), Ok(()));
            assert_eq!(cert.kept, r.kept);
            assert_eq!(cert.map, r.map);
        }
    }

    #[test]
    fn tampered_core_cert_is_rejected() {
        let s = dicycle(8).disjoint_union(&dicycle(2));
        let (_, cert) = retract_core_certified(&s, &all_probe(&s));
        let mut bad = cert.clone();
        bad.steps.pop();
        assert!(ca_cert::check_core(&bad).is_err(), "truncated chain passed");
        let mut bad = cert;
        if let Some(k) = bad.kept.first_mut() {
            *k = (s.n_elements as u32).saturating_sub(1);
        }
        assert!(ca_cert::check_core(&bad).is_err(), "forged kept set passed");
    }

    #[test]
    fn loop_absorbs_everything() {
        let s = digraph(3, &[(0, 0), (1, 0), (0, 2), (1, 2)]);
        let r = retract_core(&s, &all_probe(&s));
        assert_eq!(r.kept, vec![0]);
    }

    #[test]
    fn probe_subset_only_shrinks_probes() {
        // Two disjoint edges; only the second edge's vertices are probes.
        let s = digraph(4, &[(0, 1), (2, 3)]);
        let r = retract_core(&s, &[2, 3]);
        // {2,3} cannot shrink: avoiding 2 forces both probes onto {3},
        // which breaks the edge (2,3); symmetrically for 3. Non-probe
        // vertices 0 and 1 are never removal candidates.
        assert_eq!(r.kept, vec![2, 3]);
    }

    #[test]
    fn repeated_runs_agree_and_are_witnessed() {
        let (p, _) = dicycle(3).product(&dicycle(4));
        let big = p.disjoint_union(&dicycle(2)).disjoint_union(&dicycle(6));
        let probe = all_probe(&big);
        let base = retract_core(&big, &probe);
        check_witness(&big, &base);
        assert_eq!(base, retract_core(&big, &probe));
    }

    #[test]
    fn empty_and_trivial_structures() {
        let empty = RelStructure::new(0);
        let r = retract_core(&empty, &[]);
        assert!(r.kept.is_empty());
        let single = RelStructure::new(1);
        let r = retract_core(&single, &[0]);
        assert_eq!(r.kept, vec![0]);
    }
}
