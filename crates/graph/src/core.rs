//! Graph cores.
//!
//! The core of a graph `G` is the smallest subgraph `G₀ ⊆ G` such that
//! `G` has a homomorphism onto `G₀`; it is unique up to isomorphism
//! (Hell–Nešetřil), and two graphs are hom-equivalent iff their cores are
//! isomorphic. Cores canonicalize the equivalence classes of the
//! information preorder: the paper's `G ∧ G′` and `G ∨ G′` are
//! `core(G × G′)` and `core(G ⊔ G′)`.
//!
//! Computing cores is NP-hard; both entry points route through the
//! incremental retraction engine ([`ca_hom::retract`]): the
//! self-homomorphism CSP is compiled once, dominated vertices are folded
//! away by a PTIME prepass, found endomorphisms are greedily composed,
//! and remaining candidates are probed with in-place bitset domain
//! restriction — `O(n)` solver probes per core instead of the `O(n²)`
//! recompiles of the seed implementation (kept in [`crate::reference`]
//! as the differential oracle).

use ca_hom::retract::retract_core;

use crate::digraph::Digraph;

/// Is `g` a core: does every endomorphism use all vertices?
///
/// Equivalent (for finite graphs) to having no homomorphism into a proper
/// induced subgraph: `g` is a core iff the retraction engine keeps every
/// vertex.
pub fn is_core(g: &Digraph) -> bool {
    let probe: Vec<u32> = (0..g.n as u32).collect();
    retract_core(&g.as_structure(), &probe).kept.len() == g.n
}

/// Compute the core of `g` (a specific representative; unique up to
/// isomorphism). Returns the core together with the list of original
/// vertices retained, ascending. The kept vertex set (and hence the
/// returned graph) is deterministic.
pub fn core_of(g: &Digraph) -> (Digraph, Vec<u32>) {
    let probe: Vec<u32> = (0..g.n as u32).collect();
    let r = retract_core(&g.as_structure(), &probe);
    (g.induced(&r.kept), r.kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_cycles_are_cores() {
        for n in 2..=6usize {
            assert!(is_core(&Digraph::cycle(n)), "C{n} is a core");
        }
    }

    #[test]
    fn paths_are_cores() {
        for n in 0..=4usize {
            assert!(is_core(&Digraph::path(n)), "P{n} is a core");
        }
    }

    #[test]
    fn complete_graphs_are_cores() {
        for n in 1..=4usize {
            assert!(is_core(&Digraph::complete(n)));
        }
    }

    #[test]
    fn core_of_two_disjoint_cycles() {
        // C6 ⊔ C3 retracts onto C3 (C6 → C3 exists).
        let g = Digraph::cycle(6).disjoint_union(&Digraph::cycle(3));
        let (core, kept) = core_of(&g);
        assert_eq!(core.n, 3);
        assert!(core.hom_equiv(&Digraph::cycle(3)));
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn core_of_two_incomparable_cycles_is_everything() {
        // C3 ⊔ C4: neither maps to the other, so the union is a core.
        let g = Digraph::cycle(3).disjoint_union(&Digraph::cycle(4));
        assert!(is_core(&g));
        let (core, _) = core_of(&g);
        assert_eq!(core.n, 7);
    }

    #[test]
    fn core_is_hom_equivalent_to_original() {
        let g = Digraph::cycle(8).disjoint_union(&Digraph::cycle(2));
        let (core, _) = core_of(&g);
        assert!(core.hom_equiv(&g));
        assert!(is_core(&core));
        // C8 → C2 so the whole thing retracts to C2.
        assert_eq!(core.n, 2);
    }

    #[test]
    fn core_of_path_with_pendant() {
        // Path 0→1→2 plus an extra edge 3→1: the extra vertex folds onto 0.
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (3, 1)]);
        let (core, _) = core_of(&g);
        assert!(core.hom_equiv(&Digraph::path(2)));
        assert_eq!(core.n, 3);
    }

    #[test]
    fn core_of_graph_with_loop_is_the_loop() {
        // A self-loop absorbs everything reachable: G with a loop vertex
        // adjacent to all has core = single loop vertex.
        let mut g = Digraph::new(3);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        let (core, _) = core_of(&g);
        assert_eq!(core.n, 1);
        assert_eq!(core.edges, vec![(0, 0)]);
    }

    #[test]
    fn hom_equivalent_graphs_have_isomorphic_cores() {
        // C6 ⊔ C2 and C2 are hom-equivalent; both cores are C2 (same size
        // and both cycles — isomorphic).
        let a = Digraph::cycle(6).disjoint_union(&Digraph::cycle(2));
        let b = Digraph::cycle(2);
        assert!(a.hom_equiv(&b));
        let (ca, _) = core_of(&a);
        let (cb, _) = core_of(&b);
        assert_eq!(ca.n, cb.n);
        assert_eq!(ca.edges.len(), cb.edges.len());
        assert!(ca.hom_equiv(&cb));
    }

    #[test]
    fn agrees_with_reference_on_fixed_families() {
        let cases = [
            Digraph::cycle(6).disjoint_union(&Digraph::cycle(3)),
            Digraph::cycle(3).disjoint_union(&Digraph::cycle(4)),
            Digraph::from_edges(4, &[(0, 1), (1, 2), (3, 1)]),
            Digraph::path(4),
        ];
        for g in cases {
            let (new, _) = core_of(&g);
            let (old, _) = crate::reference::core_of(&g);
            assert_eq!(new.n, old.n, "core size diverged on {g:?}");
            assert!(new.hom_equiv(&old));
            assert_eq!(is_core(&g), crate::reference::is_core(&g));
        }
    }
}
