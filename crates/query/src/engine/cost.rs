//! Cardinality-estimating cost model over store statistics.
//!
//! PR 2's greedy join order counts bound positions and nothing else: a
//! 32-row lookup relation and an 8192-row fact relation are
//! indistinguishable, so the greedy order can lead with the big relation
//! and enumerate thousands of rows that a selective atom would have cut
//! to a handful. This module prices join orders with the exact store
//! statistics of `ca_core::store::stats::compute_exact`, computed once
//! per priced store (see `DbIndex::model`):
//!
//! * the **estimated matches** of an atom given a set of already-bound
//!   variables is `rows / Π distinct(p)` over the atom's known positions
//!   (constants and bound variables) — the classic uniform-independence
//!   estimate;
//! * the **cost of an order** accumulates `card × (1 + est)` per step,
//!   where `card` is the estimated intermediate binding count (clamped
//!   at 1 so a selective prefix cannot make later work free);
//! * `CostModel::order` searches all orders by dynamic programming
//!   over atom subsets (System-R style, exact under the model) for
//!   plans up to `DP_MAX_ATOMS` atoms, and declines (`None` — the
//!   caller keeps the greedy order) above that width, so planning stays
//!   O(2ⁿ·n²) only where that is trivially affordable.
//!
//! Everything here is deterministic: the statistics are a pure function
//! of the store's live contents, estimates are pure arithmetic over
//! them, the DP iterates masks and atoms in ascending order with
//! strict-improvement updates, and ties keep the first (lowest-index)
//! candidate. Statistics only choose *which* correct plan runs, never
//! the answers, which stay pinned by the reference oracles.

use ca_core::store::stats::{compute_exact, RelStats};
use ca_core::store::FactStore;
use ca_core::symbol::Symbol;

use crate::ast::{ConjunctiveQuery, Term};

/// Exhaustive-search width limit: the subset DP prices `2ⁿ` masks, so
/// past this many atoms the planner falls back to the greedy order.
pub(crate) const DP_MAX_ATOMS: usize = 11;

/// Plan-switch hysteresis: the DP's order replaces the greedy baseline
/// only when its estimated cost is below this fraction of the greedy
/// order's. Cardinality estimates carry error bars far wider than a few
/// percent, so a sub-margin predicted win is noise — switching on it
/// buys nothing and makes plan choice flap with statistics jitter.
pub(crate) const DP_WIN_MARGIN: f64 = 0.9;

/// Per-relation estimates: live rows and per-column distinct counts,
/// both clamped to ≥ 1 so divisions stay finite and an empty relation
/// still prices as "almost free" rather than zero-cost everywhere.
#[derive(Clone, Debug)]
struct RelEst {
    rows: f64,
    distinct: Vec<f64>,
}

impl RelEst {
    fn unknown(arity: usize) -> RelEst {
        RelEst {
            rows: 1.0,
            distinct: vec![1.0; arity],
        }
    }
}

/// A priced view of one store's relations, indexed by `Symbol::index()`.
/// Build one per [`super::DbIndex`] (lazily, see `DbIndex::model`): it
/// prices the store as it was then, and later mutations do not flow in.
#[derive(Clone, Debug)]
pub struct CostModel {
    rels: Vec<RelEst>,
}

impl CostModel {
    /// Price a store from the exact statistics of its live contents
    /// (one pass over the live rows).
    pub fn from_store(store: &FactStore) -> CostModel {
        Self::from_stats(&compute_exact(store))
    }

    /// Price per-relation statistics, indexed by `Symbol::index()`.
    fn from_stats(stats: &[RelStats]) -> CostModel {
        CostModel {
            rels: stats
                .iter()
                .map(|rs| RelEst {
                    rows: (rs.n_live as f64).max(1.0),
                    // Exact distinct counts never exceed the live rows.
                    distinct: rs
                        .cols
                        .iter()
                        .map(|c| (c.distinct as f64).max(1.0))
                        .collect(),
                })
                .collect(),
        }
    }

    fn rel(&self, rel: Symbol, arity: usize) -> RelEst {
        self.rels
            .get(rel.index())
            .cloned()
            .unwrap_or_else(|| RelEst::unknown(arity))
    }

    /// Estimated matches of atom `i` of `q` when the variables in
    /// `bound` (a bitmask over `var_bit`) are already bound.
    fn est_atom(
        &self,
        q: &ConjunctiveQuery,
        rels: &[Symbol],
        i: usize,
        bound: u64,
        var_bit: impl Fn(u32) -> u32,
    ) -> f64 {
        let atom = &q.atoms[i];
        let est = self.rel(rels[i], atom.args.len());
        let mut sel = est.rows;
        for (pos, term) in atom.args.iter().enumerate() {
            let known = match term {
                Term::Const(_) => true,
                Term::Var(v) => bound & (1u64 << var_bit(*v)) != 0,
            };
            if known {
                sel /= est.distinct.get(pos).copied().unwrap_or(1.0).max(1.0);
            }
        }
        sel
    }

    /// The minimum-cost join order of `q` under this model. `None` when
    /// the query is outside the DP's reach — more than [`DP_MAX_ATOMS`]
    /// atoms or more than 64 distinct variables — or trivially ordered
    /// (fewer than two atoms); callers keep the greedy order then.
    pub(crate) fn order(&self, q: &ConjunctiveQuery, rels: &[Symbol]) -> Option<Vec<usize>> {
        let n = q.atoms.len();
        if !(2..=DP_MAX_ATOMS).contains(&n) {
            return None;
        }
        // Dense variable numbering for the bound-set bitmask.
        let mut vars: Vec<u32> = Vec::new();
        for atom in &q.atoms {
            for v in atom.vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        if vars.len() > 64 {
            return None;
        }
        // ca-lint: allow(L002, reason = "var_bit is only called on variables just collected from these same atoms")
        let var_bit = |v: u32| vars.iter().position(|&w| w == v).expect("collected") as u32;
        let atom_vars: Vec<u64> = q
            .atoms
            .iter()
            .map(|a| a.vars().fold(0u64, |m, v| m | (1u64 << var_bit(v))))
            .collect();

        // best[mask] = (cost, card, last atom) of the cheapest order
        // found covering exactly `mask`; `bound[mask]` its bound vars.
        #[derive(Clone, Copy)]
        struct State {
            cost: f64,
            card: f64,
            last: usize,
        }
        let full: usize = (1usize << n) - 1;
        let mut best: Vec<Option<State>> = vec![None; full + 1];
        for i in 0..n {
            let est = self.est_atom(q, rels, i, 0, var_bit);
            best[1 << i] = Some(State {
                cost: est,
                card: est.max(1.0),
                last: i,
            });
        }
        for mask in 1..=full {
            let Some(state) = best[mask] else { continue };
            let bound = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .fold(0u64, |m, i| m | atom_vars[i]);
            for j in 0..n {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let est = self.est_atom(q, rels, j, bound, var_bit);
                let next = State {
                    cost: state.cost + state.card * (1.0 + est),
                    card: (state.card * est).max(1.0),
                    last: j,
                };
                let slot = &mut best[mask | (1 << j)];
                // Strict improvement keeps the first (lowest-index)
                // candidate on ties: deterministic plan choice.
                if slot.is_none_or(|cur| next.cost < cur.cost) {
                    *slot = Some(next);
                }
            }
        }
        // Reconstruct by peeling the `last` atom off the full mask.
        let mut order = vec![0usize; n];
        let mut mask = full;
        for k in (0..n).rev() {
            // ca-lint: allow(L002, reason = "the DP seeds every single-atom mask and extends monotonically, so the full mask always holds a state")
            let state = best[mask].expect("full mask reachable: queries are finite");
            order[k] = state.last;
            mask &= !(1 << state.last);
        }
        debug_assert_eq!(mask, 0);
        Some(order)
    }

    /// The estimated cost of executing `q`'s atoms in exactly `order` —
    /// the same accumulation the DP minimizes, priced for one explicit
    /// order. Used to compare the DP's pick against the greedy baseline
    /// for the [`DP_WIN_MARGIN`] hysteresis check.
    pub(crate) fn order_cost(&self, q: &ConjunctiveQuery, rels: &[Symbol], order: &[usize]) -> f64 {
        let mut vars: Vec<u32> = Vec::new();
        for atom in &q.atoms {
            for v in atom.vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        if vars.len() > 64 {
            // Outside the DP's reach the caller never compares orders.
            return f64::INFINITY;
        }
        // ca-lint: allow(L002, reason = "var_bit is only called on variables just collected from these same atoms")
        let var_bit = |v: u32| vars.iter().position(|&w| w == v).expect("collected") as u32;
        let mut bound = 0u64;
        let mut cost = 0.0;
        let mut card = 1.0f64;
        for (k, &i) in order.iter().enumerate() {
            let est = self.est_atom(q, rels, i, bound, var_bit);
            if k == 0 {
                cost = est;
            } else {
                cost += card * (1.0 + est);
            }
            card = (card * est).max(1.0);
            for v in q.atoms[i].vars() {
                bound |= 1 << var_bit(v);
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use crate::engine::{CompletionSpace, DbIndex};
    use ca_core::store::stats::ColStats;
    use ca_core::value::Value;
    use ca_relational::store_bridge::{from_store, to_store};
    use Term::{Const as C, Var as V};

    /// Stats for Big(a,b): 8192 rows, both columns 256-distinct; and
    /// Tiny(b): 32 rows, 32-distinct.
    fn model() -> CostModel {
        CostModel::from_stats(&[
            RelStats {
                n_live: 8192,
                cols: vec![
                    ColStats {
                        distinct: 256,
                        min_const: 0,
                        max_const: 255,
                    },
                    ColStats {
                        distinct: 256,
                        min_const: 0,
                        max_const: 255,
                    },
                ],
            },
            RelStats {
                n_live: 32,
                cols: vec![ColStats {
                    distinct: 32,
                    min_const: 0,
                    max_const: 31,
                }],
            },
        ])
    }

    #[test]
    fn selective_relation_leads() {
        // Big(x, y) ∧ Tiny(x): greedy sees equal bound counts and keeps
        // input order (Big first → 8192 enumerations); the cost model
        // leads with Tiny and probes Big 32 times.
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("Big", vec![V(0), V(1)]),
            Atom::new("Tiny", vec![V(0)]),
        ]);
        let rels = [Symbol(0), Symbol(1)];
        let order = model().order(&q, &rels).expect("within DP reach");
        assert_eq!(order, vec![1, 0], "tiny relation first");
    }

    #[test]
    fn wide_queries_decline_to_greedy() {
        let atoms: Vec<Atom> = (0..DP_MAX_ATOMS as u32 + 1)
            .map(|i| Atom::new("Tiny", vec![V(i)]))
            .collect();
        let rels = vec![Symbol(1); atoms.len()];
        let q = ConjunctiveQuery::boolean(atoms);
        assert_eq!(model().order(&q, &rels), None);
        let small = ConjunctiveQuery::boolean(vec![Atom::new("Tiny", vec![V(0)])]);
        assert_eq!(
            model().order(&small, &[Symbol(1)]),
            None,
            "single atom: nothing to order"
        );
    }

    #[test]
    fn constants_make_atoms_cheap() {
        // Big(3, x) ∧ Big(x, y): the constant-keyed atom estimates
        // 8192/256 = 32 matches and must lead.
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("Big", vec![V(0), V(1)]),
            Atom::new("Big", vec![C(3), V(0)]),
        ]);
        let rels = [Symbol(0), Symbol(0)];
        assert_eq!(model().order(&q, &rels).unwrap(), vec![1, 0]);
    }

    #[test]
    fn order_is_deterministic_under_symmetry() {
        // Two indistinguishable atoms: ties keep ascending input order.
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("Tiny", vec![V(0)]),
            Atom::new("Tiny", vec![V(0)]),
        ]);
        let rels = [Symbol(1), Symbol(1)];
        assert_eq!(model().order(&q, &rels).unwrap(), vec![0, 1]);
    }

    /// A(x, y) ∧ B(y) where every live A.y is the constant 5: priced
    /// from the live contents, A leads (|A| + 2·|A| against
    /// 10 + 10·(1 + |A|)). Priced as if A.y were unique, or from distinct
    /// counts that still count the grounded nulls, B would lead.
    #[test]
    fn rewritten_and_grounded_stores_price_their_live_contents() {
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("A", vec![V(0), V(1)]),
            Atom::new("B", vec![V(1)]),
        ]);
        let rels = [Symbol(0), Symbol(1)];
        let base = || {
            let mut s = FactStore::new();
            let a = s.add_relation("A", 2);
            let b = s.add_relation("B", 1);
            s.append(a, &[Value::Const(0), Value::Const(5)]);
            for i in 0..100u32 {
                s.append(a, &[Value::Const(i64::from(i)), Value::null(i)]);
            }
            for i in 0..10 {
                s.append(b, &[Value::Const(i)]);
            }
            s
        };
        let price = |store: &FactStore| {
            let rebuilt = CostModel::from_store(&to_store(&from_store(store)));
            let want = rebuilt.order(&q, &rels);
            assert_eq!(want, Some(vec![0, 1]), "A leads on the rebuilt store");
            assert_eq!(DbIndex::over(store).model().order(&q, &rels), want);
        };
        // egd-style: every null ↦ 5, so (0, ⊥0) (fact 1) collapses onto
        // (0, 5) and every later (i, ⊥i) becomes (i, 5) in place.
        let mut rewritten = base();
        let five = rewritten.lookup_value(Value::Const(5)).expect("5 is held");
        rewritten.set_dead(1);
        for f in 2..=100 {
            rewritten.set_cell(rels[0], 1, rewritten.fact_row(f), five);
        }
        price(&rewritten);
        // The completion grounding every null to 5.
        let db = from_store(&base());
        let pool = [5];
        let mut space = CompletionSpace::new(&db, &pool);
        assert_eq!(space.len(), 1);
        price(space.ground(0));
    }
}
