//! Greatest lower bounds of naïve tables and databases (Proposition 5).
//!
//! For tuples `t = (a₁…aₘ)` and `t′ = (b₁…bₘ)` the merge `t ⊗ t′` keeps
//! `aᵢ` where `aᵢ = bᵢ` is the same constant and introduces the fresh null
//! `⊥_{aᵢbᵢ}` otherwise. Proposition 5: `{t ⊗ t′ | t ∈ R, t′ ∈ R′}` is a
//! glb of naïve tables `R, R′` in the information preorder — the
//! database-aware analog of the graph product. Extended
//! relation-by-relation to databases, and iterated for finitely many
//! instances, with the `|⋀X| ≤ (‖X‖/n)ⁿ` size bound the paper derives.

use std::collections::BTreeMap;

use ca_core::value::{NullGen, Value};

use crate::database::{Fact, NaiveDatabase};

/// The pair-indexed fresh nulls `⊥_{xy}` of the `⊗` construction: one
/// fresh null per *distinct* pair of merged values, shared across the
/// whole product so repeated pairs merge consistently.
#[derive(Debug, Default)]
pub struct PairNulls {
    map: BTreeMap<(Value, Value), Value>,
    gen: NullGen,
}

impl PairNulls {
    /// A pair-null table drawing fresh nulls from ids unused by either
    /// input database.
    pub fn fresh_for(a: &NaiveDatabase, b: &NaiveDatabase) -> Self {
        Self::avoiding(a.nulls().into_iter().chain(b.nulls()))
    }

    /// A pair-null table drawing fresh nulls avoiding the given ids (for
    /// callers outside the relational model, e.g. generalized databases).
    pub fn avoiding<I: IntoIterator<Item = ca_core::value::Null>>(used: I) -> Self {
        PairNulls {
            map: BTreeMap::new(),
            gen: NullGen::avoiding(used),
        }
    }

    /// `⊥_{xy}`: the null allocated to the pair `(x, y)`.
    pub fn get(&mut self, x: Value, y: Value) -> Value {
        let gen = &mut self.gen;
        *self.map.entry((x, y)).or_insert_with(|| gen.fresh_value())
    }
}

/// The tuple merge `t ⊗ t′` of equation (1) in the paper.
pub fn merge_tuples(t: &[Value], t2: &[Value], nulls: &mut PairNulls) -> Vec<Value> {
    assert_eq!(t.len(), t2.len(), "⊗ needs same-length tuples");
    t.iter()
        .zip(t2.iter())
        .map(|(&a, &b)| match (a, b) {
            (Value::Const(x), Value::Const(y)) if x == y => a,
            _ => nulls.get(a, b),
        })
        .collect()
}

/// The glb `D ∧ D′` of two naïve databases: relation-by-relation products
/// of all tuple pairs under `⊗` (Proposition 5).
///
/// ```
/// use ca_relational::database::build::{c, table};
/// use ca_relational::glb::glb_databases;
/// use ca_relational::ordering::InfoOrder;
/// use ca_core::preorder::Preorder;
///
/// let a = table("R", 2, &[&[c(1), c(2)]]);
/// let b = table("R", 2, &[&[c(1), c(3)]]);
/// let meet = glb_databases(&a, &b);
/// // The certain shared content: R(1, ·) with an unknown second column.
/// assert!(InfoOrder.leq(&meet, &a));
/// assert!(InfoOrder.leq(&meet, &b));
/// let fact = meet.facts().next().unwrap();
/// assert_eq!(fact.args[0], c(1));
/// assert!(fact.args[1].is_null());
/// ```
pub fn glb_databases(a: &NaiveDatabase, b: &NaiveDatabase) -> NaiveDatabase {
    assert!(a.schema.compatible_with(&b.schema), "incompatible schemas");
    let mut nulls = PairNulls::fresh_for(a, b);
    let mut rows = Vec::new();
    for fa in a.facts() {
        for fb in b.relation_by_name(a.schema.name(fa.rel)) {
            rows.push((fa.rel, merge_tuples(fa.args, fb.args, &mut nulls)));
        }
    }
    NaiveDatabase::from_facts(
        a.schema.clone(),
        rows.iter().map(|(rel, args)| Fact { rel: *rel, args }),
    )
}

/// The glb `⋀ X` of finitely many databases, by iterating the binary glb.
/// Returns `None` for an empty collection (no glb of nothing).
pub fn glb_many(xs: &[NaiveDatabase]) -> Option<NaiveDatabase> {
    let (first, rest) = xs.split_first()?;
    Some(
        rest.iter()
            .fold(first.clone(), |acc, x| glb_databases(&acc, x)),
    )
}

/// The paper's size bound: for `n` tables of total size `‖X‖`, the
/// construction yields at most `(‖X‖/n)ⁿ` tuples (arithmetic–geometric
/// mean inequality). Returns the bound as `f64` for comparison in
/// experiments.
pub fn glb_size_bound(total_tuples: usize, n_tables: usize) -> f64 {
    if n_tables == 0 {
        return 0.0;
    }
    (total_tuples as f64 / n_tables as f64).powi(n_tables as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::preorder::{Preorder, PreorderExt};

    use crate::database::build::{c, n, table};
    use crate::ordering::InfoOrder;

    #[test]
    fn merge_keeps_shared_constants() {
        let mut nulls = PairNulls::default();
        let t = merge_tuples(&[c(1), c(2), n(1)], &[c(1), c(3), c(2)], &mut nulls);
        assert_eq!(t[0], c(1));
        assert!(t[1].is_null());
        assert!(t[2].is_null());
        // Same pair ⇒ same null, different pair ⇒ different null.
        let t2 = merge_tuples(&[c(2)], &[c(3)], &mut nulls);
        assert_eq!(t2[0], t[1]);
        let t3 = merge_tuples(&[c(2)], &[c(4)], &mut nulls);
        assert_ne!(t3[0], t[1]);
    }

    #[test]
    fn glb_is_a_lower_bound() {
        let a = table("R", 2, &[&[c(1), c(2)], &[c(3), n(1)]]);
        let b = table("R", 2, &[&[c(1), c(5)], &[n(2), c(2)]]);
        let meet = glb_databases(&a, &b);
        assert!(InfoOrder.leq(&meet, &a));
        assert!(InfoOrder.leq(&meet, &b));
    }

    #[test]
    fn glb_dominates_other_lower_bounds() {
        let a = table("R", 2, &[&[c(1), c(2)]]);
        let b = table("R", 2, &[&[c(1), c(3)]]);
        let meet = glb_databases(&a, &b);
        // Candidate lower bounds.
        let lows = [
            table("R", 2, &[&[c(1), n(7)]]),
            table("R", 2, &[&[n(7), n(8)]]),
            table("R", 2, &[]),
        ];
        for l in &lows {
            assert!(InfoOrder.leq(l, &a) && InfoOrder.leq(l, &b));
            assert!(InfoOrder.leq(l, &meet), "glb must dominate {l:?}");
        }
        // And the glb keeps the shared first column.
        assert!(InfoOrder.equiv(&meet, &table("R", 2, &[&[c(1), n(7)]])));
    }

    #[test]
    fn glb_of_identical_databases_is_equivalent() {
        let a = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)]]);
        let meet = glb_databases(&a, &a);
        assert!(InfoOrder.equiv(&meet, &a));
        // But it is the 4-tuple product, not a itself: size |R|².
        assert_eq!(meet.len(), 4);
    }

    #[test]
    fn glb_of_disjoint_databases_is_all_nulls() {
        let a = table("R", 1, &[&[c(1)]]);
        let b = table("R", 1, &[&[c(2)]]);
        let meet = glb_databases(&a, &b);
        assert_eq!(meet.len(), 1);
        assert!(meet.facts().next().unwrap().args[0].is_null());
        // Equivalent to the single-null table.
        assert!(InfoOrder.equiv(&meet, &table("R", 1, &[&[n(1)]])));
    }

    #[test]
    fn glb_many_and_size_bound() {
        let xs = vec![
            table("R", 1, &[&[c(1)], &[c(2)]]),
            table("R", 1, &[&[c(1)], &[c(3)]]),
            table("R", 1, &[&[c(1)], &[c(4)]]),
        ];
        let meet = glb_many(&xs).unwrap();
        // Product size 2×2×2 = 8 ≤ (6/3)³ = 8 — the bound is tight here.
        assert_eq!(meet.len(), 8);
        assert!(meet.len() as f64 <= glb_size_bound(6, 3));
        // Lower bound of every input.
        for x in &xs {
            assert!(InfoOrder.leq(&meet, x));
        }
        // R(1) survives in all: the glb is equivalent to {R(1), all-null…};
        // in particular R(1) must map into it.
        let r1 = table("R", 1, &[&[c(1)]]);
        assert!(InfoOrder.leq(&r1, &meet));
    }

    #[test]
    fn glb_none_for_empty_family() {
        assert!(glb_many(&[]).is_none());
    }

    #[test]
    fn glb_respects_multiple_relations() {
        let mut schema = crate::schema::Schema::new();
        schema.add_relation("R", 1);
        schema.add_relation("S", 1);
        let mut a = NaiveDatabase::new(schema.clone());
        a.add("R", vec![c(1)]);
        a.add("S", vec![c(2)]);
        let mut b = NaiveDatabase::new(schema.clone());
        b.add("R", vec![c(1)]);
        // b has no S facts: the glb must have none either.
        let meet = glb_databases(&a, &b);
        assert_eq!(meet.len(), 1);
        assert_eq!(meet.facts().next().unwrap().args, vec![c(1)]);
    }

    #[test]
    fn nested_glb_associates_up_to_equivalence() {
        let a = table("R", 1, &[&[c(1)], &[c(2)]]);
        let b = table("R", 1, &[&[c(2)], &[c(3)]]);
        let cdb = table("R", 1, &[&[c(2)], &[c(4)]]);
        let left = glb_databases(&glb_databases(&a, &b), &cdb);
        let right = glb_databases(&a, &glb_databases(&b, &cdb));
        assert!(InfoOrder.equiv(&left, &right));
    }
}
