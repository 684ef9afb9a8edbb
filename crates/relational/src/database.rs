//! Naïve databases, Codd databases, valuations and completions.
//!
//! An incomplete relational instance associates with each `k`-ary relation
//! symbol a finite set of `k`-tuples over `C ∪ N`. If nulls may repeat it
//! is a *naïve* database; if each null occurs at most once, a *Codd*
//! database. The semantics `[[D]]` is the set of complete databases `R`
//! such that some homomorphism `h : D → R` exists.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ca_core::symbol::Symbol;
use ca_core::value::{Null, NullGen, Value};

use crate::schema::Schema;

/// A fact: relation symbol plus argument tuple, borrowed from the row
/// buffer of the database (or the caller) that holds it. Facts order by
/// relation, then lexicographically by tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact<'a> {
    /// The relation this fact belongs to.
    pub rel: Symbol,
    /// The argument tuple (length = arity of `rel`).
    pub args: &'a [Value],
}

/// A valuation of nulls: the map `h : N(D) → C ∪ N` underlying database
/// homomorphisms; extended to be the identity on constants.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Valuation {
    map: BTreeMap<Null, Value>,
}

impl Valuation {
    /// The empty valuation (identity on everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from pairs.
    pub fn from_pairs<I: IntoIterator<Item = (Null, Value)>>(pairs: I) -> Self {
        Valuation {
            map: pairs.into_iter().collect(),
        }
    }

    /// Bind a null.
    pub fn bind(&mut self, n: Null, v: Value) {
        self.map.insert(n, v);
    }

    /// Apply to a value (identity on constants and unbound nulls).
    pub fn apply(&self, v: Value) -> Value {
        match v {
            Value::Const(_) => v,
            Value::Null(n) => self.map.get(&n).copied().unwrap_or(v),
        }
    }

    /// Apply to a tuple.
    pub fn apply_tuple(&self, t: &[Value]) -> Vec<Value> {
        t.iter().map(|&v| self.apply(v)).collect()
    }

    /// The binding of a null, if any.
    pub fn get(&self, n: Null) -> Option<Value> {
        self.map.get(&n).copied()
    }

    /// Iterate over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Null, Value)> + '_ {
        self.map.iter().map(|(&n, &v)| (n, v))
    }

    /// Does every binding map to a constant?
    pub fn is_grounding(&self) -> bool {
        self.map.values().all(|v| v.is_const())
    }
}

/// The rows of one relation: `len` tuples of the relation's arity, back
/// to back in one buffer, sorted and deduplicated. `len` is kept apart
/// because the row of a 0-ary relation takes no values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Table {
    len: usize,
    values: Vec<Value>,
}

/// The table of a relation that has none yet.
static EMPTY: Table = Table {
    len: 0,
    values: Vec::new(),
};

impl Table {
    /// Row `i` of a table of the given arity.
    fn row(&self, arity: usize, i: usize) -> &[Value] {
        &self.values[i * arity..(i + 1) * arity]
    }

    /// Where `args` is, or would be inserted, among the sorted rows.
    fn search(&self, arity: usize, args: &[Value]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(arity, mid).cmp(args) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(mid),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Sort and deduplicate rows appended in any order. Rows already
    /// strictly in order cost one adjacent-compare pass; others are
    /// sorted and deduplicated through a row-index permutation, then
    /// gathered into a new buffer.
    fn normalize(&mut self, arity: usize) {
        if (1..self.len).all(|i| self.row(arity, i - 1) < self.row(arity, i)) {
            return;
        }
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&i, &j| self.row(arity, i).cmp(self.row(arity, j)));
        order.dedup_by(|i, j| self.row(arity, *i) == self.row(arity, *j));
        let mut values = Vec::with_capacity(order.len() * arity);
        for &i in &order {
            values.extend_from_slice(self.row(arity, i));
        }
        self.len = order.len();
        self.values = values;
    }
}

/// The facts of one relation, in order: see [`NaiveDatabase::relation`].
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    rel: Symbol,
    arity: usize,
    left: usize,
    values: &'a [Value],
}

impl<'a> Rows<'a> {
    /// The values of the rows not yet yielded, back to back.
    pub fn values(&self) -> &'a [Value] {
        self.values
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = Fact<'a>;

    #[inline]
    fn next(&mut self) -> Option<Fact<'a>> {
        self.left = self.left.checked_sub(1)?;
        let (args, rest) = self.values.split_at(self.arity);
        self.values = rest;
        Some(Fact {
            rel: self.rel,
            args,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl Default for Rows<'_> {
    /// No rows.
    fn default() -> Self {
        Rows {
            rel: Symbol(0),
            arity: 0,
            left: 0,
            values: &[],
        }
    }
}

/// An incomplete relational database (a *naïve database*): a set of facts
/// over `C ∪ N` conforming to a schema. Each relation's facts live in one
/// flat row buffer, so a fact costs no allocation of its own.
#[derive(Clone)]
pub struct NaiveDatabase {
    /// The schema facts must conform to.
    pub schema: Schema,
    /// Per relation symbol, its rows (set semantics). A relation the
    /// schema gained after construction has no table until its first
    /// fact; readers see [`EMPTY`].
    tables: Vec<Table>,
    /// The last name→symbol resolution served by [`Self::add`]: bulk
    /// ingest repeats the same relation name, so memoizing one pair
    /// makes the by-name path O(distinct names) lookups instead of
    /// O(facts). Not part of the database's identity (ignored by `==`).
    add_memo: Option<(String, Symbol)>,
}

impl PartialEq for NaiveDatabase {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self
                .schema
                .symbols()
                .all(|r| self.table(r) == other.table(r))
    }
}

impl Eq for NaiveDatabase {}

impl fmt::Debug for NaiveDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NaiveDatabase")
            .field("schema", &self.schema)
            .field("facts", &self.facts().collect::<Vec<_>>())
            .finish()
    }
}

impl NaiveDatabase {
    /// An empty database over a schema.
    pub fn new(schema: Schema) -> Self {
        NaiveDatabase {
            tables: vec![Table::default(); schema.len()],
            schema,
            add_memo: None,
        }
    }

    /// Build a database from a bulk fact list: each fact's arity is
    /// checked as in [`Self::add_fact`], and its tuple is copied to the
    /// end of its relation's buffer, reserved to size by a first counting
    /// pass. Each relation is then sorted and deduplicated once. Folding
    /// `add_fact` over `n` facts shifts the sorted tail on every insert
    /// (quadratic); this is `O(n log n)`, and one adjacent-compare pass
    /// per relation on input already in [`Fact`] order (the chase hands
    /// its instance over in that order). Panics if a relation is unknown
    /// or an arity is wrong.
    pub fn from_facts<'a, I>(schema: Schema, facts: I) -> Self
    where
        I: IntoIterator<Item = Fact<'a>>,
        I::IntoIter: Clone,
    {
        let facts = facts.into_iter();
        let mut tables = vec![Table::default(); schema.len()];
        for f in facts.clone() {
            check_arity(&schema, f.rel, f.args);
            tables[f.rel.index()].len += 1;
        }
        for (r, t) in schema.symbols().zip(&mut tables) {
            t.values.reserve_exact(t.len * schema.arity(r));
        }
        for f in facts {
            tables[f.rel.index()].values.extend_from_slice(f.args);
        }
        Self::from_tables(schema, tables)
    }

    /// A database over `schema` whose tables hold rows in any order.
    fn from_tables(schema: Schema, mut tables: Vec<Table>) -> Self {
        for (r, t) in schema.symbols().zip(&mut tables) {
            t.normalize(schema.arity(r));
        }
        NaiveDatabase {
            schema,
            tables,
            add_memo: None,
        }
    }

    /// The table of `rel`, or [`EMPTY`] if it has none.
    fn table(&self, rel: Symbol) -> &Table {
        self.tables.get(rel.index()).unwrap_or(&EMPTY)
    }

    /// Add a fact. Panics if the relation is unknown or the arity is wrong.
    pub fn add_fact(&mut self, rel: Symbol, args: &[Value]) {
        check_arity(&self.schema, rel, args);
        if self.tables.len() <= rel.index() {
            self.tables.resize_with(rel.index() + 1, Table::default);
        }
        let t = &mut self.tables[rel.index()];
        if let Err(pos) = t.search(args.len(), args) {
            let at = pos * args.len();
            t.values.splice(at..at, args.iter().copied());
            t.len += 1;
        }
    }

    /// Convenience: add a fact by relation name. Consecutive adds with
    /// the same name reuse the memoized symbol instead of re-resolving.
    pub fn add(&mut self, rel_name: &str, args: Vec<Value>) {
        let rel = match &self.add_memo {
            Some((name, sym)) if name == rel_name => *sym,
            _ => {
                let sym = self
                    .schema
                    .relation(rel_name)
                    .unwrap_or_else(|| panic!("unknown relation {rel_name}"));
                self.add_memo = Some((rel_name.to_string(), sym));
                sym
            }
        };
        self.add_fact(rel, &args);
    }

    /// All facts, sorted: relations in symbol order, each relation's rows
    /// in order.
    #[inline]
    pub fn facts(&self) -> impl Iterator<Item = Fact<'_>> + Clone {
        self.schema.symbols().flat_map(|r| self.relation(r))
    }

    /// Facts of one relation, sorted.
    #[inline]
    pub fn relation(&self, rel: Symbol) -> Rows<'_> {
        let t = self.table(rel);
        Rows {
            rel,
            arity: if t.len == 0 {
                0
            } else {
                self.schema.arity(rel)
            },
            left: t.len,
            values: &t.values,
        }
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.tables.iter().map(|t| t.len).sum()
    }

    /// Whether the database has no facts.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(|t| t.len == 0)
    }

    /// Every value of every fact, in fact order.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.tables.iter().flat_map(|t| t.values.iter().copied())
    }

    /// `N(D)`: the set of nulls occurring in the database.
    pub fn nulls(&self) -> BTreeSet<Null> {
        self.values().filter_map(|v| v.as_null()).collect()
    }

    /// `C(D)`: the set of constants occurring in the database.
    pub fn constants(&self) -> BTreeSet<i64> {
        self.values().filter_map(|v| v.as_const()).collect()
    }

    /// Is the database *complete* (null-free)?
    pub fn is_complete(&self) -> bool {
        self.values().all(|v| v.is_const())
    }

    /// Is this a *Codd* database: does each null occur at most once?
    pub fn is_codd(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.values()
            .filter_map(|v| v.as_null())
            .all(|n| seen.insert(n))
    }

    /// Map every value of every fact through `f`, visiting them in fact
    /// order, and return the resulting database (facts may merge).
    pub fn map_values(&self, mut f: impl FnMut(Value) -> Value) -> NaiveDatabase {
        let tables = self
            .tables
            .iter()
            .map(|t| Table {
                len: t.len,
                values: t.values.iter().map(|&v| f(v)).collect(),
            })
            .collect();
        NaiveDatabase::from_tables(self.schema.clone(), tables)
    }

    /// Apply a valuation, producing a new database (facts may merge).
    pub fn apply(&self, h: &Valuation) -> NaiveDatabase {
        self.map_values(|v| h.apply(v))
    }

    /// `π_cpl(D)`: drop every fact containing a null — the greatest
    /// complete object below `D` (Section 3's retraction, instantiated).
    pub fn complete_part(&self) -> NaiveDatabase {
        NaiveDatabase::from_facts(
            self.schema.clone(),
            self.facts().filter(|f| f.args.iter().all(|v| v.is_const())),
        )
    }

    /// A *fresh-constant completion*: map each null to a distinct constant
    /// not occurring in the database (nor in `avoid`). This is the
    /// canonical element of `[[D]]` used repeatedly in the paper's proofs.
    pub fn freeze(&self, avoid: &BTreeSet<i64>) -> (NaiveDatabase, Valuation) {
        let used: BTreeSet<i64> = self.constants().union(avoid).copied().collect();
        let start = used.iter().max().map_or(0, |m| m + 1);
        let mut h = Valuation::new();
        for (offset, n) in self.nulls().into_iter().enumerate() {
            h.bind(n, Value::Const(start + offset as i64));
        }
        (self.apply(&h), h)
    }

    /// Enumerate **all** groundings of the nulls into the given constant
    /// pool, returning each completed database. Exponential
    /// (`|pool|^#nulls`); intended for brute-force certain-answer checks on
    /// small instances.
    pub fn completions_over(&self, pool: &[i64]) -> Vec<NaiveDatabase> {
        let nulls: Vec<Null> = self.nulls().into_iter().collect();
        let k = nulls.len();
        let mut out = Vec::new();
        let mut idx = vec![0usize; k];
        loop {
            let h = Valuation::from_pairs(
                nulls
                    .iter()
                    .zip(idx.iter())
                    .map(|(&n, &i)| (n, Value::Const(pool[i]))),
            );
            out.push(self.apply(&h));
            // Odometer increment.
            let mut pos = 0;
            loop {
                if pos == k {
                    return out;
                }
                idx[pos] += 1;
                if idx[pos] < pool.len() {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Rename all nulls to fresh ones from `gen`, returning the renamed
    /// database (hom-equivalent to the original). Needed when combining
    /// databases whose nulls must not clash (e.g. disjoint unions).
    pub fn rename_nulls(&self, gen: &mut NullGen) -> NaiveDatabase {
        let mut h = Valuation::new();
        for n in self.nulls() {
            h.bind(n, Value::Null(gen.fresh()));
        }
        self.apply(&h)
    }

    /// The union of two databases over compatible schemas (facts merged;
    /// nulls are **not** renamed — callers wanting disjointness should
    /// rename first).
    pub fn union(&self, other: &NaiveDatabase) -> NaiveDatabase {
        assert!(self.schema.compatible_with(&other.schema));
        let to_self: Vec<Symbol> = other
            .schema
            .symbols()
            .map(|r| {
                self.schema
                    .relation(other.schema.name(r))
                    .expect("compatible schema")
            })
            .collect();
        let theirs = other.facts().map(|f| Fact {
            rel: to_self[f.rel.index()],
            args: f.args,
        });
        NaiveDatabase::from_facts(self.schema.clone(), self.facts().chain(theirs))
    }

    /// Does the database contain the given fact?
    pub fn contains(&self, rel: Symbol, args: &[Value]) -> bool {
        let t = self.table(rel);
        t.len > 0 && t.search(self.schema.arity(rel), args).is_ok()
    }
}

/// The arity check shared by [`NaiveDatabase::add_fact`] and
/// [`NaiveDatabase::from_facts`].
fn check_arity(schema: &Schema, rel: Symbol, args: &[Value]) {
    assert_eq!(
        args.len(),
        schema.arity(rel),
        "arity mismatch for {}",
        schema.name(rel)
    );
}

/// Convenience macro-free builders used pervasively in tests and examples.
pub mod build {
    use super::*;

    /// Shorthand: constant value.
    pub fn c(x: i64) -> Value {
        Value::Const(x)
    }

    /// Shorthand: null value.
    pub fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// A single-relation database `R/arity` with the given rows.
    pub fn table(name: &str, arity: usize, rows: &[&[Value]]) -> NaiveDatabase {
        let schema = Schema::from_relations(&[(name, arity)]);
        let mut db = NaiveDatabase::new(schema);
        for row in rows {
            db.add(name, row.to_vec());
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::build::{c, n, table};
    use super::*;

    /// The example naïve table from Section 2.1 of the paper.
    fn paper_table() -> NaiveDatabase {
        table(
            "D",
            3,
            &[
                &[c(1), c(2), n(1)],
                &[n(2), n(1), c(3)],
                &[n(3), c(5), c(1)],
            ],
        )
    }

    #[test]
    fn facts_are_set_semantics() {
        let mut db = table("R", 1, &[&[c(1)]]);
        db.add("R", vec![c(1)]);
        assert_eq!(db.len(), 1);
    }

    /// Bulk-adding 10⁵ facts by name resolves the relation name exactly
    /// once: `add` memoizes the `(name, symbol)` pair, so the by-name
    /// path costs O(distinct names) schema lookups, not O(facts).
    #[test]
    fn bulk_add_does_not_rerun_name_resolution() {
        let schema = Schema::from_relations(&[("R", 1), ("S", 1)]);
        let mut db = NaiveDatabase::new(schema);
        for i in 0..100_000 {
            db.add("R", vec![c(i)]);
        }
        assert_eq!(db.len(), 100_000);
        assert_eq!(db.schema.name_lookups(), 1, "one lookup for 10⁵ adds");
        // Switching names re-resolves once each; switching back again
        // re-resolves (the memo is one entry deep, by design).
        db.add("S", vec![c(0)]);
        db.add("R", vec![c(-1)]);
        assert_eq!(db.schema.name_lookups(), 3);
    }

    #[test]
    #[should_panic(expected = "arity mismatch for R")]
    fn from_facts_rejects_arity_mismatch() {
        let schema = Schema::from_relations(&[("R", 2)]);
        let rel = schema.relation("R").unwrap();
        let facts = [
            Fact {
                rel,
                args: &[c(1), c(2)],
            },
            Fact { rel, args: &[c(1)] },
        ];
        NaiveDatabase::from_facts(schema, facts);
    }

    #[test]
    #[should_panic(expected = "arity mismatch for R")]
    fn add_fact_rejects_arity_mismatch() {
        let mut db = table("R", 2, &[]);
        let rel = db.schema.relation("R").unwrap();
        db.add_fact(rel, &[c(1), c(2), c(3)]);
    }

    #[test]
    fn nulls_and_constants() {
        let db = paper_table();
        let nulls: Vec<u32> = db.nulls().into_iter().map(|x| x.0).collect();
        assert_eq!(nulls, vec![1, 2, 3]);
        let consts: Vec<i64> = db.constants().into_iter().collect();
        assert_eq!(consts, vec![1, 2, 3, 5]);
        assert!(!db.is_complete());
        assert!(!db.is_codd()); // ⊥1 occurs twice
    }

    #[test]
    fn codd_detection() {
        let codd = table("R", 2, &[&[c(1), n(1)], &[n(2), c(2)]]);
        assert!(codd.is_codd());
        let naive = table("R", 2, &[&[c(1), n(1)], &[n(1), c(2)]]);
        assert!(!naive.is_codd());
    }

    #[test]
    fn paper_example_homomorphic_image() {
        // h(⊥1)=4, h(⊥2)=3, h(⊥3)=5 sends the paper's D into its R.
        let d = paper_table();
        let h = Valuation::from_pairs([(Null(1), c(4)), (Null(2), c(3)), (Null(3), c(5))]);
        let image = d.apply(&h);
        let r = table(
            "D",
            3,
            &[
                &[c(1), c(2), c(4)],
                &[c(3), c(4), c(3)],
                &[c(5), c(5), c(1)],
                &[c(3), c(7), c(8)],
            ],
        );
        // Every fact of the image is in R (it's a sub-instance).
        for f in image.facts() {
            assert!(r.contains(r.schema.relation("D").unwrap(), f.args));
        }
    }

    #[test]
    fn complete_part_drops_null_rows() {
        let db = paper_table();
        let cp = db.complete_part();
        assert!(cp.is_empty()); // all three rows have nulls
        let mut db2 = db.clone();
        db2.add("D", vec![c(9), c(9), c(9)]);
        assert_eq!(db2.complete_part().len(), 1);
    }

    #[test]
    fn freeze_produces_complete_instance() {
        let db = paper_table();
        let (frozen, h) = db.freeze(&BTreeSet::new());
        assert!(frozen.is_complete());
        assert!(h.is_grounding());
        // Distinct nulls got distinct fresh constants.
        let vals: BTreeSet<Value> = db
            .nulls()
            .iter()
            .map(|&n| h.apply(Value::Null(n)))
            .collect();
        assert_eq!(vals.len(), 3);
        // Fresh constants avoid existing ones.
        for v in vals {
            assert!(!db.constants().contains(&v.as_const().unwrap()));
        }
    }

    #[test]
    fn completions_enumerate_the_pool() {
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), c(0)]]);
        let comps = db.completions_over(&[0, 1]);
        assert_eq!(comps.len(), 4); // 2 nulls × pool of 2
        for comp in &comps {
            assert!(comp.is_complete());
        }
    }

    #[test]
    fn completion_can_merge_facts() {
        // R(⊥1), R(⊥2) grounded to the same constant merges into one fact.
        let db = table("R", 1, &[&[n(1)], &[n(2)]]);
        let comps = db.completions_over(&[7]);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 1);
    }

    #[test]
    fn rename_preserves_shape() {
        let db = paper_table();
        let mut gen = NullGen::starting_at(100);
        let renamed = db.rename_nulls(&mut gen);
        assert_eq!(renamed.len(), db.len());
        assert!(renamed.nulls().iter().all(|n| n.0 >= 100));
    }

    #[test]
    fn union_merges_facts() {
        let a = table("R", 1, &[&[c(1)]]);
        let b = table("R", 1, &[&[c(2)]]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn valuation_identity_on_constants_and_unbound() {
        let h = Valuation::from_pairs([(Null(1), c(5))]);
        assert_eq!(h.apply(c(3)), c(3));
        assert_eq!(h.apply(n(1)), c(5));
        assert_eq!(h.apply(n(2)), n(2));
    }
}
