//! Relational schemas: relation names with associated arities.

use std::sync::atomic::{AtomicU64, Ordering};

use ca_core::symbol::{Interner, Symbol};

/// A relational schema: a set of relation names with arities.
#[derive(Debug, Default)]
pub struct Schema {
    interner: Interner,
    arities: Vec<usize>,
    /// Name-resolution counter (observability only): bumped by every
    /// [`Self::relation`] call so tests can pin that bulk-ingest paths
    /// intern a name once instead of re-resolving per fact. Ignored by
    /// `Clone`/`PartialEq` — it is not part of the schema's identity.
    lookups: AtomicU64,
}

impl Clone for Schema {
    fn clone(&self) -> Self {
        Schema {
            interner: self.interner.clone(),
            arities: self.arities.clone(),
            lookups: AtomicU64::new(0),
        }
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.interner == other.interner && self.arities == other.arities
    }
}

impl Eq for Schema {}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a schema from `(name, arity)` pairs.
    pub fn from_relations(rels: &[(&str, usize)]) -> Self {
        let mut s = Schema::new();
        for &(name, arity) in rels {
            s.add_relation(name, arity);
        }
        s
    }

    /// Add a relation; returns its symbol. Re-adding with the same arity is
    /// a no-op; re-adding with a different arity panics.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Symbol {
        if let Some(sym) = self.interner.get(name) {
            assert_eq!(
                self.arities[sym.index()],
                arity,
                "relation {name} redeclared with different arity"
            );
            return sym;
        }
        let sym = self.interner.intern(name);
        self.arities.push(arity);
        sym
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<Symbol> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.interner.get(name)
    }

    /// How many by-name lookups this schema has served (see the
    /// `lookups` field). Bulk-ingest paths memoize the resolved symbol,
    /// so this stays O(distinct names), not O(facts).
    pub fn name_lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// The arity of a relation.
    pub fn arity(&self, sym: Symbol) -> usize {
        self.arities[sym.index()]
    }

    /// The name of a relation.
    pub fn name(&self, sym: Symbol) -> &str {
        match self.interner.resolve(sym) {
            Some(name) => name,
            // Symbols are only minted by this schema's interner, and
            // interned names are never removed.
            None => unreachable!("symbol not from this schema"),
        }
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.arities.len()
    }

    /// Whether the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }

    /// Iterate over all relation symbols.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + Clone + '_ {
        (0..self.arities.len() as u32).map(Symbol)
    }

    /// Two schemas are compatible when they agree on names and arities
    /// (needed before comparing databases).
    pub fn compatible_with(&self, other: &Schema) -> bool {
        self.len() == other.len()
            && self.symbols().all(|s| {
                other.relation(self.name(s)).map(|t| other.arity(t)) == Some(self.arity(s))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = Schema::new();
        let r = s.add_relation("R", 3);
        let t = s.add_relation("S", 2);
        assert_ne!(r, t);
        assert_eq!(s.arity(r), 3);
        assert_eq!(s.name(t), "S");
        assert_eq!(s.relation("R"), Some(r));
        assert_eq!(s.relation("T"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn readding_same_arity_is_noop() {
        let mut s = Schema::new();
        let r1 = s.add_relation("R", 2);
        let r2 = s.add_relation("R", 2);
        assert_eq!(r1, r2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn readding_different_arity_panics() {
        let mut s = Schema::new();
        s.add_relation("R", 2);
        s.add_relation("R", 3);
    }

    #[test]
    fn compatibility() {
        let a = Schema::from_relations(&[("R", 2), ("S", 1)]);
        let b = Schema::from_relations(&[("S", 1), ("R", 2)]);
        let c = Schema::from_relations(&[("R", 2), ("S", 2)]);
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
    }
}
