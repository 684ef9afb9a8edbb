//! Generalized schemas `S = ⟨Σ, σ, ar⟩`.

use ca_core::symbol::{Interner, Symbol};

/// A generalized schema: a label alphabet `Σ` with arities (data-tuple
/// lengths), and a relational vocabulary `σ` for the structural part.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenSchema {
    labels: Interner,
    label_arities: Vec<usize>,
    relations: Interner,
    relation_arities: Vec<usize>,
}

impl GenSchema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from label and relation declarations.
    pub fn from_parts(labels: &[(&str, usize)], relations: &[(&str, usize)]) -> Self {
        let mut s = GenSchema::new();
        for &(name, ar) in labels {
            s.add_label(name, ar);
        }
        for &(name, ar) in relations {
            s.add_relation(name, ar);
        }
        s
    }

    /// Add a label `a ∈ Σ` with `ar(a)` data attributes.
    pub fn add_label(&mut self, name: &str, arity: usize) -> Symbol {
        if let Some(sym) = self.labels.get(name) {
            assert_eq!(self.label_arities[sym.index()], arity, "label arity clash");
            return sym;
        }
        let sym = self.labels.intern(name);
        self.label_arities.push(arity);
        sym
    }

    /// Add a structural relation to σ.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Symbol {
        if let Some(sym) = self.relations.get(name) {
            assert_eq!(
                self.relation_arities[sym.index()],
                arity,
                "relation arity clash"
            );
            return sym;
        }
        let sym = self.relations.intern(name);
        self.relation_arities.push(arity);
        sym
    }

    /// Look up a label.
    pub fn label(&self, name: &str) -> Option<Symbol> {
        self.labels.get(name)
    }

    /// Look up a structural relation.
    pub fn relation(&self, name: &str) -> Option<Symbol> {
        self.relations.get(name)
    }

    /// Data arity of a label.
    pub fn label_arity(&self, sym: Symbol) -> usize {
        self.label_arities[sym.index()]
    }

    /// Arity of a structural relation.
    pub fn relation_arity(&self, sym: Symbol) -> usize {
        self.relation_arities[sym.index()]
    }

    /// Name of a label.
    ///
    /// Invariant: `sym` is a label symbol of this schema (as for
    /// [`Self::label_arity`]); a foreign symbol is a caller bug.
    pub fn label_name(&self, sym: Symbol) -> &str {
        match self.labels.resolve(sym) {
            Some(name) => name,
            None => unreachable!("label {sym:?} not of this schema"),
        }
    }

    /// Name of a structural relation.
    ///
    /// Invariant: `sym` is a relation symbol of this schema (as for
    /// [`Self::relation_arity`]); a foreign symbol is a caller bug.
    pub fn relation_name(&self, sym: Symbol) -> &str {
        match self.relations.resolve(sym) {
            Some(name) => name,
            None => unreachable!("relation {sym:?} not of this schema"),
        }
    }

    /// Number of labels.
    pub fn n_labels(&self) -> usize {
        self.label_arities.len()
    }

    /// Number of structural relations (σ may be empty — the relational
    /// case).
    pub fn n_relations(&self) -> usize {
        self.relation_arities.len()
    }

    /// All label symbols.
    pub fn label_symbols(&self) -> impl Iterator<Item = Symbol> {
        (0..self.label_arities.len() as u32).map(Symbol)
    }

    /// All relation symbols.
    pub fn relation_symbols(&self) -> impl Iterator<Item = Symbol> {
        (0..self.relation_arities.len() as u32).map(Symbol)
    }

    /// The maximum data arity over all labels.
    pub fn max_label_arity(&self) -> usize {
        self.label_arities.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relational_schemas_have_empty_sigma() {
        let s = GenSchema::from_parts(&[("R", 2), ("S", 3)], &[]);
        assert_eq!(s.n_relations(), 0);
        assert_eq!(s.n_labels(), 2);
        assert_eq!(s.label_arity(s.label("S").unwrap()), 3);
    }

    #[test]
    fn xml_schemas_have_child_relation() {
        let s = GenSchema::from_parts(&[("r", 0), ("a", 2)], &[("child", 2)]);
        assert_eq!(s.n_relations(), 1);
        assert_eq!(s.relation_arity(s.relation("child").unwrap()), 2);
        assert_eq!(s.max_label_arity(), 2);
    }

    #[test]
    #[should_panic(expected = "arity clash")]
    fn label_arity_clash_panics() {
        let mut s = GenSchema::new();
        s.add_label("a", 1);
        s.add_label("a", 2);
    }
}
