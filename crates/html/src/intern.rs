//! Per-document tag-name interning.
//!
//! Tag names repeat constantly — a 1990s listing page is thousands of
//! `<b>`/`<br>`/`<hr>` occurrences drawn from a dozen distinct names. The
//! tokenizer therefore interns every tag name into a per-document
//! [`SymbolTable`] and tokens carry a dense [`Sym`] id instead of an owned
//! `String`: comparisons and hashing become integer operations, and the
//! tag-tree's per-child counting becomes an array bump indexed by `Sym`.

use std::collections::HashMap;

/// An interned tag name: a dense index into the document's [`SymbolTable`].
///
/// `Sym`s are only meaningful relative to the table that minted them;
/// resolving a `Sym` against a different document's table yields an
/// arbitrary (or empty) name, never a panic. `Sym::default()` is the first
/// id a table mints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Index into the owning table's dense name storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A per-document interner mapping tag names to dense [`Sym`] ids.
///
/// The number of distinct names is bounded by the input size (which the
/// `TokenBudget` caps upstream), so the table stays small: interning an
/// already-seen name is one hash lookup with no allocation.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<Box<str>>,
    map: HashMap<Box<str>, Sym>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `name`, returning its existing id or minting the next one.
    ///
    /// Total: if the table ever reached `u32::MAX` distinct names (it
    /// cannot — names are at least one byte, so the input budget trips
    /// first) further names all alias the sentinel id rather than panic.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let id = u32::try_from(self.names.len()).unwrap_or(u32::MAX);
        let sym = Sym(id);
        if id < u32::MAX {
            self.names.push(name.into());
            self.map.insert(name.into(), sym);
        }
        sym
    }

    /// Looks up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }

    /// The name behind `sym`; `""` for a `Sym` minted by another table
    /// whose id is out of range here.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.names.get(sym.index()).map_or("", |n| n)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("td");
        let b = t.intern("hr");
        let a2 = t.intern("td");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut t = SymbolTable::new();
        let s = t.intern("table");
        assert_eq!(t.resolve(s), "table");
        assert_eq!(t.lookup("table"), Some(s));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn foreign_sym_resolves_to_empty() {
        let mut minting = SymbolTable::new();
        minting.intern("a");
        let foreign = minting.intern("b");
        let other = SymbolTable::new();
        assert_eq!(other.resolve(foreign), "");
    }

    #[test]
    fn case_matters_to_the_table() {
        // The tokenizer lowercases HTML names *before* interning; the table
        // itself is case-sensitive so XML mode works unchanged.
        let mut t = SymbolTable::new();
        assert_ne!(t.intern("TD"), t.intern("td"));
    }
}
