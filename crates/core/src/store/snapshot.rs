//! Versioned little-endian binary snapshots of a [`FactStore`].
//!
//! Layout (all integers little-endian, every section 8-byte aligned):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CASTORE\0"
//! 8       4     format version (u32, SNAPSHOT_VERSION)
//! 12      4     reserved (u32, must be 0)
//! 16      8     n_consts (u64)
//! 24      8     n_nulls  (u64)
//! 32      8     n_rels   (u64)
//! 40      8     n_facts  (u64)
//! 48      …     relation directory, per relation:
//!                 name_len (u32) · arity (u32) · n_rows (u64) ·
//!                 name bytes, zero-padded to 8
//! …       …     constant table: n_consts × i64 (interning order)
//! …       …     null table: n_nulls × u32 labels, zero-padded to 8
//! …       …     fact directory: n_facts × u32 relation index, padded to 8
//! …       …     per relation, in directory order:
//!                 live bitmap: ⌈n_rows/64⌉ × u64
//!                 column pages: arity × (n_rows × u32, zero-padded to 8)
//! ```
//!
//! [`FactStore::from_bytes`] reads the buffer once, front to back,
//! through a bounds-checked cursor, and validates each section as it
//! takes it. No count read from the buffer sizes an allocation or a loop
//! before the bytes it promises have been taken: directory entries are
//! taken one at a time, and the constant, null, fact-directory, bitmap
//! and column sections are each taken as one slice and decoded from it.
//! Arity is the one count the layout cannot bound (a zero-row relation
//! spends no column bytes), so the directory may declare at most
//! [`MAX_COLUMNS`] columns in all. The per-fact row numbers are *not*
//! serialized (a fact's row is the count of earlier facts in its
//! relation), and neither are the dedup/occurrence maps (rebuilt lazily
//! on first mutation), so re-serializing a loaded snapshot is
//! byte-identical to its source.

use std::fmt;

use crate::symbol::{Interner, Symbol};
use crate::value::Value;

use super::{
    dense_count, id_is_null, null_index, FactStore, RelTable, ValueInterner, MAX_COLUMNS, NULL_TAG,
};

/// The snapshot format version [`FactStore::to_bytes`] writes and
/// [`FactStore::from_bytes`] reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CASTORE\0";

/// Why a byte buffer is not a loadable snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ends before a field or section it promises.
    Truncated,
    /// The first eight bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is not the one this build reads.
    VersionMismatch { found: u32, expected: u32 },
    /// Structurally well-formed but semantically invalid content.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a fact-store snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot version {found}, this build reads version {expected}"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A forward reader over snapshot bytes. Every read takes bytes off the
/// front or fails `Truncated`; nothing is read twice.
struct Cursor<'a> {
    rest: &'a [u8],
    /// Bytes taken so far (the offset of `rest` in the buffer).
    taken: usize,
}

impl<'a> Cursor<'a> {
    /// Take the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(SnapshotError::Truncated)?;
        self.rest = rest;
        self.taken += n;
        Ok(head)
    }

    /// Take `count` items of `width` bytes as one slice. A count whose
    /// byte size overflows cannot fit in any buffer: `Truncated`.
    fn take_items(&mut self, count: u64, width: usize) -> Result<&'a [u8], SnapshotError> {
        let bytes = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(width))
            .ok_or(SnapshotError::Truncated)?;
        self.take(bytes)
    }

    /// Take the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.take(N)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)
    }

    /// Take the zero padding up to the next 8-byte boundary.
    fn skip_pad(&mut self) -> Result<(), SnapshotError> {
        let pad = self.taken.wrapping_neg() % 8;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err(SnapshotError::Corrupt("nonzero padding"));
        }
        Ok(())
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

impl FactStore {
    /// Serialize to the versioned snapshot format described in the
    /// [module docs](self::super::snapshot).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        push_u32(&mut out, SNAPSHOT_VERSION);
        push_u32(&mut out, 0);
        push_u64(&mut out, self.values.n_consts() as u64);
        push_u64(&mut out, self.values.n_nulls() as u64);
        push_u64(&mut out, self.arities.len() as u64);
        push_u64(&mut out, self.fact_rel.len() as u64);
        for r in 0..self.arities.len() {
            let sym = Symbol(dense_count(r));
            let name = self.rel_name(sym);
            push_u32(&mut out, dense_count(name.len()));
            push_u32(&mut out, dense_count(self.arities[r]));
            push_u64(&mut out, self.tables[r].n_rows() as u64);
            out.extend_from_slice(name.as_bytes());
            push_pad8(&mut out);
        }
        for i in 0..self.values.n_consts() {
            push_u64(&mut out, self.values.const_at(i) as u64);
        }
        for i in 0..self.values.n_nulls() {
            push_u32(&mut out, self.values.null_at(i));
        }
        push_pad8(&mut out);
        for &rel in &self.fact_rel {
            push_u32(&mut out, rel.0);
        }
        push_pad8(&mut out);
        for t in &self.tables {
            for &word in t.live_words() {
                push_u64(&mut out, word);
            }
            for col in t.cols() {
                for &id in col {
                    push_u32(&mut out, id);
                }
                push_pad8(&mut out);
            }
        }
        out
    }

    /// Materialize a store from snapshot bytes in one forward pass,
    /// validating everything: header, counts, the column budget,
    /// duplicate names and values, fact directory consistency, value-id
    /// ranges, bitmap tail bits, padding and trailing bytes. A loaded
    /// store re-serializes byte-identically.
    pub fn from_bytes(buf: &[u8]) -> Result<FactStore, SnapshotError> {
        let mut cur = Cursor {
            rest: buf,
            taken: 0,
        };
        if cur.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(cur.array()?);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if cur.array()? != [0; 4] {
            return Err(SnapshotError::Corrupt("nonzero reserved field"));
        }
        let n_consts = u64::from_le_bytes(cur.array()?);
        let n_nulls = u64::from_le_bytes(cur.array()?);
        let n_rels = u64::from_le_bytes(cur.array()?);
        let n_facts = u64::from_le_bytes(cur.array()?);
        // Ids are u32 with a tag bit; fact ids are u32 with u32::MAX
        // reserved as a sentinel.
        if n_consts >= u64::from(NULL_TAG) || n_nulls >= u64::from(NULL_TAG) {
            return Err(SnapshotError::Corrupt("value count out of range"));
        }
        if n_rels > u64::from(u32::MAX) || n_facts >= u64::from(u32::MAX) {
            return Err(SnapshotError::Corrupt(
                "relation or fact count out of range",
            ));
        }

        // Relation directory, one 16-byte entry (plus its name) at a time.
        let mut rel_names = Interner::new();
        let (mut arities, mut rel_rows) = (Vec::new(), Vec::new());
        let mut n_cols = 0usize;
        for _ in 0..n_rels {
            let name_len = u32::from_le_bytes(cur.array()?);
            let arity = u32::from_le_bytes(cur.array()?) as usize;
            // In range: n_rows ≤ n_facts < u32::MAX.
            let n_rows = u32::try_from(u64::from_le_bytes(cur.array()?))
                .ok()
                .filter(|&n| u64::from(n) <= n_facts)
                .ok_or(SnapshotError::Corrupt("relation rows exceed fact count"))?;
            n_cols = n_cols.saturating_add(arity);
            if n_cols > MAX_COLUMNS {
                return Err(SnapshotError::Corrupt("more than MAX_COLUMNS columns"));
            }
            let name = std::str::from_utf8(cur.take(name_len as usize)?)
                .map_err(|_| SnapshotError::Corrupt("relation name not utf-8"))?;
            cur.skip_pad()?;
            if rel_names.get(name).is_some() {
                return Err(SnapshotError::Corrupt("duplicate relation name"));
            }
            rel_names.intern(name);
            arities.push(arity);
            rel_rows.push(n_rows);
        }

        // Value tables. A value is a duplicate iff interning it does not
        // hand out the next dense id.
        let mut values = ValueInterner::new();
        let (consts, _) = cur.take_items(n_consts, 8)?.as_chunks::<8>();
        for (i, &c) in consts.iter().enumerate() {
            if values.intern(Value::Const(i64::from_le_bytes(c))) != dense_count(i) {
                return Err(SnapshotError::Corrupt("duplicate constant"));
            }
        }
        let (nulls, _) = cur.take_items(n_nulls, 4)?.as_chunks::<4>();
        for (i, &n) in nulls.iter().enumerate() {
            if values.intern(Value::null(u32::from_le_bytes(n))) != NULL_TAG | dense_count(i) {
                return Err(SnapshotError::Corrupt("duplicate null"));
            }
        }
        cur.skip_pad()?;
        let (n_consts, n_nulls) = (values.n_consts(), values.n_nulls());
        let in_range = |&id: &u32| {
            if id_is_null(id) {
                null_index(id) < n_nulls
            } else {
                id < n_consts
            }
        };

        // Fact directory: rows are derived (a fact's row is the count of
        // earlier facts in its relation) and must agree with the
        // per-relation row counts.
        let (facts, _) = cur.take_items(n_facts, 4)?.as_chunks::<4>();
        cur.skip_pad()?;
        let mut fact_rel = Vec::with_capacity(facts.len());
        let mut fact_row = Vec::with_capacity(facts.len());
        let mut rows_seen = vec![0u32; rel_rows.len()];
        for &r in facts {
            let r = u32::from_le_bytes(r);
            let seen = rows_seen
                .get_mut(r as usize)
                .ok_or(SnapshotError::Corrupt("fact names unknown relation"))?;
            fact_rel.push(Symbol(r));
            fact_row.push(*seen);
            *seen += 1;
        }
        if rows_seen != rel_rows {
            return Err(SnapshotError::Corrupt(
                "fact directory disagrees with relation rows",
            ));
        }

        // Per relation: the live bitmap, then the column pages.
        let mut tables = Vec::with_capacity(arities.len());
        for (&arity, &n_rows) in arities.iter().zip(&rel_rows) {
            let (words, _) = cur
                .take_items(u64::from(n_rows.div_ceil(64)), 8)?
                .as_chunks::<8>();
            let live: Vec<u64> = words.iter().map(|&w| u64::from_le_bytes(w)).collect();
            if let Some(last) = live.last() {
                if n_rows % 64 != 0 && last >> (n_rows % 64) != 0 {
                    return Err(SnapshotError::Corrupt("live bitmap tail bits set"));
                }
            }
            let n_live = live.iter().map(|w| w.count_ones()).sum();
            let mut cols = Vec::with_capacity(arity);
            for _ in 0..arity {
                let (ids, _) = cur.take_items(u64::from(n_rows), 4)?.as_chunks::<4>();
                let col: Vec<u32> = ids.iter().map(|&id| u32::from_le_bytes(id)).collect();
                if !col.iter().all(in_range) {
                    return Err(SnapshotError::Corrupt("column value id out of range"));
                }
                cur.skip_pad()?;
                cols.push(col);
            }
            tables.push(RelTable::from_parts(arity, n_rows, n_live, cols, live));
        }
        if !cur.rest.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(FactStore::from_loaded_parts(
            rel_names, arities, tables, values, fact_rel, fact_row,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Null;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn sample() -> FactStore {
        let mut s = FactStore::new();
        let r = s.add_relation("Edge", 2);
        let t = s.add_relation("Label", 3);
        s.insert(r, &[c(1), n(1)]);
        s.insert(r, &[n(1), c(2)]);
        s.insert(t, &[c(1), c(2), n(2)]);
        for i in 0..70 {
            s.insert(r, &[c(i), c(i + 1)]);
        }
        // A dead row too: collapse ⊥1 onto 2 so one Edge fact dies.
        s.rewrite(&[Null(1)], |v| if v == n(1) { c(2) } else { v });
        s
    }

    #[test]
    fn roundtrip_preserves_everything_and_is_byte_identical() {
        let s = sample();
        let bytes = s.to_bytes();
        let loaded = FactStore::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(loaded.n_facts(), s.n_facts());
        assert_eq!(loaded.n_live(), s.n_live());
        assert_eq!(loaded.n_relations(), s.n_relations());
        assert_eq!(loaded.values().n_consts(), s.values().n_consts());
        assert_eq!(loaded.values().n_nulls(), s.values().n_nulls());
        for f in 0..s.n_facts() {
            assert_eq!(loaded.is_live(f), s.is_live(f));
            assert_eq!(loaded.fact_values(f), s.fact_values(f));
            assert_eq!(loaded.fact_rel(f), s.fact_rel(f));
            assert_eq!(loaded.fact_row(f), s.fact_row(f));
        }
        assert_eq!(
            loaded.to_bytes(),
            bytes,
            "re-serialization must be byte-identical"
        );
    }

    #[test]
    fn empty_store_roundtrips() {
        let s = FactStore::new();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), 48);
        let loaded = FactStore::from_bytes(&bytes).expect("empty roundtrip");
        assert_eq!(loaded.n_facts(), 0);
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn loaded_store_supports_mutation() {
        let s = sample();
        let mut loaded = FactStore::from_bytes(&s.to_bytes()).expect("roundtrip");
        let r = loaded.relation("Edge").expect("Edge survives");
        // Dedup maps rebuild lazily: live duplicates are still rejected
        // (the rewrite turned (⊥1, 2) into the live fact (2, 2)).
        assert_eq!(
            loaded.insert(r, &[c(2), c(2)]),
            None,
            "rewritten fact dedups"
        );
        assert_eq!(
            loaded.insert(r, &[c(1), c(2)]),
            None,
            "original edge dedups"
        );
        assert!(loaded.insert(r, &[c(500), c(501)]).is_some());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        let err = FactStore::from_bytes(&bytes).expect_err("bad magic must not load");
        assert_eq!(err, SnapshotError::BadMagic);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().to_bytes();
        // Every proper prefix must fail Truncated (never panic, never load).
        for cut in [0, 4, 7, 8, 12, 47, 48, 100, bytes.len() - 1] {
            let err = FactStore::from_bytes(&bytes[..cut]).expect_err("prefix must not load");
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        let err = FactStore::from_bytes(&bytes).expect_err("future version must not load");
        assert_eq!(
            err,
            SnapshotError::VersionMismatch {
                found: 99,
                expected: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn version_2_is_refused() {
        // Earlier builds wrote version 2: the v1 layout plus a statistics
        // section. Neither the bare stamp nor the longer buffer loads.
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let v2 = SnapshotError::VersionMismatch {
            found: 2,
            expected: 1,
        };
        assert_eq!(FactStore::from_bytes(&bytes).expect_err("v2"), v2);
        bytes.extend_from_slice(&[0; 32]);
        assert_eq!(FactStore::from_bytes(&bytes).expect_err("v2 + stats"), v2);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        let err = FactStore::from_bytes(&bytes).expect_err("trailing bytes must not load");
        assert_eq!(err, SnapshotError::Corrupt("trailing bytes"));
    }

    #[test]
    fn loaded_store_reports_what_the_header_and_directory_say() {
        let s = sample();
        let loaded = FactStore::from_bytes(&s.to_bytes()).expect("roundtrip");
        assert_eq!(loaded.n_facts(), s.n_facts());
        assert_eq!(loaded.rel_name(Symbol(0)), "Edge");
        assert_eq!(loaded.rel_name(Symbol(1)), "Label");
        assert_eq!(loaded.arity(Symbol(1)), 3);
        assert_eq!(
            loaded.table(Symbol(0)).n_live(),
            s.table(Symbol(0)).n_live()
        );
        assert_eq!(loaded.values().const_at(0), 1);
    }

    /// The empty store's 48-byte header with `n_rels` overwritten.
    fn header_with_rels(n_rels: u64) -> Vec<u8> {
        let mut bytes = FactStore::new().to_bytes();
        bytes[32..40].copy_from_slice(&n_rels.to_le_bytes());
        bytes
    }

    #[test]
    fn lying_counts_fail_before_they_allocate() {
        // u32::MAX relations promised, none present.
        let bytes = header_with_rels(u64::from(u32::MAX));
        assert_eq!(bytes.len(), 48);
        assert_eq!(
            FactStore::from_bytes(&bytes).expect_err("directory missing"),
            SnapshotError::Truncated
        );
        // One unnamed zero-row relation of arity u32::MAX: no byte count
        // bounds it, the column budget does.
        let mut bytes = header_with_rels(1);
        push_u32(&mut bytes, 0);
        push_u32(&mut bytes, u32::MAX);
        push_u64(&mut bytes, 0);
        assert_eq!(bytes.len(), 64);
        assert_eq!(
            FactStore::from_bytes(&bytes).expect_err("arity past the budget"),
            SnapshotError::Corrupt("more than MAX_COLUMNS columns")
        );
    }

    #[test]
    fn column_budget_is_summed_over_the_directory() {
        // Two zero-row relations: at the budget they load canonically,
        // one column more is refused.
        let two = |second: u32| {
            let mut bytes = header_with_rels(2);
            for (name, arity) in [(b"A", 1u32), (b"B", second)] {
                push_u32(&mut bytes, 1);
                push_u32(&mut bytes, arity);
                push_u64(&mut bytes, 0);
                bytes.extend_from_slice(name);
                push_pad8(&mut bytes);
            }
            bytes
        };
        let budget = u32::try_from(MAX_COLUMNS).expect("budget fits u32");
        let at = two(budget - 1);
        let loaded = FactStore::from_bytes(&at).expect("at the budget");
        assert_eq!(loaded.to_bytes(), at);
        assert_eq!(
            FactStore::from_bytes(&two(budget)).expect_err("past the budget"),
            SnapshotError::Corrupt("more than MAX_COLUMNS columns")
        );
    }
}
