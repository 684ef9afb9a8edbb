//! Versioned little-endian binary snapshots of a [`FactStore`].
//!
//! Layout (all integers little-endian, every section 8-byte aligned):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CASTORE\0"
//! 8       4     format version (u32, in SNAPSHOT_READ_VERSIONS)
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
//! …       …     (v2 only) statistics, per relation in directory order:
//!                 n_live (u64) · per column: distinct (u32) ·
//!                 reserved (u32, must be 0) · min_const (i64) ·
//!                 max_const (i64)
//! ```
//!
//! The writer emits **version 1**, which ends after the column pages.
//! **Version 2** buffers, written by earlier builds, carry the exact
//! live-contents statistics ([`super::stats::compute_exact`]) after the
//! column pages; everything before that section is byte-identical to
//! version 1. The reader accepts both. Statistics are derived from the
//! columns whenever a planner asks for them, so a v2 section is never
//! trusted or kept: [`FactStore::from_bytes`] *validates* it against
//! [`super::stats::compute_exact`] over the loaded contents and rejects
//! a snapshot whose statistics disagree with its own columns as
//! corrupt. Re-serializing a loaded v2 buffer writes version 1.
//!
//! The layout is zero-copy friendly: [`SnapshotView`] computes section
//! offsets from the header and directory alone (O(relations), not
//! O(facts)) and decodes individual entries on demand with
//! `from_le_bytes` — no unsafe, no upfront materialization, so an
//! `mmap`-ed million-fact snapshot costs only the pages actually
//! touched. [`FactStore::from_bytes`] fully materializes and validates;
//! the per-fact row numbers are *not* serialized (a fact's row is the
//! count of earlier facts in its relation), and neither are the
//! dedup/occurrence maps (rebuilt lazily on first mutation), so
//! re-serializing a loaded snapshot is byte-identical to its source.

use std::fmt;
use std::ops::RangeInclusive;

use crate::symbol::{Interner, Symbol};
use crate::value::Value;

use super::{dense_count, id_is_null, null_index, FactStore, RelTable, ValueInterner};

/// The snapshot format version [`FactStore::to_bytes`] writes: version 1,
/// no statistics section.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Every format version [`FactStore::from_bytes`] reads: the current one
/// and version 2, whose statistics section is validated on load; see the
/// [module docs](self).
pub const SNAPSHOT_READ_VERSIONS: RangeInclusive<u32> = 1..=2;

/// Per-column statistics entry size in the v2 section: distinct (u32) +
/// reserved (u32) + min_const (i64) + max_const (i64).
const COL_STATS_LEN: usize = 24;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CASTORE\0";

const HEADER_LEN: usize = 48;

/// Why a byte buffer is not a loadable snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ends before a field or section it promises.
    Truncated,
    /// The first eight bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is not one this build reads.
    VersionMismatch {
        found: u32,
        accepted: RangeInclusive<u32>,
    },
    /// Structurally well-formed but semantically invalid content.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a fact-store snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, accepted } => write!(
                f,
                "snapshot version {found}, this build reads versions {}..={}",
                accepted.start(),
                accepted.end()
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn rd_u32(buf: &[u8], off: usize) -> Result<u32, SnapshotError> {
    let end = off.checked_add(4).ok_or(SnapshotError::Truncated)?;
    let bytes = buf.get(off..end).ok_or(SnapshotError::Truncated)?;
    let arr: [u8; 4] = bytes.try_into().map_err(|_| SnapshotError::Truncated)?;
    Ok(u32::from_le_bytes(arr))
}

fn rd_u64(buf: &[u8], off: usize) -> Result<u64, SnapshotError> {
    let end = off.checked_add(8).ok_or(SnapshotError::Truncated)?;
    let bytes = buf.get(off..end).ok_or(SnapshotError::Truncated)?;
    let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapshotError::Truncated)?;
    Ok(u64::from_le_bytes(arr))
}

fn rd_i64(buf: &[u8], off: usize) -> Result<i64, SnapshotError> {
    rd_u64(buf, off).map(|v| v as i64)
}

/// Round a byte length up to 8-byte alignment. Saturates near
/// `usize::MAX` so an attacker-sized length cannot wrap to a small pad;
/// the saturated value then fails every bounds check downstream.
const fn pad8(len: usize) -> usize {
    len.saturating_add(7) & !7
}

/// Checked offset advance; overflow means the buffer can't hold it.
fn advance(off: usize, by: usize) -> Result<usize, SnapshotError> {
    off.checked_add(by).ok_or(SnapshotError::Truncated)
}

/// Checked size multiply; overflow means the buffer can't hold it.
fn size_mul(a: usize, b: usize) -> Result<usize, SnapshotError> {
    a.checked_mul(b).ok_or(SnapshotError::Truncated)
}

struct RelDir {
    name_off: usize,
    name_len: usize,
    arity: usize,
    n_rows: u32,
    live_off: usize,
    cols_off: usize,
    /// Offset of this relation's statistics entry (v2 only; 0 in v1
    /// buffers, guarded by [`SnapshotView::has_stats`]).
    stats_off: usize,
}

/// A zero-copy window over a serialized snapshot: parsing reads only the
/// header and relation directory; everything else is decoded on demand.
pub struct SnapshotView<'a> {
    buf: &'a [u8],
    version: u32,
    n_consts: u32,
    n_nulls: u32,
    n_rels: u32,
    n_facts: u32,
    rels: Vec<RelDir>,
    consts_off: usize,
    nulls_off: usize,
    fact_rel_off: usize,
}

impl<'a> SnapshotView<'a> {
    /// Validate the header/directory and compute all section offsets.
    pub fn parse(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        let magic = buf.get(0..8).ok_or(SnapshotError::Truncated)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = rd_u32(buf, 8)?;
        if !SNAPSHOT_READ_VERSIONS.contains(&version) {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                accepted: SNAPSHOT_READ_VERSIONS,
            });
        }
        if rd_u32(buf, 12)? != 0 {
            return Err(SnapshotError::Corrupt("nonzero reserved field"));
        }
        let n_consts = rd_u64(buf, 16)?;
        let n_nulls = rd_u64(buf, 24)?;
        let n_rels = rd_u64(buf, 32)?;
        let n_facts = rd_u64(buf, 40)?;
        // Ids are u32 with a tag bit; fact ids are u32 with u32::MAX
        // reserved as a sentinel.
        if n_consts >= (1 << 31) || n_nulls >= (1 << 31) {
            return Err(SnapshotError::Corrupt("value count out of range"));
        }
        if n_rels > u32::MAX as u64 || n_facts >= u32::MAX as u64 {
            return Err(SnapshotError::Corrupt(
                "relation or fact count out of range",
            ));
        }
        let mut off = HEADER_LEN;
        let mut rels = Vec::with_capacity(n_rels as usize);
        for _ in 0..n_rels {
            let name_len = rd_u32(buf, off)? as usize;
            let arity = rd_u32(buf, advance(off, 4)?)? as usize;
            let n_rows = rd_u64(buf, advance(off, 8)?)?;
            if n_rows > n_facts {
                return Err(SnapshotError::Corrupt("relation rows exceed fact count"));
            }
            let name_off = advance(off, 16)?;
            off = advance(name_off, pad8(name_len))?;
            if off > buf.len() {
                return Err(SnapshotError::Truncated);
            }
            rels.push(RelDir {
                name_off,
                name_len,
                arity,
                // In range: n_rows ≤ n_facts < u32::MAX, checked above.
                n_rows: u32::try_from(n_rows)
                    .map_err(|_| SnapshotError::Corrupt("relation rows out of range"))?,
                live_off: 0,
                cols_off: 0,
                stats_off: 0,
            });
        }
        let consts_off = off;
        off = advance(off, size_mul(n_consts as usize, 8)?)?;
        let nulls_off = off;
        off = advance(off, pad8(size_mul(n_nulls as usize, 4)?))?;
        let fact_rel_off = off;
        off = advance(off, pad8(size_mul(n_facts as usize, 4)?))?;
        for e in &mut rels {
            e.live_off = off;
            off = advance(off, size_mul((e.n_rows as usize).div_ceil(64), 8)?)?;
            e.cols_off = off;
            let page = pad8(size_mul(e.n_rows as usize, 4)?);
            off = advance(off, size_mul(e.arity, page)?)?;
        }
        if version >= 2 {
            // The statistics section: one n_live word plus one fixed-size
            // entry per column. Every field is 8-byte aligned by
            // construction, so no padding.
            for e in &mut rels {
                e.stats_off = off;
                off = advance(off, advance(8, size_mul(e.arity, COL_STATS_LEN)?)?)?;
            }
        }
        if off > buf.len() {
            return Err(SnapshotError::Truncated);
        }
        if off < buf.len() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        // All four counts were range-checked against u32 above; try_from
        // keeps the narrowing honest if those checks ever drift.
        let count =
            |v: u64| u32::try_from(v).map_err(|_| SnapshotError::Corrupt("count out of range"));
        Ok(SnapshotView {
            buf,
            version,
            n_consts: count(n_consts)?,
            n_nulls: count(n_nulls)?,
            n_rels: count(n_rels)?,
            n_facts: count(n_facts)?,
            rels,
            consts_off,
            nulls_off,
            fact_rel_off,
        })
    }

    /// The snapshot's format version (1 or 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Does the snapshot carry a statistics section (v2)?
    pub fn has_stats(&self) -> bool {
        self.version >= 2
    }

    /// The serialized live-row count of relation `r` (v2 statistics
    /// section; error on v1 buffers).
    fn rel_stats_live(&self, r: u32) -> Result<u64, SnapshotError> {
        if !self.has_stats() {
            return Err(SnapshotError::Corrupt("no statistics section (v1)"));
        }
        rd_u64(self.buf, self.rel(r)?.stats_off)
    }

    /// The serialized `(distinct, min_const, max_const)` of column `c`
    /// of relation `r` (v2 statistics section; error on v1 buffers).
    fn col_stats(&self, r: u32, c: usize) -> Result<(u32, i64, i64), SnapshotError> {
        if !self.has_stats() {
            return Err(SnapshotError::Corrupt("no statistics section (v1)"));
        }
        let e = self.rel(r)?;
        if c >= e.arity {
            return Err(SnapshotError::Corrupt("column access out of range"));
        }
        let entry = advance(advance(e.stats_off, 8)?, size_mul(c, COL_STATS_LEN)?)?;
        let distinct = rd_u32(self.buf, entry)?;
        if rd_u32(self.buf, advance(entry, 4)?)? != 0 {
            return Err(SnapshotError::Corrupt("nonzero reserved statistics field"));
        }
        let min = rd_i64(self.buf, advance(entry, 8)?)?;
        let max = rd_i64(self.buf, advance(entry, 16)?)?;
        Ok((distinct, min, max))
    }

    /// Number of interned constants.
    pub fn n_consts(&self) -> u32 {
        self.n_consts
    }

    /// Number of interned nulls.
    pub fn n_nulls(&self) -> u32 {
        self.n_nulls
    }

    /// Number of relations.
    pub fn n_rels(&self) -> u32 {
        self.n_rels
    }

    /// Number of facts (live and dead).
    pub fn n_facts(&self) -> u32 {
        self.n_facts
    }

    /// The constant at dense index `i`.
    pub fn const_at(&self, i: u32) -> Result<i64, SnapshotError> {
        rd_i64(self.buf, advance(self.consts_off, i as usize * 8)?)
    }

    /// The null label at dense index `i`.
    pub fn null_at(&self, i: u32) -> Result<u32, SnapshotError> {
        rd_u32(self.buf, advance(self.nulls_off, i as usize * 4)?)
    }

    fn rel(&self, r: u32) -> Result<&RelDir, SnapshotError> {
        self.rels
            .get(r as usize)
            .ok_or(SnapshotError::Corrupt("relation index out of range"))
    }

    /// The name of relation `r`.
    pub fn rel_name(&self, r: u32) -> Result<&'a str, SnapshotError> {
        let e = self.rel(r)?;
        let end = advance(e.name_off, e.name_len)?;
        let bytes = self
            .buf
            .get(e.name_off..end)
            .ok_or(SnapshotError::Truncated)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Corrupt("relation name not utf-8"))
    }

    /// The arity of relation `r`.
    pub fn rel_arity(&self, r: u32) -> Result<usize, SnapshotError> {
        Ok(self.rel(r)?.arity)
    }

    /// Total rows of relation `r` (live and dead).
    pub fn rel_rows(&self, r: u32) -> Result<u32, SnapshotError> {
        Ok(self.rel(r)?.n_rows)
    }

    /// Live rows of relation `r` (bitmap popcount, tail bits masked).
    pub fn rel_live(&self, r: u32) -> Result<u32, SnapshotError> {
        let e = self.rel(r)?;
        let words = (e.n_rows as usize).div_ceil(64);
        let mut live = 0u32;
        for w in 0..words {
            let mut word = rd_u64(self.buf, advance(e.live_off, w * 8)?)?;
            if w == words - 1 && e.n_rows % 64 != 0 {
                word &= (1u64 << (e.n_rows % 64)) - 1;
            }
            live += word.count_ones();
        }
        Ok(live)
    }

    /// One raw live-bitmap word of relation `r`.
    pub fn live_word(&self, r: u32, w: usize) -> Result<u64, SnapshotError> {
        let e = self.rel(r)?;
        rd_u64(self.buf, advance(e.live_off, size_mul(w, 8)?)?)
    }

    /// The relation index of fact `f`.
    pub fn fact_rel_at(&self, f: u32) -> Result<u32, SnapshotError> {
        rd_u32(self.buf, advance(self.fact_rel_off, f as usize * 4)?)
    }

    /// The value id at column `c`, row `row` of relation `r`.
    pub fn col_id(&self, r: u32, c: usize, row: u32) -> Result<u32, SnapshotError> {
        let e = self.rel(r)?;
        if c >= e.arity || row >= e.n_rows {
            return Err(SnapshotError::Corrupt("column access out of range"));
        }
        let page = pad8(size_mul(e.n_rows as usize, 4)?);
        let in_page = advance(size_mul(c, page)?, size_mul(row as usize, 4)?)?;
        rd_u32(self.buf, advance(e.cols_off, in_page)?)
    }

    /// The raw little-endian byte page of column `c` of relation `r` —
    /// `n_rows × 4` bytes, padding excluded. The bulk-decode path of
    /// [`FactStore::from_bytes`] reads whole pages through this instead
    /// of one [`Self::col_id`] offset computation per row.
    pub fn col_page(&self, r: u32, c: usize) -> Result<&'a [u8], SnapshotError> {
        let e = self.rel(r)?;
        if c >= e.arity {
            return Err(SnapshotError::Corrupt("column access out of range"));
        }
        let data = size_mul(e.n_rows as usize, 4)?;
        let page = pad8(data);
        let start = advance(e.cols_off, size_mul(c, page)?)?;
        let end = advance(start, data)?;
        self.buf.get(start..end).ok_or(SnapshotError::Truncated)
    }

    fn check_pad(&self, start: usize, end: usize) -> Result<(), SnapshotError> {
        let bytes = self.buf.get(start..end).ok_or(SnapshotError::Truncated)?;
        if bytes.iter().any(|&b| b != 0) {
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

    /// Materialize a store from snapshot bytes, validating everything:
    /// header, counts, value-id ranges, fact directory consistency,
    /// bitmap tail bits, and padding. A loaded store re-serializes
    /// byte-identically.
    pub fn from_bytes(buf: &[u8]) -> Result<FactStore, SnapshotError> {
        let view = SnapshotView::parse(buf)?;
        let mut values = ValueInterner::new();
        for i in 0..view.n_consts() {
            let c = view.const_at(i)?;
            if values.lookup(Value::Const(c)).is_some() {
                return Err(SnapshotError::Corrupt("duplicate constant"));
            }
            values.intern(Value::Const(c));
        }
        for i in 0..view.n_nulls() {
            let n = view.null_at(i)?;
            if values.lookup(Value::null(n)).is_some() {
                return Err(SnapshotError::Corrupt("duplicate null"));
            }
            values.intern(Value::null(n));
        }
        let mut rel_names = Interner::new();
        let mut arities = Vec::with_capacity(view.n_rels() as usize);
        for r in 0..view.n_rels() {
            let name = view.rel_name(r)?;
            if rel_names.get(name).is_some() {
                return Err(SnapshotError::Corrupt("duplicate relation name"));
            }
            rel_names.intern(name);
            arities.push(view.rel_arity(r)?);
        }
        // Fact directory: rows are derived (a fact's row is the count of
        // earlier facts in its relation) and must agree with the
        // per-relation row counts.
        let mut fact_rel = Vec::with_capacity(view.n_facts() as usize);
        let mut fact_row = Vec::with_capacity(view.n_facts() as usize);
        let mut rows_seen = vec![0u32; view.n_rels() as usize];
        for f in 0..view.n_facts() {
            let r = view.fact_rel_at(f)?;
            let seen = rows_seen
                .get_mut(r as usize)
                .ok_or(SnapshotError::Corrupt("fact names unknown relation"))?;
            fact_rel.push(Symbol(r));
            fact_row.push(*seen);
            *seen += 1;
        }
        for (r, &seen) in rows_seen.iter().enumerate() {
            if seen != view.rel_rows(dense_count(r))? {
                return Err(SnapshotError::Corrupt(
                    "fact directory disagrees with relation rows",
                ));
            }
        }
        let mut tables = Vec::with_capacity(view.n_rels() as usize);
        for r in 0..view.n_rels() {
            let n_rows = view.rel_rows(r)?;
            let arity = view.rel_arity(r)?;
            let mut cols = Vec::with_capacity(arity);
            for c in 0..arity {
                // Bulk decode: one bounds check for the whole page, then
                // a straight chunked LE decode (the per-row `col_id`
                // offset arithmetic was the snapshot-load hot spot).
                let page = view.col_page(r, c)?;
                let mut col = Vec::with_capacity(n_rows as usize);
                for chunk in page.chunks_exact(4) {
                    let id = u32::from_le_bytes(match chunk.try_into() {
                        Ok(bytes) => bytes,
                        Err(_) => unreachable!("chunks_exact(4) yields 4-byte chunks"),
                    });
                    let ok = if id_is_null(id) {
                        null_index(id) < view.n_nulls()
                    } else {
                        id < view.n_consts()
                    };
                    if !ok {
                        return Err(SnapshotError::Corrupt("column value id out of range"));
                    }
                    col.push(id);
                }
                col_pad_check(&view, r, c, n_rows)?;
                cols.push(col);
            }
            let words = (n_rows as usize).div_ceil(64);
            let mut live = Vec::with_capacity(words);
            let mut n_live = 0u32;
            for w in 0..words {
                let word = view.live_word(r, w)?;
                if w == words - 1 && n_rows % 64 != 0 && word >> (n_rows % 64) != 0 {
                    return Err(SnapshotError::Corrupt("live bitmap tail bits set"));
                }
                n_live += word.count_ones();
                live.push(word);
            }
            tables.push(RelTable::from_parts(arity, n_rows, n_live, cols, live));
        }
        // Padding bytes must be zero so re-serialization is
        // byte-identical.
        for r in 0..view.n_rels() {
            let e = view.rel(r)?;
            view.check_pad(
                advance(e.name_off, e.name_len)?,
                advance(e.name_off, pad8(e.name_len))?,
            )?;
        }
        let nulls_bytes = size_mul(view.n_nulls() as usize, 4)?;
        view.check_pad(
            advance(view.nulls_off, nulls_bytes)?,
            advance(view.nulls_off, pad8(nulls_bytes))?,
        )?;
        let facts_bytes = size_mul(view.n_facts() as usize, 4)?;
        view.check_pad(
            advance(view.fact_rel_off, facts_bytes)?,
            advance(view.fact_rel_off, pad8(facts_bytes))?,
        )?;
        let store =
            FactStore::from_loaded_parts(rel_names, arities, tables, values, fact_rel, fact_row);
        // v2: the serialized statistics are outside input and must agree
        // with an exact recompute from the columns just loaded.
        if view.has_stats() {
            for (r, rs) in super::stats::compute_exact(&store).iter().enumerate() {
                let r32 = dense_count(r);
                if view.rel_stats_live(r32)? != rs.n_live {
                    return Err(SnapshotError::Corrupt("statistics disagree with contents"));
                }
                for (c, cs) in rs.cols.iter().enumerate() {
                    if view.col_stats(r32, c)? != (cs.distinct, cs.min_const, cs.max_const) {
                        return Err(SnapshotError::Corrupt("statistics disagree with contents"));
                    }
                }
            }
        }
        Ok(store)
    }
}

/// Validate the zero padding at the end of one column page.
fn col_pad_check(
    view: &SnapshotView<'_>,
    r: u32,
    c: usize,
    n_rows: u32,
) -> Result<(), SnapshotError> {
    let e = view.rel(r)?;
    let data_bytes = size_mul(n_rows as usize, 4)?;
    let page = pad8(data_bytes);
    let col_off = advance(e.cols_off, size_mul(c, page)?)?;
    let data_end = advance(col_off, data_bytes)?;
    let page_end = advance(col_off, page)?;
    view.check_pad(data_end, page_end)
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
                accepted: SNAPSHOT_READ_VERSIONS
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        let err = FactStore::from_bytes(&bytes).expect_err("trailing bytes must not load");
        assert_eq!(err, SnapshotError::Corrupt("trailing bytes"));
    }

    #[test]
    fn view_is_cheap_and_reads_lazily() {
        let s = sample();
        let bytes = s.to_bytes();
        let view = SnapshotView::parse(&bytes).expect("parse");
        assert_eq!(view.n_facts(), s.n_facts());
        assert_eq!(view.rel_name(0), Ok("Edge"));
        assert_eq!(view.rel_name(1), Ok("Label"));
        assert_eq!(view.rel_arity(1), Ok(3));
        assert_eq!(view.rel_live(0), Ok(s.table(Symbol(0)).n_live()));
        assert_eq!(view.const_at(0), Ok(1));
        assert!(!view.has_stats(), "writer emits v1");
        assert_eq!(view.version(), SNAPSHOT_VERSION);
        assert_eq!(
            view.rel_stats_live(0).expect_err("v1 carries no stats"),
            SnapshotError::Corrupt("no statistics section (v1)")
        );
    }

    /// The version-2 form of `s` that earlier builds wrote: its v1 bytes
    /// with the exact statistics section appended, stamped version 2.
    fn upgrade_to_v2(s: &FactStore) -> Vec<u8> {
        let mut bytes = s.to_bytes();
        for rs in crate::store::stats::compute_exact(s) {
            push_u64(&mut bytes, rs.n_live);
            for cs in &rs.cols {
                push_u32(&mut bytes, cs.distinct);
                push_u32(&mut bytes, 0);
                push_u64(&mut bytes, cs.min_const as u64);
                push_u64(&mut bytes, cs.max_const as u64);
            }
        }
        bytes[8] = 2;
        bytes
    }

    #[test]
    fn v2_stats_section_matches_exact_recompute() {
        let s = sample();
        let bytes = upgrade_to_v2(&s);
        let view = SnapshotView::parse(&bytes).expect("parse");
        let exact = crate::store::stats::compute_exact(&s);
        for (r, rs) in exact.iter().enumerate() {
            let r32 = Symbol(r as u32).0;
            assert_eq!(view.rel_stats_live(r32), Ok(rs.n_live));
            for (c, cs) in rs.cols.iter().enumerate() {
                assert_eq!(
                    view.col_stats(r32, c),
                    Ok((cs.distinct, cs.min_const, cs.max_const))
                );
            }
        }
        assert_eq!(
            view.col_stats(0, 2).expect_err("arity bound"),
            SnapshotError::Corrupt("column access out of range")
        );
    }

    #[test]
    fn v2_snapshot_loads_and_reserializes_as_v1() {
        let s = sample();
        let v2 = upgrade_to_v2(&s);
        let view = SnapshotView::parse(&v2).expect("v2 parses");
        assert_eq!(view.version(), 2);
        assert!(view.has_stats());
        let loaded = FactStore::from_bytes(&v2).expect("v2 loads");
        assert_eq!(loaded.n_live(), s.n_live());
        assert_eq!(
            crate::store::stats::compute_exact(&loaded),
            crate::store::stats::compute_exact(&s)
        );
        // Re-serializing writes the current (v1) format, byte-identical
        // to serializing the original store.
        assert_eq!(loaded.to_bytes(), s.to_bytes());
    }

    #[test]
    fn corrupt_stats_section_is_rejected() {
        let s = sample();
        let bytes = upgrade_to_v2(&s);
        let stats_start = s.to_bytes().len();
        // Flip the first relation's serialized n_live.
        let mut bad = bytes.clone();
        bad[stats_start] ^= 0x01;
        assert_eq!(
            FactStore::from_bytes(&bad).expect_err("stale live count"),
            SnapshotError::Corrupt("statistics disagree with contents")
        );
        // A nonzero reserved field is structural corruption.
        let mut bad = bytes.clone();
        bad[stats_start + 8 + 4] = 1;
        assert_eq!(
            FactStore::from_bytes(&bad).expect_err("reserved field"),
            SnapshotError::Corrupt("nonzero reserved statistics field")
        );
    }
}
