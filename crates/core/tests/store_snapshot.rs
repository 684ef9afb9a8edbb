//! Property tests for the fact-store snapshot format.
//!
//! The unit tests in `store::snapshot` pin the format on hand-built
//! samples; this suite generates *random* stores — random schemas,
//! fact mixes, interning orders, and dead rows produced by egd-style
//! rewrites — and checks the contracts the format promises:
//!
//! 1. round-trip: `to_bytes` → `from_bytes` reproduces the store
//!    exactly, and re-serializing the loaded store is byte-identical;
//! 2. truncation: every strict prefix of a valid snapshot is rejected;
//! 3. header corruption / version skew: a damaged header never loads;
//! 4. adversarial bytes: a changed byte or a lying count either fails
//!    with a typed error or loads a store that re-serializes to exactly
//!    the changed bytes — never a panic, never an allocation sized by an
//!    unchecked count. CI runs this suite under a 4 GiB address-space cap
//!    so such an allocation fails fast.

use proptest::prelude::*;

use ca_core::store::{FactStore, SnapshotError, ValueId, SNAPSHOT_VERSION};
use ca_core::symbol::Symbol;
use ca_core::value::Value;

/// Deterministic store generator: `seed` fully determines the result.
/// Mixes 1–3 relations of arity 1–3, constants from a small domain
/// (forcing interner sharing), nulls, skipped and appended duplicates,
/// and — on odd seeds — a rewrite that merges a null into a constant so
/// some rows die and the snapshot carries a non-trivial live bitmap.
fn random_store(seed: u64) -> FactStore {
    let mut state = seed | 1;
    let mut next = move |bound: u64| {
        // SplitMix64 step — fixed, platform-independent.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };

    let mut s = FactStore::new();
    let n_rels = 1 + next(3) as usize;
    let rels: Vec<_> = (0..n_rels)
        .map(|r| {
            let arity = 1 + next(3) as usize;
            (s.add_relation(&format!("R{r}"), arity), arity)
        })
        .collect();

    let n_facts = next(48) as usize;
    for _ in 0..n_facts {
        let (rel, arity) = rels[next(n_rels as u64) as usize];
        let tuple: Vec<Value> = (0..arity)
            .map(|_| {
                if next(4) == 0 {
                    Value::null(next(6) as u32)
                } else {
                    Value::Const(next(9) as i64 - 4)
                }
            })
            .collect();
        // One fact in three is appended blindly; the others only when no
        // identical live fact is held, so the mix has duplicate rows too.
        let ids: Vec<ValueId> = tuple.iter().map(|&v| s.intern_value(v)).collect();
        if next(3) == 0 || live_fact(&s, rel, &ids).is_none() {
            s.append_ids(rel, &ids);
        }
    }

    if let (1, Some(null)) = (seed % 2, s.lookup_value(Value::null(0))) {
        // Merge null 0 into the constant 0, fact by fact in id order: a
        // fact whose merged tuple is already live dies in place, giving
        // dead rows; any other is overwritten in place.
        let mut ids = Vec::new();
        let mentions: Vec<u32> = s
            .iter_live()
            .filter(|&f| {
                ids.clear();
                s.fact_ids_into(f, &mut ids);
                ids.contains(&null)
            })
            .collect();
        if !mentions.is_empty() {
            let zero = s.intern_value(Value::Const(0));
            for f in mentions {
                ids.clear();
                s.fact_ids_into(f, &mut ids);
                let merged: Vec<ValueId> = ids
                    .iter()
                    .map(|&id| if id == null { zero } else { id })
                    .collect();
                let (rel, row) = (s.fact_rel(f), s.fact_row(f));
                if live_fact(&s, rel, &merged).is_some() {
                    s.set_dead(f);
                    continue;
                }
                for (col, _) in ids.iter().enumerate().filter(|&(_, &id)| id == null) {
                    s.set_cell(rel, col, row, zero);
                }
            }
        }
    }
    s
}

/// A live fact of `rel` whose tuple is `ids`, if any.
fn live_fact(s: &FactStore, rel: Symbol, ids: &[ValueId]) -> Option<u32> {
    let mut row = Vec::new();
    s.iter_live().find(|&f| {
        row.clear();
        s.fact_ids_into(f, &mut row);
        s.fact_rel(f) == rel && row == ids
    })
}

/// One relation's observable content: name, arity, (live, values) rows.
type RelPrint = (String, usize, Vec<(bool, Vec<Value>)>);

/// Everything observable about a store, for equality up to identity.
fn fingerprint(s: &FactStore) -> (Vec<RelPrint>, u32, u32) {
    let rels = s
        .relations()
        .map(|rel| {
            let t = s.table(rel);
            let rows = (0..t.n_rows())
                .map(|row| {
                    let vals = (0..t.arity())
                        .map(|c| s.value(t.col(c)[row as usize]))
                        .collect();
                    (t.is_live(row), vals)
                })
                .collect();
            (s.rel_name(rel).to_string(), t.arity(), rows)
        })
        .collect();
    (rels, s.values().n_consts(), s.values().n_nulls())
}

/// Byte offsets and widths of the header counts and of the first
/// directory entry's `name_len`, `arity` and `n_rows`.
const COUNT_FIELDS: [(usize, usize); 7] = [
    (16, 8),
    (24, 8),
    (32, 8),
    (40, 8),
    (48, 4),
    (52, 4),
    (56, 8),
];

/// Values a lying count takes; a 4-byte field gets the low 4 bytes.
const LIES: [u64; 6] = [0, 1, (1 << 31) - 1, 1 << 31, u32::MAX as u64, u64::MAX];

/// A changed buffer either fails with a typed error or loads a store
/// whose serialization is exactly that buffer.
fn typed_or_canonical(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
    if let Ok(store) = FactStore::from_bytes(bytes) {
        prop_assert!(
            store.to_bytes() == bytes,
            "a changed buffer loaded but re-serializes differently"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_lossless_and_byte_identical(seed in any::<u64>()) {
        let store = random_store(seed);
        let bytes = store.to_bytes();

        let loaded = match FactStore::from_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(proptest::TestCaseError(format!("load failed: {e}"))),
        };
        prop_assert_eq!(fingerprint(&store), fingerprint(&loaded));
        prop_assert_eq!(store.n_facts(), loaded.n_facts());
        prop_assert_eq!(store.n_live(), loaded.n_live());

        // Re-serialization must be byte-identical: row numbers and the
        // lazily rebuilt maps must not leak into the format.
        prop_assert_eq!(&store.to_bytes(), &bytes, "source re-serialization drifted");
        prop_assert_eq!(&loaded.to_bytes(), &bytes, "loaded re-serialization drifted");

        // The loaded store agrees with the header counts.
        prop_assert_eq!(loaded.values().n_consts(), store.values().n_consts());
        prop_assert_eq!(loaded.values().n_nulls(), store.values().n_nulls());
        prop_assert_eq!(loaded.n_relations(), store.n_relations());
    }

    #[test]
    fn every_strict_prefix_is_rejected(seed in any::<u64>(), frac in 0u32..1000) {
        let bytes = random_store(seed).to_bytes();
        let cut = (bytes.len() as u64 * frac as u64 / 1000) as usize;
        prop_assert!(cut < bytes.len());
        let prefix = &bytes[..cut];
        prop_assert!(FactStore::from_bytes(prefix).is_err(), "prefix of {cut} bytes loaded", );
    }

    #[test]
    fn corrupt_header_is_rejected(seed in any::<u64>(), byte in 0usize..16, bit in 0u32..8) {
        // Bytes 0..16 are magic, version, and the reserved word; any
        // single-bit damage there must be refused outright.
        let mut bytes = random_store(seed).to_bytes();
        bytes[byte] ^= 1 << bit;
        let err = match FactStore::from_bytes(&bytes) {
            Err(e) => e,
            Ok(_) => return Err(proptest::TestCaseError(format!(
                "store loaded with header byte {byte} bit {bit} flipped"
            ))),
        };
        match byte {
            0..=7 => prop_assert_eq!(err, SnapshotError::BadMagic),
            8..=11 => prop_assert!(
                matches!(err, SnapshotError::VersionMismatch { .. }),
                "expected VersionMismatch, got {err:?}"
            ),
            _ => prop_assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "expected Corrupt, got {err:?}"
            ),
        }
    }

    #[test]
    fn version_skew_names_both_versions(seed in any::<u64>(), found in 0u32..100) {
        if found == SNAPSHOT_VERSION {
            return Ok(());
        }
        let mut bytes = random_store(seed).to_bytes();
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        match FactStore::from_bytes(&bytes) {
            Err(SnapshotError::VersionMismatch { found: f, expected }) => {
                prop_assert_eq!(f, found);
                prop_assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => {
                return Err(proptest::TestCaseError(format!(
                    "expected VersionMismatch, got {other:?}"
                )))
            }
        }
    }

    #[test]
    fn any_single_byte_change_fails_typed_or_loads_canonically(
        seed in any::<u64>(),
        at in any::<u64>(),
        delta in 1u8..=255,
    ) {
        let mut bytes = random_store(seed).to_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = bytes[at].wrapping_add(delta);
        typed_or_canonical(&bytes)?;
    }

    #[test]
    fn lying_counts_fail_typed_or_load_canonically(
        seed in any::<u64>(),
        field in 0usize..COUNT_FIELDS.len(),
        lie in 0usize..LIES.len(),
    ) {
        // Every random store has at least one relation, so the first
        // directory entry exists.
        let mut bytes = random_store(seed).to_bytes();
        let (at, width) = COUNT_FIELDS[field];
        bytes[at..at + width].copy_from_slice(&LIES[lie].to_le_bytes()[..width]);
        typed_or_canonical(&bytes)?;
    }
}
