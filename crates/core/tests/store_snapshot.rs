//! Property tests for the fact-store snapshot format.
//!
//! The unit tests in `store::snapshot` pin the format on hand-built
//! samples; this suite generates *random* stores — random schemas,
//! fact mixes, interning orders, and dead rows produced by egd-style
//! rewrites — and checks the three contracts the format promises:
//!
//! 1. round-trip: `to_bytes` → `from_bytes` reproduces the store
//!    exactly, and re-serializing the loaded store is byte-identical;
//! 2. truncation: every strict prefix of a valid snapshot is rejected;
//! 3. header corruption / version skew: a damaged header never loads.

use proptest::prelude::*;

use ca_core::store::stats::compute_exact;
use ca_core::store::{FactStore, SnapshotError, SnapshotView, SNAPSHOT_READ_VERSIONS};
use ca_core::value::{Null, Value};

/// Deterministic store generator: `seed` fully determines the result.
/// Mixes 1–3 relations of arity 1–3, constants from a small domain
/// (forcing interner sharing), nulls, duplicate inserts (dedup path),
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
        // `insert` dedups; exercising it alongside `append` keeps the
        // fact directory and dedup map in the generated mix.
        if next(3) == 0 {
            s.append(rel, &tuple);
        } else {
            s.insert(rel, &tuple);
        }
    }

    if seed % 2 == 1 && s.lookup_value(Value::null(0)).is_some() {
        // Merge null 0 into a constant: facts that collapse onto an
        // already-interned row die in place, giving dead rows.
        let merged = [Null(0)];
        s.rewrite(&merged, |v| {
            if v == Value::null(0) {
                Value::Const(0)
            } else {
                v
            }
        });
    }
    s
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

/// The version-2 snapshot of `s` that earlier builds wrote: the v1
/// bytes, the exact statistics section appended, version 2 stamped.
fn with_v2_stats(s: &FactStore) -> Vec<u8> {
    let mut bytes = s.to_bytes();
    for rs in compute_exact(s) {
        bytes.extend_from_slice(&rs.n_live.to_le_bytes());
        for cs in &rs.cols {
            bytes.extend_from_slice(&cs.distinct.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&cs.min_const.to_le_bytes());
            bytes.extend_from_slice(&cs.max_const.to_le_bytes());
        }
    }
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    bytes
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

        // The zero-copy view agrees with the header-level facts.
        let view = match SnapshotView::parse(&bytes) {
            Ok(v) => v,
            Err(e) => return Err(proptest::TestCaseError(format!("view failed: {e}"))),
        };
        prop_assert_eq!(view.n_facts(), store.n_facts());
        prop_assert_eq!(view.n_rels() as usize, store.n_relations());

        // The version-2 form (statistics section appended) loads to the
        // same store and re-serializes as the writer's version 1.
        let v2 = match FactStore::from_bytes(&with_v2_stats(&store)) {
            Ok(s) => s,
            Err(e) => return Err(proptest::TestCaseError(format!("v2 load failed: {e}"))),
        };
        prop_assert_eq!(&v2.to_bytes(), &bytes, "v2 re-serialization drifted");
    }

    #[test]
    fn every_strict_prefix_is_rejected(seed in any::<u64>(), frac in 0u32..1000) {
        let bytes = random_store(seed).to_bytes();
        let cut = (bytes.len() as u64 * frac as u64 / 1000) as usize;
        prop_assert!(cut < bytes.len());
        let prefix = &bytes[..cut];
        prop_assert!(FactStore::from_bytes(prefix).is_err(), "prefix of {cut} bytes loaded", );
        prop_assert!(SnapshotView::parse(prefix).is_err(), "prefix of {cut} bytes parsed", );
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
        // Every readable version is out of scope: stamping one onto a
        // buffer of another readable version is a layout error, not skew.
        if SNAPSHOT_READ_VERSIONS.contains(&found) {
            return Ok(());
        }
        let mut bytes = random_store(seed).to_bytes();
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        match FactStore::from_bytes(&bytes) {
            Err(SnapshotError::VersionMismatch { found: f, accepted }) => {
                prop_assert_eq!(f, found);
                prop_assert_eq!(accepted, SNAPSHOT_READ_VERSIONS);
            }
            other => {
                return Err(proptest::TestCaseError(format!(
                    "expected VersionMismatch, got {other:?}"
                )))
            }
        }
    }
}
