//! Canonical certificate bytes.
//!
//! A fixed little-endian encoding (length-prefixed vectors, one-byte
//! variant tags) with exactly one byte string per certificate value, so
//! the determinism suite can pin certificates byte-for-byte across
//! layouts and independently rebuilt stores — the same pin
//! discipline as the store's snapshot bytes.

use ca_core::value::{Null, Value};

use crate::types::{
    CertAtom, CertEgd, CertFact, CertQuery, CertTerm, CertainVerdictCert, ChaseCert,
    ChaseCertOutcome, ChaseStep, CoreCert, CoreStep, HomCert, MatchCert, NonCertainCert,
};

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, x: i64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Const(c) => {
            out.push(0);
            put_i64(out, c);
        }
        Value::Null(n) => {
            out.push(1);
            put_u32(out, n.0);
        }
    }
}

fn put_null(out: &mut Vec<u8>, n: Null) {
    put_u32(out, n.0);
}

fn put_fact(out: &mut Vec<u8>, f: &CertFact) {
    put_str(out, &f.0);
    put_len(out, f.1.len());
    for &v in &f.1 {
        put_value(out, v);
    }
}

fn put_facts(out: &mut Vec<u8>, fs: &[CertFact]) {
    put_len(out, fs.len());
    for f in fs {
        put_fact(out, f);
    }
}

fn put_term(out: &mut Vec<u8>, t: CertTerm) {
    match t {
        CertTerm::Var(x) => {
            out.push(0);
            put_u32(out, x);
        }
        CertTerm::Const(c) => {
            out.push(1);
            put_i64(out, c);
        }
    }
}

fn put_atoms(out: &mut Vec<u8>, atoms: &[CertAtom]) {
    put_len(out, atoms.len());
    for a in atoms {
        put_str(out, &a.rel);
        put_len(out, a.args.len());
        for &t in &a.args {
            put_term(out, t);
        }
    }
}

fn put_assignment(out: &mut Vec<u8>, asg: &[(u32, Value)]) {
    put_len(out, asg.len());
    for &(x, v) in asg {
        put_u32(out, x);
        put_value(out, v);
    }
}

impl HomCert {
    /// Canonical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"CAHOM".to_vec();
        out.push(u8::from(self.onto));
        put_len(&mut out, self.mapping.len());
        for &(n, v) in &self.mapping {
            put_null(&mut out, n);
            put_value(&mut out, v);
        }
        out
    }
}

impl ChaseCert {
    /// Canonical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"CACHASE".to_vec();
        put_len(&mut out, self.rules.len());
        for r in &self.rules {
            put_atoms(&mut out, &r.body);
            put_atoms(&mut out, &r.head);
        }
        put_len(&mut out, self.egds.len());
        for CertEgd { body, equal } in &self.egds {
            put_atoms(&mut out, body);
            put_u32(&mut out, equal.0);
            put_u32(&mut out, equal.1);
        }
        put_facts(&mut out, &self.initial);
        put_len(&mut out, self.steps.len());
        for s in &self.steps {
            match s {
                ChaseStep::Fire {
                    rule,
                    assignment,
                    fresh,
                } => {
                    out.push(0);
                    put_len(&mut out, *rule);
                    put_assignment(&mut out, assignment);
                    put_len(&mut out, fresh.len());
                    for &(x, n) in fresh {
                        put_u32(&mut out, x);
                        put_null(&mut out, n);
                    }
                }
                ChaseStep::Merge {
                    egd,
                    assignment,
                    merged,
                } => {
                    out.push(1);
                    put_len(&mut out, *egd);
                    put_assignment(&mut out, assignment);
                    match merged {
                        None => out.push(0),
                        Some((n, v)) => {
                            out.push(1);
                            put_null(&mut out, *n);
                            put_value(&mut out, *v);
                        }
                    }
                }
            }
        }
        match &self.outcome {
            ChaseCertOutcome::Done { final_facts } => {
                out.push(0);
                put_facts(&mut out, final_facts);
            }
            ChaseCertOutcome::Failed => out.push(1),
            ChaseCertOutcome::Aborted { partial } => {
                out.push(2);
                put_facts(&mut out, partial);
            }
            ChaseCertOutcome::Overflow { partial } => {
                out.push(3);
                put_facts(&mut out, partial);
            }
        }
        out
    }
}

impl CoreCert {
    /// Canonical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"CACORE".to_vec();
        put_u32(&mut out, self.n_elements);
        put_len(&mut out, self.tuples.len());
        for (r, t) in &self.tuples {
            put_u32(&mut out, *r);
            put_len(&mut out, t.len());
            for &x in t {
                put_u32(&mut out, x);
            }
        }
        put_len(&mut out, self.probe.len());
        for &p in &self.probe {
            put_u32(&mut out, p);
        }
        put_len(&mut out, self.steps.len());
        for s in &self.steps {
            match s {
                CoreStep::Fold { u, w } => {
                    out.push(0);
                    put_u32(&mut out, *u);
                    put_u32(&mut out, *w);
                }
                CoreStep::Endo { g } => {
                    out.push(1);
                    put_len(&mut out, g.len());
                    for &x in g {
                        put_u32(&mut out, x);
                    }
                }
            }
        }
        put_len(&mut out, self.kept.len());
        for &k in &self.kept {
            put_u32(&mut out, k);
        }
        put_len(&mut out, self.map.len());
        for &m in &self.map {
            put_u32(&mut out, m);
        }
        out
    }
}

impl MatchCert {
    /// Canonical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"CAMATCH".to_vec();
        put_len(&mut out, self.disjunct);
        put_assignment(&mut out, &self.assignment);
        put_len(&mut out, self.row.len());
        for &v in &self.row {
            put_value(&mut out, v);
        }
        out
    }
}

impl NonCertainCert {
    /// Canonical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"CANONCERT".to_vec();
        put_len(&mut out, self.valuation.len());
        for &(n, c) in &self.valuation {
            put_null(&mut out, n);
            put_i64(&mut out, c);
        }
        put_len(&mut out, self.row.len());
        for &v in &self.row {
            put_value(&mut out, v);
        }
        out
    }
}

impl CertainVerdictCert {
    /// Canonical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            CertainVerdictCert::Certain(m) => {
                let mut out = vec![0u8];
                out.extend_from_slice(&m.to_bytes());
                out
            }
            CertainVerdictCert::NonCertain(nc) => {
                let mut out = vec![1u8];
                out.extend_from_slice(&nc.to_bytes());
                out
            }
        }
    }
}

impl CertQuery {
    /// Canonical bytes (used when pinning a query + certificate pair).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"CAQUERY".to_vec();
        put_len(&mut out, self.head_arity);
        put_len(&mut out, self.disjuncts.len());
        for d in &self.disjuncts {
            put_len(&mut out, d.head.len());
            for &h in &d.head {
                put_u32(&mut out, h);
            }
            put_atoms(&mut out, &d.atoms);
        }
        out
    }
}
