//! A chase certificate costs no heap allocation per step and none per
//! fact: recording it, checking it and dropping it allocate a number of
//! times that does not grow with the derivation, apart from the amortised
//! growth of a few flat buffers. Nor does the chased instance cost an
//! allocation per node: its nodes share one value arena. Nor does its
//! relational view: each relation's facts share one row buffer, sized
//! before it is filled, so viewing and dropping the instance allocate
//! exactly as often at both sizes.
//!
//! A counting global allocator tallies every allocation, reallocation and
//! deallocation in a thread-local counter, so the test threads that cargo
//! runs in parallel cannot disturb one another's counts. The chase is a
//! transitive closure of a chain plus one existential rule, at n and at
//! 2n facts; going from n to 2n adds thousands of steps and facts, and
//! must add at most [`SLACK`] heap operations to each of: the certified
//! chase minus the plain one, the check, and the drop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ca_cert::check_chase;
use ca_core::value::Value;
use ca_exchange::chase::{chase_certified, chase_with, ChaseConfig, ChaseOutcome};
use ca_exchange::mapping::Rule;
use ca_gdm::database::GenDb;
use ca_gdm::encode::relational_view;
use ca_gdm::schema::GenSchema;

thread_local! {
    static OPS: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    // `try_with` fails only while the thread is being torn down.
    let _ = OPS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `tick` touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tick();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap operations `f` performs on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = OPS.with(Cell::get);
    let out = f();
    let after = OPS.with(Cell::get);
    (out, (after - before) as i64)
}

/// What doubling the input may add: amortised `Vec` and index growth,
/// a handful of doublings per buffer.
const SLACK: i64 = 64;

fn schema() -> GenSchema {
    GenSchema::from_parts(&[("R", 2), ("S", 2)], &[])
}

fn pattern(facts: &[(&str, [Value; 2])]) -> GenDb {
    let mut d = GenDb::new(schema());
    for (rel, args) in facts {
        d.add_node(rel, args.to_vec());
    }
    d
}

/// R(x, y) ∧ R(y, z) → R(x, z), and R(x, y) → ∃w S(y, w).
fn rules() -> [Rule; 2] {
    let v = Value::null;
    [
        Rule {
            body: pattern(&[("R", [v(1), v(2)]), ("R", [v(2), v(3)])]),
            head: pattern(&[("R", [v(1), v(3)])]),
        },
        Rule {
            body: pattern(&[("R", [v(1), v(2)])]),
            head: pattern(&[("S", [v(2), v(4)])]),
        },
    ]
}

/// The chain R(0, 1), …, R(n-1, n).
fn chain(n: i64) -> GenDb {
    let facts: Vec<_> = (0..n)
        .map(|i| ("R", [Value::Const(i), Value::Const(i + 1)]))
        .collect();
    pattern(&facts)
}

/// Steps, then heap operations of: certified minus plain chase, check,
/// drop.
fn measure(n: i64) -> (usize, [i64; 3]) {
    let (d, rules) = (chain(n), rules());
    let cfg = ChaseConfig::new(1_000_000);
    let (_, plain) = counted(|| chase_with(&d, &rules, &[], &cfg));
    let ((_, cert), certified) = counted(|| chase_certified(&d, &rules, &[], &cfg));
    let cert = cert.expect("the engine certifies a relational chase");
    let (verdict, check) = counted(|| check_chase(&cert));
    assert_eq!(verdict, Ok(()));
    let steps = cert.steps.len();
    let ((), dropped) = counted(|| drop(cert));
    (steps, [certified - plain, check, dropped])
}

#[test]
fn chase_certificates_cost_no_allocation_per_step_or_fact() {
    let (small_steps, small) = measure(40);
    let (big_steps, big) = measure(80);
    eprintln!("n=40: {small_steps} steps, {small:?}; n=80: {big_steps} steps, {big:?}");
    assert!(big_steps >= 3000, "{big_steps} steps");
    for (what, (a, b)) in ["record", "check", "drop"]
        .iter()
        .zip(small.iter().zip(&big))
    {
        assert!(
            b - a <= SLACK,
            "{what}: {a} heap operations at n=40, {b} at n=80"
        );
    }
}

/// Nodes, then heap operations of dropping the chased instance.
fn drop_chased(n: i64) -> (usize, i64) {
    let outcome = chase_with(&chain(n), &rules(), &[], &ChaseConfig::new(1_000_000));
    let ChaseOutcome::Done(chased) = outcome else {
        panic!("the chain's chase finishes: {outcome:?}");
    };
    let nodes = chased.n_nodes();
    let ((), dropped) = counted(|| drop(chased));
    (nodes, dropped)
}

#[test]
fn chased_instances_cost_no_allocation_per_node() {
    let (small_nodes, small) = drop_chased(40);
    let (big_nodes, big) = drop_chased(80);
    eprintln!("n=40: {small_nodes} nodes, drop {small}; n=80: {big_nodes} nodes, drop {big}");
    assert!(big_nodes >= 3000, "{big_nodes} nodes");
    assert!(
        big - small <= SLACK,
        "drop: {small} heap operations at n=40, {big} at n=80"
    );
}

/// Nodes, then heap operations of viewing the chased instance as a
/// relational database and dropping the view.
fn view_chased(n: i64) -> (usize, i64) {
    let outcome = chase_with(&chain(n), &rules(), &[], &ChaseConfig::new(1_000_000));
    let ChaseOutcome::Done(chased) = outcome else {
        panic!("the chain's chase finishes: {outcome:?}");
    };
    let ((), ops) = counted(|| drop(relational_view(&chased).expect("a relational instance")));
    (chased.n_nodes(), ops)
}

#[test]
fn relational_views_cost_no_allocation_per_fact() {
    let (small_nodes, small) = view_chased(40);
    let (big_nodes, big) = view_chased(80);
    eprintln!("n=40: {small_nodes} nodes, view {small}; n=80: {big_nodes} nodes, view {big}");
    assert!(big_nodes >= 3000, "{big_nodes} nodes");
    assert_eq!(
        small, big,
        "view and drop: {small} heap operations at n=40, {big} at n=80"
    );
}
