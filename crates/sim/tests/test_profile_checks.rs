//! The test profile keeps its run-time checks whatever its `opt-level`:
//! integer overflow and `debug_assert!` still panic. This crate is one of
//! the hot crates, so it is the one an optimised dev profile would touch
//! first.

use std::hint::black_box;

#[test]
#[should_panic(expected = "attempt to add with overflow")]
fn integer_overflow_panics() {
    let _ = black_box(u64::MAX) + black_box(1);
}

#[test]
#[should_panic(expected = "debug assertions are on")]
fn debug_assertions_panic() {
    debug_assert!(black_box(false), "debug assertions are on");
}
