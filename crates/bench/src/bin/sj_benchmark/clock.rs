//! The benchmark's only wall-clock source.
//!
//! The benchmark times the program from outside, at trait boundaries, so it
//! needs clock reads of its own. They all go through [`now`], which keeps
//! the audited exception to the `instant-outside-driver` rule in one line.

use std::time::{Duration, Instant};

/// The current instant.
pub fn now() -> Instant {
    // sj-lint: allow(instant-outside-driver) — the benchmark's own timer
    Instant::now()
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
