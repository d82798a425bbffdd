//! serval-check: a self-contained, deterministic property-based testing
//! substrate.
//!
//! The workspace's charter is to build every substrate from scratch — the
//! SAT solver stands in for Z3, the SMT layer for Rosette, and this crate
//! for `proptest` + `rand`, which are unreachable in an offline build
//! and, unlike this crate, not seed-deterministic by default.
//!
//! Architecture (Hypothesis-style integrated shrinking):
//!
//! ```text
//!   proptest! macro ─▶ runner (cases, catch, shrink)     runner.rs
//!        │                      │
//!   Strategy combinators ─▶ DataSource (choice stream)   strategy.rs / data.rs
//!                               │
//!                     Xoshiro256** / SplitMix64          rng.rs
//! ```
//!
//! Strategies draw from a recorded choice stream; a failing case is its
//! choice list, and shrinking mutates that list (delete blocks, minimize
//! choices) and replays generation, so shrinking composes automatically
//! through every combinator. All-zero choices yield each strategy's
//! simplest value, so shrinking converges toward minimal inputs.
//!
//! The macro surface is `proptest`-compatible for the subset the
//! workspace uses: migrating a suite is normally just
//! `use proptest::prelude::*;` → `use serval_check::prelude::*;`.
//!
//! ```
//! use serval_check::prelude::*;
//!
//! // In a test module, put `#[test]` above the fn as with proptest.
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!     fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
//!         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     }
//! }
//! # addition_commutes();
//! ```

pub mod data;
pub mod rng;
pub mod runner;
pub mod sim;
pub mod strategy;

#[cfg(test)]
mod tests;

pub use runner::{Failure, ProptestConfig};
pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};

/// `proptest`-style namespace: `prop::collection::vec`,
/// `prop::sample::select`, `prop::bits::bv`.
pub mod prop {
    pub use crate::strategy::bits;
    pub use crate::strategy::collection;
    pub use crate::strategy::sample;
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::runner::ProptestConfig;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests. Accepts an optional leading
/// `#![proptest_config(expr)]` followed by any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let __strategy = ($($strat,)+);
            $crate::runner::run_property(
                &__cfg,
                stringify!($name),
                &__strategy,
                |($($arg,)+)| $body,
            );
        }
    )*};
}

/// Uniform choice among strategies of a common value type; each arm is
/// boxed, so arms may have different concrete strategy types. Shrinks
/// toward the first arm.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// `assert!` for property bodies (panics; the runner catches and
/// shrinks).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            panic!("prop_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!($($fmt)+);
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            panic!("prop_assert_eq failed: {:?} != {:?}", a, b);
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            panic!($($fmt)+);
        }
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            panic!("prop_assert_ne failed: both sides are {:?}", a);
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            panic!($($fmt)+);
        }
    }};
}
