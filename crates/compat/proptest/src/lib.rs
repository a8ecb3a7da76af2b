//! Minimal offline stand-in for the `proptest` crate.
//!
//! Supports the surface this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), the
//! [`strategy::Strategy`] trait with `prop_map`, range and tuple
//! strategies, [`collection::vec`], [`prop_oneof!`], and the
//! `prop_assert*` macros. Inputs are drawn from a deterministic RNG
//! seeded from the test's module path and case number, so failures are
//! reproducible run-to-run.
//!
//! Failing properties are **shrunk**: the runner greedily walks
//! [`strategy::Strategy::shrink`] candidates (bounded by a fixed probe
//! budget), so range, tuple and `collection::vec` inputs are minimised —
//! ranges shrink toward their start, vectors shed length before
//! shrinking elements, tuples shrink one component at a time. The
//! minimal failing input is printed before the property is re-run
//! uncaught, so the ordinary assertion failure surfaces with a small,
//! readable witness. Opaque strategies (`prop_map`, `Just`,
//! `prop_oneof!` unions) don't shrink — their draws are reported
//! as generated.

/// Runner configuration (the subset of `proptest::test_runner::Config`
/// the workspace sets).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG used to draw test cases (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for one test case, seeded from the test's identity and the
    /// case index so every case is distinct but reproducible.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case number.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

pub mod strategy {
    use super::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no shrinking: a strategy is just a
    /// sampler.
    pub trait Strategy {
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Candidate simplifications of a failing `value`, most
        /// aggressive first. The runner probes them greedily: the first
        /// candidate that still fails becomes the new current value.
        /// Strategies with no meaningful simplification return nothing
        /// (the default).
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy so heterogeneous strategies can be
        /// unioned (see [`prop_oneof!`](crate::prop_oneof)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            self.0.shrink(value)
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between several strategies of one value type
    /// (built by [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
        fn shrink(&self, value: &f64) -> Vec<f64> {
            let mut out = Vec::new();
            if *value != self.start {
                out.push(self.start);
                let mid = self.start + (value - self.start) / 2.0;
                if mid != *value && mid != self.start {
                    out.push(mid);
                }
            }
            out
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
        fn shrink(&self, value: &f32) -> Vec<f32> {
            let mut out = Vec::new();
            if *value != self.start {
                out.push(self.start);
                let mid = self.start + (value - self.start) / 2.0;
                if mid != *value && mid != self.start {
                    out.push(mid);
                }
            }
            out
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    let mut out = Vec::new();
                    if *value > self.start {
                        // Halve the distance to the minimum, then step by
                        // one: together these binary-search the boundary.
                        let mid = self.start + (value - self.start) / 2;
                        out.push(mid);
                        let dec = value - 1;
                        if dec != mid {
                            out.push(dec);
                        }
                    }
                    out
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    let mut out = Vec::new();
                    if *value > self.start {
                        let mid =
                            (self.start as i128 + (*value as i128 - self.start as i128) / 2) as $t;
                        out.push(mid);
                        let dec = value - 1;
                        if dec != mid {
                            out.push(dec);
                        }
                    }
                    out
                }
            }
        )*};
    }

    signed_range_strategy!(i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+)
            where
                $($s::Value: Clone,)+
            {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    // Shrink one component at a time, the others fixed.
                    $(
                        for candidate in self.$idx.shrink(&value.$idx) {
                            let mut next = value.clone();
                            next.$idx = candidate;
                            out.push(next);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Vectors of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec length range");
        VecStrategy { element, size }
    }

    /// The result of [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            // Shed length first (a shorter witness beats smaller
            // elements): halve toward the minimum, then drop single
            // elements; only then shrink elements in place.
            if value.len() > self.size.start {
                let half = (value.len() / 2).max(self.size.start);
                if half < value.len() {
                    out.push(value[..half].to_vec());
                }
                for i in 0..value.len() {
                    let mut shorter = value.clone();
                    shorter.remove(i);
                    out.push(shorter);
                }
            }
            for i in 0..value.len() {
                for candidate in self.element.shrink(&value[i]) {
                    let mut next = value.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }
}

pub mod runner {
    //! The case loop behind [`proptest!`](crate::proptest): sample, test,
    //! and on failure shrink to a minimal witness before failing for real.

    use crate::strategy::Strategy;
    use crate::{ProptestConfig, TestRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Cap on failing-probe executions during one shrink search. Probes
    /// re-run the property body, which can be expensive; the greedy search
    /// keeps whatever minimum it reached when the budget runs out.
    const SHRINK_BUDGET: usize = 1_000;

    /// Runs `config.cases` random cases of `test` over inputs drawn from
    /// `strat`. On the first failing case the input is shrunk to a local
    /// minimum, printed, and the property re-run uncaught so the original
    /// assertion failure surfaces with the minimal witness.
    pub fn run<S, F>(test_name: &str, config: &ProptestConfig, strat: &S, test: F)
    where
        S: Strategy,
        S::Value: Clone + std::fmt::Debug,
        F: Fn(S::Value),
    {
        for case in 0..config.cases {
            let mut rng = TestRng::for_case(test_name, case);
            let input = strat.sample(&mut rng);
            if catch_unwind(AssertUnwindSafe(|| test(input.clone()))).is_ok() {
                continue;
            }
            let minimal = shrink_failure(strat, &test, input);
            eprintln!(
                "proptest: {test_name} failed at case {case}/{}; \
                 minimal failing input:\n{minimal:#?}",
                config.cases
            );
            test(minimal);
            unreachable!("shrunken input stopped failing on the final re-run");
        }
    }

    /// Greedy bounded shrink: repeatedly jump to the first
    /// [`Strategy::shrink`] candidate that still fails, until no candidate
    /// fails or the probe budget is spent. Probes necessarily panic, so
    /// the panic hook is silenced while searching (and restored after) to
    /// keep the harness output readable.
    pub(crate) fn shrink_failure<S, F>(strat: &S, test: &F, initial: S::Value) -> S::Value
    where
        S: Strategy,
        S::Value: Clone,
        F: Fn(S::Value),
    {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut current = initial;
        let mut budget = SHRINK_BUDGET;
        'search: while budget > 0 {
            let candidates = strat.shrink(&current);
            if candidates.is_empty() {
                break;
            }
            for candidate in candidates {
                if budget == 0 {
                    break 'search;
                }
                budget -= 1;
                let still_fails =
                    catch_unwind(AssertUnwindSafe(|| test(candidate.clone()))).is_err();
                if still_fails {
                    current = candidate;
                    continue 'search;
                }
            }
            break;
        }
        std::panic::set_hook(hook);
        current
    }
}

/// Runs each property as a loop of random cases, shrinking failures to a
/// minimal witness; see the crate docs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $($(#[$attr:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                // One combined tuple strategy: sampling order matches the
                // old per-argument scheme (tuples sample left to right),
                // so seeded draws are unchanged — and failures shrink
                // across all arguments jointly.
                let strat = ($(($strat),)+);
                $crate::runner::run(
                    concat!(module_path!(), "::", stringify!($name)),
                    &config,
                    &strat,
                    |($($arg,)+)| $body,
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// Asserts a property holds (panics like `assert!` — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

/// Asserts two values are equal (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// Asserts two values differ (panics like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*); };
}

/// The usual one-stop import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestRng};

    /// Mirrors `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1_000 {
            let x = Strategy::sample(&(3usize..8), &mut rng);
            assert!((3..8).contains(&x));
            let f = Strategy::sample(&(-5.0f64..5.0), &mut rng);
            assert!((-5.0..5.0).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::for_case("vec", 1);
        for _ in 0..200 {
            let v = Strategy::sample(&prop::collection::vec(0u32..10, 1..5), &mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn cases_are_reproducible() {
        let a: Vec<u64> = (0..5)
            .map(|c| TestRng::for_case("repro", c).next_u64())
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| TestRng::for_case("repro", c).next_u64())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u32..100, (a, b) in (0u64..10, 0u64..10)) {
            prop_assert!(x < 100);
            prop_assert!(a < 10 && b < 10);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(v in prop::collection::vec(0u8..4, 1..6)) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 4));
        }
    }

    /// The satellite acceptance test: a seeded failing property must
    /// shrink to its known minimum. `v < 17` over `0..1000` has minimal
    /// counterexample 17, and the halve-then-decrement candidates binary-
    /// search straight down to it.
    #[test]
    fn failing_range_shrinks_to_known_minimum() {
        let strat = (0u64..1_000,);
        let test = |(v,): (u64,)| assert!(v < 17);
        for seed_failure in [999u64, 500, 17, 18, 64] {
            let minimal = crate::runner::shrink_failure(&strat, &test, (seed_failure,));
            assert_eq!(minimal.0, 17, "started from {seed_failure}");
        }
    }

    /// Vectors shed length before shrinking elements: any failing vec with
    /// one offending element must shrink to exactly `[min_offender]`.
    #[test]
    fn failing_vec_shrinks_to_single_minimal_element() {
        let strat = (prop::collection::vec(0u32..100, 1..8),);
        let test = |(v,): (Vec<u32>,)| assert!(v.iter().all(|&x| x < 5));
        let minimal = crate::runner::shrink_failure(&strat, &test, (vec![99, 3, 42, 7],));
        assert_eq!(minimal.0, vec![5]);
    }

    /// Tuple components shrink independently: only the component that
    /// drives the failure moves, the innocent one reaches its minimum.
    #[test]
    fn tuple_shrinks_componentwise() {
        let strat = (0u64..100, 0u64..100);
        let test = |(a, _b): (u64, u64)| assert!(a < 10);
        let minimal = crate::runner::shrink_failure(&strat, &test, (77, 55));
        assert_eq!(minimal, (10, 0));
    }

    /// A shrunk f64 stays a valid sample: the range start is tried first,
    /// then midpoints toward it.
    #[test]
    fn float_range_shrinks_toward_start() {
        let strat = (1.0f64..100.0,);
        let test = |(x,): (f64,)| assert!(x < 8.0);
        // Halving toward the start converges to within a factor of two of
        // the failure boundary (floats have no decrement step): the final
        // witness x satisfies x >= 8 and start + (x - start)/2 < 8.
        let minimal = crate::runner::shrink_failure(&strat, &test, (93.5,));
        assert!((8.0..15.0).contains(&minimal.0), "got {}", minimal.0);
    }

    /// The macro path itself shrinks: drive a deliberately failing
    /// property through `runner::run` and confirm the panic carries the
    /// original assertion, not a runner artifact.
    #[test]
    fn runner_rethrows_the_original_assertion_on_minimal_input() {
        let result = std::panic::catch_unwind(|| {
            crate::runner::run(
                "shrink_rethrow_self_test",
                &ProptestConfig::with_cases(50),
                &(0u32..1_000,),
                |(v,)| assert!(v < 3, "v was {v}"),
            );
        });
        let err = result.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "v was 3", "panic carried: {msg}");
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![
            (0u32..1).prop_map(|_| "a"),
            (0u32..1).prop_map(|_| "b"),
            (0u32..1).prop_map(|_| "c"),
        ];
        let mut rng = TestRng::for_case("oneof", 2);
        let seen: std::collections::BTreeSet<&str> =
            (0..100).map(|_| Strategy::sample(&s, &mut rng)).collect();
        assert_eq!(seen.len(), 3);
    }
}
