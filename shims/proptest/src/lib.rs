//! Offline stand-in for the `proptest` crate, covering the API subset this
//! workspace uses.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace vendors minimal implementations of its external dependencies
//! (see `crates/shims/`). This provides the `proptest!` macro with
//! `pattern in strategy` bindings, `ProptestConfig::with_cases`, range /
//! `any::<T>()` / tuple / `collection::vec` / `prop_map` strategies, and the
//! `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Differences from upstream: cases are generated from a fixed per-case
//! seed (fully deterministic across runs), and failing cases are reported
//! but **not shrunk** — the panic message includes the case number and the
//! failed assertion instead of a minimal counterexample.

pub mod test_runner {
    //! Case-driving machinery used by the `proptest!` macro expansion.

    /// Number-of-cases configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// How many random cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property assertion (carries the formatted message).
    #[derive(Debug)]
    pub struct TestCaseError {
        msg: String,
    }

    impl TestCaseError {
        /// Builds a failure carrying `msg`.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError { msg: msg.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.msg)
        }
    }

    /// Deterministic per-case generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Generator for case number `case`; the stream depends only on
        /// the case number, so failures reproduce across runs.
        pub fn for_case(case: u64) -> Self {
            TestRng {
                // Golden-ratio offset decorrelates neighbouring cases.
                state: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5851_F42D_4C95_7F2D,
            }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, span)`.
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            self.next_u64() % span
        }
    }

    /// Runs `cases` deterministic cases of `body`, panicking on the first
    /// failure with the case number embedded in the message.
    pub fn run_cases<F>(config: &ProptestConfig, mut body: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        for case in 0..config.cases {
            let mut rng = TestRng::for_case(case as u64);
            if let Err(e) = body(&mut rng) {
                panic!("proptest case {case} of {} failed: {e}", config.cases);
            }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating random values of `Self::Value`.
    ///
    /// Unlike upstream proptest there is no shrinking tree; a strategy is
    /// just a deterministic function of the case RNG. Range strategies
    /// deliberately over-sample their endpoints so boundary conditions
    /// (e.g. `len < workers`) are hit often.
    pub trait Strategy: Sized {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Post-processes generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// One chance in `EDGE_ODDS` of pinning a range sample to an endpoint.
    const EDGE_ODDS: u64 = 8;

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    match rng.below(EDGE_ODDS) {
                        0 => self.start,
                        1 => self.start + (span - 1) as $t,
                        _ => self.start + (rng.next_u64() as u128 % span) as $t,
                    }
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    match rng.below(EDGE_ODDS) {
                        0 => lo,
                        1 => hi,
                        _ => lo + (rng.next_u64() as u128 % span) as $t,
                    }
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let u = rng.unit_f64() as $t;
                    self.start + u * (self.end - self.start)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    match rng.below(EDGE_ODDS) {
                        0 => lo,
                        1 => hi,
                        _ => lo + (rng.unit_f64() as $t) * (hi - lo),
                    }
                }
            }
        )*};
    }
    float_strategy!(f32, f64);

    /// Full-type-range strategy returned by [`any`](crate::arbitrary::any).
    pub struct Any<T>(pub(crate) PhantomData<T>);

    macro_rules! any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<f32> {
        type Value = f32;

        // A spread of magnitudes and signs, occasionally exactly zero —
        // upstream `any::<f32>()` similarly mixes special values in.
        fn generate(&self, rng: &mut TestRng) -> f32 {
            match rng.below(16) {
                0 => 0.0,
                1 => -0.0,
                _ => {
                    let mag = (rng.unit_f64() * 80.0 - 40.0).exp2();
                    let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
                    (sign * mag) as f32
                }
            }
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            match rng.below(16) {
                0 => 0.0,
                1 => -0.0,
                _ => {
                    let mag = (rng.unit_f64() * 400.0 - 200.0).exp2();
                    let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
                    sign * mag
                }
            }
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
}

pub mod arbitrary {
    //! `any::<T>()` entry point.

    use super::strategy::Any;
    use std::marker::PhantomData;

    /// Strategy generating arbitrary values of `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: super::strategy::Strategy,
    {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`].
    pub trait IntoLenRange {
        /// Inclusive `(min, max)` length bounds.
        fn len_bounds(&self) -> (usize, usize);
    }

    impl IntoLenRange for usize {
        fn len_bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoLenRange for Range<usize> {
        fn len_bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty length range");
            (self.start, self.end - 1)
        }
    }

    impl IntoLenRange for RangeInclusive<usize> {
        fn len_bounds(&self) -> (usize, usize) {
            assert!(self.start() <= self.end(), "empty length range");
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Generates vectors with lengths in `len` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
        let (min, max) = len.len_bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max - self.min) as u64 + 1;
            let len = match rng.below(8) {
                0 => self.min,
                1 => self.max,
                _ => self.min + rng.below(span) as usize,
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub use arbitrary::any;

pub mod prelude {
    //! Common imports, mirroring `proptest::prelude`.
    pub use super::arbitrary::any;
    pub use super::strategy::Strategy;
    pub use super::test_runner::{ProptestConfig, TestCaseError};
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests. Each function body runs once per generated
/// case; bindings use `pattern in strategy` syntax.
#[macro_export]
macro_rules! proptest {
    // With a leading #![proptest_config(...)] attribute.
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                $crate::test_runner::run_cases(&config, |rng| {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), rng);)+
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };

    // Default config (256 cases).
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strat),+) $body
            )*
        }
    };
}

/// `assert!` variant that fails the current proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` variant that fails the current proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// `assert_ne!` variant that fails the current proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(n in 2usize..9, x in -1.5f32..1.5, b in any::<u64>()) {
            prop_assert!((2..9).contains(&n));
            prop_assert!((-1.5..1.5).contains(&x));
            let _ = b;
        }

        #[test]
        fn vectors_respect_length(v in crate::collection::vec(0u32..100, 3..6)) {
            prop_assert!((3..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn prop_map_applies((a, b) in (0u32..10, 0u32..10).prop_map(|(x, y)| (x + 1, y + 1))) {
            prop_assert!((1..=10).contains(&a) && (1..=10).contains(&b));
        }
    }

    #[test]
    fn edge_bias_hits_range_endpoints() {
        let strat = 0usize..10;
        let mut saw_lo = false;
        let mut saw_hi = false;
        for case in 0..200 {
            let mut rng = crate::test_runner::TestRng::for_case(case);
            match Strategy::generate(&strat, &mut rng) {
                0 => saw_lo = true,
                9 => saw_hi = true,
                _ => {}
            }
        }
        assert!(saw_lo && saw_hi, "endpoint bias should hit 0 and 9");
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_case_number() {
        crate::test_runner::run_cases(
            &ProptestConfig::with_cases(4),
            |_rng| -> Result<(), TestCaseError> { Err(TestCaseError::fail("always fails")) },
        );
    }
}
