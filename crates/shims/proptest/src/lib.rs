//! A workspace-local stand-in for `proptest`.
//!
//! Supports the features the workspace's property tests use: the
//! `proptest!` macro over functions whose arguments bind `pattern in
//! strategy`, range strategies over integers and floats, tuple strategies,
//! `proptest::collection::vec`, `any::<bool>()`, and the `prop_assert*`
//! macros. Each test runs [`cases`] random cases from a deterministic seed;
//! there is no shrinking — a failing case prints its inputs via the
//! assertion message instead.

#![forbid(unsafe_code)]

/// Number of random cases each property runs when `PROPTEST_CASES` does not
/// set it.
pub const NUM_CASES: u32 = 96;

/// Number of random cases each property runs: the value of the
/// `PROPTEST_CASES` environment variable, as in the real crate, or
/// [`NUM_CASES`] when it is unset or not a number. A deep run is, for
/// example, `PROPTEST_CASES=2048 cargo test --release -p craid-cache`.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(NUM_CASES)
}

/// Deterministic RNG for test-case generation.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The RNG handed to strategies.
    pub type TestRng = StdRng;

    /// A fixed-seed RNG: property runs are reproducible across invocations.
    pub fn deterministic() -> TestRng {
        StdRng::seed_from_u64(0x70726f70_74657374) // "proptest"
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Generates random values of an output type.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut TestRng) -> $ty {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A: 0)
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
    }

    /// Strategy for `any::<T>()`.
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<u64>()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<u32>()
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// The `any::<T>()` strategy constructor.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Turns each `fn name(bindings in strategies) { body }` into a function
/// executing [`cases`] random cases. As in the real crate, the
/// function's attributes pass through unchanged and none is added: a
/// property is a test when it carries its own `#[test]`, so libtest
/// registers it once.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block )+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut proptest_rng = $crate::test_runner::deterministic();
                for proptest_case in 0..$crate::cases() {
                    let _ = proptest_case;
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut proptest_rng);)+
                    $body
                }
            }
        )+
    };
}

/// Asserts a condition inside a property (plain `assert!` here).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (plain `assert_eq!` here).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (plain `assert_ne!` here).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// The usual import surface.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// Doc comments before properties must parse.
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, f in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vectors_respect_length(v in crate::collection::vec(0u32..5, 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn tuples_and_any_compose((a, b, flag) in (0u64..4, 0u64..4, any::<bool>())) {
            prop_assert!(a < 4 && b < 4);
            let _ = flag;
        }
    }

    thread_local! {
        static CASES_RUN: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    proptest! {
        /// Carries no `#[test]`: the test below calls it.
        fn counts_its_cases(x in 0u64..10) {
            prop_assert!(x < 10);
            CASES_RUN.with(|n| n.set(n.get() + 1));
        }
    }

    #[test]
    fn a_property_runs_every_case_in_one_call() {
        CASES_RUN.with(|n| n.set(0));
        counts_its_cases();
        assert_eq!(CASES_RUN.with(std::cell::Cell::get), crate::cases());
    }

    #[test]
    fn ninety_six_cases_unless_proptest_cases_says_otherwise() {
        if std::env::var_os("PROPTEST_CASES").is_none() {
            assert_eq!(crate::cases(), 96);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::deterministic();
        let mut b = crate::test_runner::deterministic();
        for _ in 0..32 {
            assert_eq!((0u64..1000).sample(&mut a), (0u64..1000).sample(&mut b));
        }
    }
}
