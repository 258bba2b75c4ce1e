//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace-local
//! crate reimplements the slice of proptest's API the test suite uses:
//! the [`Strategy`] trait (`sample`-based, composable with `prop_map`),
//! range / tuple / collection / `any` strategies, `prop_oneof!`, and the
//! `proptest!` macro running a fixed number of deterministic
//! pseudo-random cases per test.
//!
//! Differences from real proptest, deliberately accepted:
//! * **no shrinking** — a failing case panics with its values via the
//!   assertion message instead of being minimized;
//! * **deterministic seeding** — each test derives its RNG seed from its
//!   own name, so failures reproduce exactly across runs.

// The shim is plain test plumbing; no unsafe needed.
#![forbid(unsafe_code)]
// Atomic orderings and hash containers only where a file says why.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    /// Per-test configuration (only the knob the suite uses).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// The case RNG handed to strategies.
    pub struct TestRng(pub(crate) rand::rngs::StdRng);

    impl TestRng {
        /// Deterministic: seeded from the test's name (FNV-1a).
        pub fn deterministic(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            use rand::SeedableRng;
            TestRng(rand::rngs::StdRng::seed_from_u64(h))
        }

        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            use rand::Rng;
            self.0.next_u64()
        }
    }
}

use test_runner::TestRng;

/// A generator of values of one type. Object-safe: the combinators are
/// `Sized`-gated so `BoxedStrategy` can erase the concrete type.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Type-erased strategy (what `prop_oneof!` arms collapse into).
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (built by `prop_oneof!`).
pub struct Union<T> {
    pub arms: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        use rand::Rng;
        let i = rng.0.gen_range(0..self.arms.len());
        self.arms[i].sample(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

int_strategies!(usize, u64, u32, u16, u8);

impl Strategy for Range<i64> {
    type Value = i64;
    fn sample(&self, rng: &mut TestRng) -> i64 {
        let span = self.end.wrapping_sub(self.start) as u64;
        assert!(span > 0, "empty range strategy");
        use rand::Rng;
        self.start.wrapping_add(rng.0.gen_range(0..span) as i64)
    }
}

impl Strategy for Range<i32> {
    type Value = i32;
    fn sample(&self, rng: &mut TestRng) -> i32 {
        let span = self.end.wrapping_sub(self.start) as u32 as u64;
        assert!(span > 0, "empty range strategy");
        use rand::Rng;
        self.start.wrapping_add(rng.0.gen_range(0..span) as i32)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        use rand::Rng;
        rng.0.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
);

/// Full-range / "any value" strategies.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}
impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}
impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        (rng.next_u64() >> 48) as u16
    }
}

pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Size specification for collection strategies: an exact size or a
    /// half-open range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::Rng;
            let len = rng.0.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// `prop::` namespace as the prelude exposes it.
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assertion macros: plain panics (no shrinking to feed a `Result` into).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union { arms: vec![$($crate::Strategy::boxed($arm)),+] }
    };
}

/// The test-harness macro: each `fn` becomes a `#[test]` running
/// `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $( $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $config;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..cfg.cases {
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, PartialEq)]
    enum Pick {
        Small(u32),
        Big(u32),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_sample_in_bounds(x in 3u32..17, y in -5i64..5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies(v in prop::collection::vec((0u32..10, any::<bool>()), 0..50)) {
            prop_assert!(v.len() < 50);
            prop_assert!(v.iter().all(|&(k, _)| k < 10));
        }

        #[test]
        fn oneof_and_map(p in prop_oneof![
            (0u32..100).prop_map(Pick::Small),
            (100u32..200).prop_map(Pick::Big),
        ]) {
            match p {
                Pick::Small(v) => prop_assert!(v < 100),
                Pick::Big(v) => prop_assert!((100..200).contains(&v)),
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::test_runner::TestRng;
        use crate::Strategy;
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let s = crate::collection::vec(0u32..1000, 0..100);
        for _ in 0..20 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }
}
