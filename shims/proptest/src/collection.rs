//! Collection strategies: [`vec()`].

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;

/// A size specification for generated collections: an exact length, a
/// half-open range, or an inclusive range.
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    /// Inclusive.
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> SizeRange {
        SizeRange { min: exact, max: exact }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { min: r.start, max: r.end - 1 }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange { min: *r.start(), max: *r.end() }
    }
}

/// Strategy producing `Vec`s of `element` values with a length drawn from
/// `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64 + 1;
        let len = self.size.min + runner.below(span) as usize;
        (0..len).map(|_| self.element.generate(runner)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_all_size_forms() {
        let mut r = TestRunner::new("vec-tests");
        r.begin_case(0);
        for _ in 0..200 {
            assert_eq!(vec(0u8..4, 3).generate(&mut r).len(), 3);
            let open = vec(0u8..4, 1..5).generate(&mut r);
            assert!((1..5).contains(&open.len()));
            let incl = vec(0u8..4, 2..=6).generate(&mut r);
            assert!((2..=6).contains(&incl.len()));
            assert!(open.iter().chain(&incl).all(|&x| x < 4));
        }
    }

    #[test]
    fn nested_vec_of_tuples() {
        let mut r = TestRunner::new("vec-nested");
        r.begin_case(0);
        let rows = vec(("[a-b]{1,2}", 0i64..3), 0..10).generate(&mut r);
        for (s, n) in rows {
            assert!((1..=2).contains(&s.len()) && (0..3).contains(&n));
        }
    }
}
