//! Collection strategies (`proptest::collection::vec`).

use core::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length constraint for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            min: exact,
            max: exact + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty size range");
        SizeRange {
            min: range.start,
            max: range.end,
        }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64;
        let len = self.size.min + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
