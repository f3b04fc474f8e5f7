//! # slicer-testkit
//!
//! The workspace's in-house testing harness, so tier-1 verification runs
//! with zero external dependencies:
//!
//! * [`prop`] — a shrinking property-test harness. Write properties with
//!   [`prop_check!`], draw inputs from a [`prop::Gen`], assert with
//!   [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`]. Failures
//!   print a reproducible seed and a shrunk counterexample.
//! * [`bench`] — a monotonic-clock micro-benchmark runner for
//!   `harness = false` bench targets.
//! * [`bench_diff`] — a comparator over two bench-JSON documents, exact
//!   on counts and informational on timing; `scripts/ci.sh` uses it (via
//!   `repro --diff`) as the regression gate on the committed baselines.
//!
//! ```
//! slicer_testkit::prop_check!(0x51CE, 64, |g| {
//!     let x = g.u64();
//!     slicer_testkit::prop_assert_eq!(x.rotate_left(13).rotate_right(13), x);
//!     Ok(())
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod bench_diff;
pub mod prop;

pub use bench::{black_box, Bench, Stats};
pub use bench_diff::{diff, parse_bench_json, BenchDiffError, BenchDoc, DiffReport, MetricDelta};
pub use prop::{Gen, PropResult, DEFAULT_CASES};
