//! Pins the exact modular-operation counts of one honest auction.
//!
//! The Table 1 reproduction measures computation in logical modular
//! operations, so a kernel rewrite that changes how a multiplication is
//! carried out must leave these counts untouched. Any drift here means a
//! kernel now performs (or records) a different number of field
//! operations than the protocol's cost model assumes.

use dmw::runner::DmwRunner;
use dmw_modmath::{ops, OpsSnapshot};
use integration_tests::{config, random_bids, rng};

#[test]
fn honest_auction_records_pinned_op_counts() {
    let mut r = rng(14_000);
    let cfg = config(8, 1, &mut r);
    let bids = random_bids(&cfg, 2, &mut r);
    ops::reset_ops();
    let run = DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap();
    let counted = ops::take_ops();
    assert!(run.completed().is_ok(), "the honest auction completes");
    assert_eq!(
        counted,
        OpsSnapshot {
            mul: 122_396,
            add: 5_654,
            inv: 344,
            pow: 1_522,
        }
    );
}
