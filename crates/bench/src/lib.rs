//! # ahl-bench — the paper's evaluation, regenerated
//!
//! One function per table/figure of the paper (§7 + Appendix C). Each
//! prints the same rows/series the paper reports and returns them for
//! programmatic use. The `experiments` binary exposes them as subcommands:
//!
//! ```sh
//! cargo run --release -p ahl-bench --bin experiments -- fig8
//! cargo run --release -p ahl-bench --bin experiments -- all --quick
//! ```
//!
//! Absolute numbers are not expected to match the paper (our substrate is
//! a discrete-event simulator, not the authors' testbed); the *shapes* —
//! who wins, by what factor, where curves collapse — are the reproduction
//! targets. See BENCHMARKS.md for the measured record.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod figs;
pub mod json;
pub mod report;
pub mod trajectory;

pub use figs::Scale;

/// Run every experiment at the given scale (the `all` subcommand).
pub fn run_all(scale: Scale) {
    figs::table1();
    figs::table2();
    figs::table3();
    figs::eq1();
    figs::eq2();
    figs::eq3();
    figs::fig2(scale);
    figs::fig8(scale);
    figs::fig9(scale);
    figs::fig10(scale);
    figs::fig11(scale);
    figs::fig12(scale);
    figs::fig13(scale);
    figs::fig14(scale);
    figs::fig15(scale);
    figs::fig16(scale);
    figs::fig17(scale);
    figs::fig18(scale);
    figs::fig19(scale);
    figs::fig20(scale);
    figs::fig21(scale);
    figs::fig22(scale);
    figs::overload(scale);
    figs::statesync(scale);
    figs::byzantine(scale);
    figs::recovery(scale);
    figs::soak(scale);
    figs::parexec(scale);
}
