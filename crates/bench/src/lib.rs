//! Shared plumbing for `repro`, which prints the artifact registry of
//! `inceptionn::experiments::artifacts`, and the perf and soak binaries.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

use inceptionn::experiments::Fidelity;

/// Picks run fidelity from the `INCEPTIONN_QUICK` environment variable
/// (set it to any value for a fast smoke run; default is `Full`).
pub fn fidelity_from_env() -> Fidelity {
    if std::env::var_os("INCEPTIONN_QUICK").is_some() {
        Fidelity::Quick
    } else {
        Fidelity::Full
    }
}

/// The standard experiment banner, three lines.
pub fn banner(artifact: &str, paper_section: &str) -> String {
    let rule = "================================================================";
    format!("{rule}\nINCEPTIONN reproduction — {artifact} ({paper_section})\n{rule}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_defaults_to_full() {
        // The variable is not set under `cargo test`.
        if std::env::var_os("INCEPTIONN_QUICK").is_none() {
            assert_eq!(fidelity_from_env(), Fidelity::Full);
        }
    }
}
