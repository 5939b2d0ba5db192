//! Every scenario of the catalogue, set up and run for one op at seeds 1
//! and 7: the op's own checks pass, its report equals the reference of
//! its input slot, and the scenario's digest equals the `sim_digest` the
//! benchmark printed for it (`docs/perf-log/ISSUE-30.md`). A digest that
//! moves means a simulated result moved.

use pasta::scenarios::{Scenario, NAMES};

/// `(scenario, seed 1, seed 7)`, in [`NAMES`] order, as the log prints
/// them.
const DIGESTS: [(&str, &str, &str); 7] = [
    ("profile_fine", "fc043e05ea960aff", "536634e5d7add579"),
    ("event_flood", "2dc918910bb722af", "555462d7a559f820"),
    ("event_flood_gated", "d7cd2c4232e625b1", "c26218b1a24c805b"),
    ("scale_out_moe", "e144e0d50caeac1b", "e144e0d50caeac1b"),
    ("serve_oversub", "c38de8dbb06ae0e7", "8b6cbc5d3677aeff"),
    ("trace_capture", "2dc918910bb722af", "555462d7a559f820"),
    ("trace_replay", "db51eb9254f0244d", "864fe40393f4bffd"),
];

#[test]
fn every_scenario_reproduces_its_pinned_digest_at_seeds_1_and_7() {
    assert_eq!(DIGESTS.map(|(name, ..)| name), NAMES);
    let mut failures = Vec::new();
    for (name, seed_1, seed_7) in DIGESTS {
        for (seed, pinned) in [(1, seed_1), (7, seed_7)] {
            let mut scenario = Scenario::setup(name, seed).expect("set-up");
            let out = scenario.op(0).expect("one op");
            if let Err(fault) = out.checks() {
                failures.push(format!(
                    "{name} seed {seed}: the op's checks failed: {fault}"
                ));
            }
            if let Err(mismatch) = scenario.matches(&out) {
                failures.push(format!("{name} seed {seed}: {mismatch}"));
            }
            let digest = format!("{:016x}", scenario.digest());
            if digest != pinned {
                failures.push(format!(
                    "{name} seed {seed}: digest {digest}, pinned {pinned}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
